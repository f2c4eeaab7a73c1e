#include "spans.hpp"

#include <cstdio>

namespace perfbench {

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now()
                                                     - origin_)
        .count();
}

int
SpanRecorder::begin(std::string name)
{
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op_;
    s.start_us = nowUs();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    spans_[static_cast<std::size_t>(id)].end_us = nowUs();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
SpanRecorder::arg(int id, const std::string &key, double value)
{
    args_[id].push_back({key, value});
}

void
SpanRecorder::writeChromeTrace(std::ostream &os) const
{
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    char buf[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1";
        std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f, \"dur\": %.3f",
                      s.start_us, s.end_us - s.start_us);
        os << buf << ", \"args\": {\"op\": " << s.op
           << ", \"span\": " << i << ", \"parent\": " << s.parent;
        if (const auto it = args_.find(static_cast<int>(i));
            it != args_.end()) {
            for (const auto &[key, value] : it->second) {
                std::snprintf(buf, sizeof(buf), "%.17g", value);
                os << ", \"" << key << "\": " << buf;
            }
        }
        os << "}}";
    }
    os << "\n]}\n";
}

} // namespace perfbench
