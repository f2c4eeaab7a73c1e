/**
 * @file
 * In-memory span recorder for the traced run.  The benchmark opens a
 * span around each public call an op makes into a simulator module;
 * spans nest by call order and carry the op they belong to.  They
 * are written once, at exit, as Chrome-trace JSON that Perfetto
 * opens.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <chrono>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

    /** Spans opened from now on belong to op @p op. */
    void setOp(int op) { op_ = op; }

    /** Open a span nested in the innermost open one; returns its id. */
    int begin(std::string name);
    /** Close span @p id (the innermost open one). */
    void end(int id);

    /** Attach a numeric argument shown in the trace viewer. */
    void arg(int id, const std::string &key, double value);

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome-trace JSON ("X" events, one per span, ts/dur in us). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    double nowUs() const;

    Clock::time_point origin_;
    int op_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::map<int, std::vector<std::pair<std::string, double>>> args_;
};

/** RAII span; a null recorder records nothing (the untraced path). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, std::string name)
        : rec_(rec), id_(rec ? rec->begin(std::move(name)) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanRecorder *rec_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
