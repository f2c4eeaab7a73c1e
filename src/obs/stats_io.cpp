#include "obs/stats_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "common/log.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "obs/json.hpp"

namespace hcc::obs {

namespace {

bool
isHostStat(std::string_view name)
{
    return name.rfind("host.", 0) == 0;
}

/** Append @p text, then @p v in shortest round-trip decimal (what
 *  formatShortest() gives for a double; plain decimal for an
 *  integer). */
template <typename T>
void
appendField(std::string &out, std::string_view text, T v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out += text;
    out.append(buf, res.ptr);
}

/** Append @p s JSON-escaped.  Escaping is per character, so a name
 *  with nothing to escape (almost every stat) is copied as is. */
void
appendEscaped(std::string &out, std::string_view s)
{
    const bool plain = std::none_of(s.begin(), s.end(), [](char c) {
        return c == '"' || c == '\\'
            || static_cast<unsigned char>(c) < 0x20;
    });
    if (plain)
        out.append(s);
    else
        out += jsonEscape(s);
}

void
appendEntry(std::string &out, const Registry::Entry &e)
{
    switch (e.kind) {
      case Registry::Kind::Counter:
        appendField(out, "{\"type\": \"counter\", \"value\": ",
                    e.counter->value());
        break;
      case Registry::Kind::Gauge: {
        const Gauge &g = *e.gauge;
        appendField(out, "{\"type\": \"gauge\", \"value\": ", g.value());
        appendField(out, ", \"min\": ", g.min());
        appendField(out, ", \"max\": ", g.max());
        appendField(out, ", \"samples\": ", g.sampleCount());
        break;
      }
      case Registry::Kind::Distribution: {
        const Distribution &d = *e.distribution;
        appendField(out, "{\"type\": \"distribution\", \"count\": ",
                    d.count());
        appendField(out, ", \"sum\": ", d.sum());
        appendField(out, ", \"min\": ", d.min());
        appendField(out, ", \"max\": ", d.max());
        appendField(out, ", \"mean\": ", d.mean());
        break;
      }
    }
    out += '}';
}

} // namespace

void
writeStatsJson(std::ostream &os, const StatsSections &sections,
               bool include_host, const std::string &extra_members)
{
    os << "{\n  \"hccsim_stats_version\": 1,\n";
    if (!extra_members.empty())
        os << "  " << extra_members << ",\n";
    os << "  \"stats\": {";
    // The stat lines go through one buffer, flushed in large blocks:
    // a campaign's merged dump has ~10^6 of them.
    constexpr std::size_t kFlushBytes = std::size_t{1} << 16;
    std::string out;
    out.reserve(2 * kFlushBytes);
    const auto flush = [&] {
        os.write(out.data(), static_cast<std::streamsize>(out.size()));
        out.clear();
    };
    // Each distinct registry is rendered once into its `name": {...}`
    // lines, which every section that points at it copies under its
    // own prefix: campaign cells that reused their seed's unfaulted
    // result, and duplicate sweep cells, share one registry.  A
    // rendering is freed after the last section that uses it.
    struct Rendered
    {
        std::string lines;
        /** End offset of each line in `lines`. */
        std::vector<std::size_t> ends;
        std::size_t uses = 0;
        bool done = false;
    };
    std::unordered_map<const Registry *, Rendered> rendered;
    for (const auto &section : sections) {
        HCC_ASSERT(section.second != nullptr, "null registry in dump");
        ++rendered[section.second].uses;
    }
    bool first = true;
    for (const auto &[raw_prefix, registry] : sections) {
        Rendered &r = rendered.at(registry);
        if (!r.done) {
            for (const auto &[name, entry] : registry->entries()) {
                if (!include_host && isHostStat(name))
                    continue;
                appendEscaped(r.lines, name);
                r.lines += "\": ";
                appendEntry(r.lines, entry);
                r.ends.push_back(r.lines.size());
            }
            r.done = true;
        }
        const std::string prefix = jsonEscape(raw_prefix);
        std::size_t begin = 0;
        for (const std::size_t end : r.ends) {
            out += first ? "\n    \"" : ",\n    \"";
            first = false;
            out += prefix;
            out.append(r.lines, begin, end - begin);
            begin = end;
            if (out.size() >= kFlushBytes)
                flush();
        }
        if (--r.uses == 0)
            rendered.erase(registry);
    }
    out += "\n  }\n}\n";
    flush();
}

std::string
statsJson(const Registry &registry, bool include_host)
{
    std::ostringstream oss;
    writeStatsJson(oss, {{"", &registry}}, include_host);
    return oss.str();
}

Result<StatsMap>
parseStatsJson(const std::string &text)
{
    json::Value doc;
    std::string error;
    if (!json::parse(text, doc, error))
        return errorf(ErrorCode::ParseError,
                      "malformed stats JSON: %s", error.c_str());
    const json::Value *stats = doc.find("stats");
    if (stats == nullptr || !stats->isObject())
        return errorf(ErrorCode::ParseError,
                      "stats JSON has no \"stats\" object");

    StatsMap out;
    for (const auto &[name, body] : stats->object) {
        if (!body.isObject())
            return errorf(ErrorCode::ParseError,
                          "stat '%s' is not an object", name.c_str());
        StatSnapshot snap;
        for (const auto &[field, v] : body.object) {
            if (field == "type" && v.isString())
                snap.type = v.string;
            else if (v.isNumber())
                snap.fields[field] = v.number;
            else
                return errorf(ErrorCode::ParseError,
                              "stat '%s' field '%s' is not numeric",
                              name.c_str(), field.c_str());
        }
        out[name] = std::move(snap);
    }
    return out;
}

Result<StatsMap>
loadStatsFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return errorf(ErrorCode::IoError,
                      "cannot open stats file '%s'", path.c_str());
    std::ostringstream oss;
    oss << in.rdbuf();
    if (in.bad())
        return errorf(ErrorCode::IoError,
                      "failed reading stats file '%s'", path.c_str());
    return parseStatsJson(oss.str());
}

double
StatDrift::relative() const
{
    const double scale =
        std::max(std::fabs(baseline), std::fabs(current));
    if (scale == 0.0)
        return 0.0;
    return std::fabs(current - baseline) / scale;
}

std::string
StatsDiffResult::report() const
{
    std::ostringstream oss;
    if (pass()) {
        oss << "stats-diff: " << compared
            << " stats compared, no drift beyond tolerance\n";
        return oss.str();
    }
    TextTable t("stats-diff: " + std::to_string(drifts.size())
                + " drifting of " + std::to_string(compared)
                + " compared");
    t.header({"stat", "field", "baseline", "current", "drift"});
    for (const auto &d : drifts) {
        std::string drift;
        if (d.what == "drift") {
            std::ostringstream rel;
            rel.precision(3);
            rel << std::fixed << d.relative() * 100.0 << "%";
            drift = rel.str();
        } else {
            drift = d.what;
        }
        t.row({d.stat, d.field, formatShortest(d.baseline),
               formatShortest(d.current), drift});
    }
    t.print(oss);
    return oss.str();
}

StatsDiffResult
diffStats(const StatsMap &baseline, const StatsMap &current,
          double tolerance)
{
    StatsDiffResult result;

    for (const auto &[name, base] : baseline) {
        const auto it = current.find(name);
        if (it == current.end()) {
            result.drifts.push_back(
                {name, "", base.fields.count("value")
                     ? base.fields.at("value") : 0.0,
                 0.0, "missing"});
            continue;
        }
        const StatSnapshot &cur = it->second;
        ++result.compared;
        if (base.type != cur.type) {
            result.drifts.push_back({name, "type", 0.0, 0.0, "type"});
            continue;
        }
        for (const auto &[field, bval] : base.fields) {
            const auto fit = cur.fields.find(field);
            if (fit == cur.fields.end()) {
                result.drifts.push_back(
                    {name, field, bval, 0.0, "missing"});
                continue;
            }
            StatDrift d{name, field, bval, fit->second, "drift"};
            if (d.relative() > tolerance)
                result.drifts.push_back(d);
        }
        for (const auto &[field, cval] : cur.fields) {
            if (base.fields.find(field) == base.fields.end()) {
                result.drifts.push_back(
                    {name, field, 0.0, cval, "added"});
            }
        }
    }
    for (const auto &[name, cur] : current) {
        if (baseline.find(name) == baseline.end()) {
            result.drifts.push_back(
                {name, "", 0.0, cur.fields.count("value")
                     ? cur.fields.at("value") : 0.0,
                 "added"});
        }
    }
    return result;
}

} // namespace hcc::obs
