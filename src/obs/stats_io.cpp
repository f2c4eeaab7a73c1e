#include "obs/stats_io.hpp"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/log.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "obs/json.hpp"

namespace hcc::obs {

namespace {

bool
isHostStat(const std::string &name)
{
    return name.rfind("host.", 0) == 0;
}

void
writeEntry(std::ostream &os, const Registry::Entry &e)
{
    switch (e.kind) {
      case Registry::Kind::Counter:
        os << "{\"type\": \"counter\", \"value\": "
           << e.counter->value() << "}";
        break;
      case Registry::Kind::Gauge:
        os << "{\"type\": \"gauge\", \"value\": " << e.gauge->value()
           << ", \"min\": " << e.gauge->min()
           << ", \"max\": " << e.gauge->max()
           << ", \"samples\": " << e.gauge->samples().size() << "}";
        break;
      case Registry::Kind::Distribution:
        os << "{\"type\": \"distribution\", \"count\": "
           << e.distribution->count()
           << ", \"sum\": " << formatShortest(e.distribution->sum())
           << ", \"min\": " << formatShortest(e.distribution->min())
           << ", \"max\": " << formatShortest(e.distribution->max())
           << ", \"mean\": " << formatShortest(e.distribution->mean())
           << "}";
        break;
    }
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
    bool first = true;
    for (const auto &[prefix, registry] : sections) {
        HCC_ASSERT(registry != nullptr, "null registry in dump");
        for (const auto &[name, entry] : registry->entries()) {
            if (!include_host && isHostStat(name))
                continue;
            os << (first ? "\n" : ",\n");
            first = false;
            os << "    \"" << jsonEscape(prefix + name) << "\": ";
            writeEntry(os, entry);
        }
    }
    os << "\n  }\n}\n";
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
