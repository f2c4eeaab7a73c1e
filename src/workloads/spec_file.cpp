#include "workloads/spec_file.hpp"

#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/calibration.hpp"
#include "common/text.hpp"

namespace hcc::workloads {

namespace {

/** Split a token into (numeric prefix, unit suffix). */
bool
splitNumberUnit(const std::string &token, double &value,
                std::string &unit)
{
    std::size_t i = 0;
    while (i < token.size()
           && (std::isdigit(static_cast<unsigned char>(token[i]))
               || token[i] == '.' || token[i] == '-')) {
        ++i;
    }
    const auto number = parseFinite(std::string_view(token).substr(0, i));
    if (!number.ok())
        return false;
    value = *number;
    unit = token.substr(i);
    return true;
}

Result<bool>
parseBool(const std::string &token)
{
    if (token == "true" || token == "1" || token == "yes")
        return true;
    if (token == "false" || token == "0" || token == "no")
        return false;
    return errorf(ErrorCode::ParseError, "'%s' is not a boolean",
                  token.c_str());
}

Result<std::string>
parseWord(const std::string &token)
{
    return token;
}

/** A size the app allocates on the device, so no larger than its HBM:
 *  a bigger copy would run for hours in 4 MiB chunks. */
Result<Bytes>
parseDeviceSize(const std::string &token)
{
    auto bytes = parseSize(token);
    if (bytes.ok() && *bytes > calib::kHbmCapacity)
        return errorf(ErrorCode::ParseError,
                      "'%s' exceeds the device's %s of HBM",
                      token.c_str(),
                      formatBytes(calib::kHbmCapacity).c_str());
    return bytes;
}

} // namespace

Result<Bytes>
parseSize(const std::string &token)
{
    double value = 0.0;
    std::string unit;
    if (!splitNumberUnit(token, value, unit) || value < 0.0)
        return errorf(ErrorCode::ParseError,
                      "'%s' is not a size literal", token.c_str());
    double scale = 1.0;
    if (unit == "KiB" || unit == "K")
        scale = 1024.0;
    else if (unit == "MiB" || unit == "M")
        scale = 1024.0 * 1024.0;
    else if (unit == "GiB" || unit == "G")
        scale = 1024.0 * 1024.0 * 1024.0;
    else if (!unit.empty() && unit != "B")
        return errorf(ErrorCode::ParseError,
                      "unknown size unit '%s' in '%s' (use B/KiB/MiB/GiB)",
                      unit.c_str(), token.c_str());
    // Converting a double at or past 2^64 to Bytes is undefined.
    if (value * scale >= 0x1p64)
        return errorf(ErrorCode::ParseError,
                      "'%s' does not fit 64 bits of bytes", token.c_str());
    return static_cast<Bytes>(value * scale);
}

Result<SimTime>
parseDuration(const std::string &token)
{
    double value = 0.0;
    std::string unit;
    if (!splitNumberUnit(token, value, unit) || value < 0.0)
        return errorf(ErrorCode::ParseError,
                      "'%s' is not a duration literal", token.c_str());
    // Picoseconds per unit.
    double scale = 0.0;
    if (unit == "ns")
        scale = 1e3;
    else if (unit == "us")
        scale = 1e6;
    else if (unit == "ms")
        scale = 1e9;
    else if (unit == "s")
        scale = 1e12;
    else
        return errorf(ErrorCode::ParseError,
                      "unknown time unit '%s' in '%s' (use ns/us/ms/s)",
                      unit.c_str(), token.c_str());
    // Converting a double at or past 2^63 to SimTime is undefined.
    if (value * scale >= 0x1p63)
        return errorf(ErrorCode::ParseError,
                      "'%s' does not fit 64 bits of picoseconds",
                      token.c_str());
    return static_cast<SimTime>(value * scale);
}

Result<AppSpec>
parseSpecText(const std::string &text)
{
    AppSpec spec;
    spec.suite = "custom";

    std::istringstream lines(text);
    std::string line;
    int lineno = 0;
    int total_launches = 0;
    while (std::getline(lines, line)) {
        ++lineno;
        // Strip comments.
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);

        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key))
            continue;  // blank line

        // Read the line's fields left to right.  The first missing or
        // bad field is the line's error; every later read is a no-op.
        Status bad;
        const auto field = [&](auto &out, auto parse, const char *what,
                               bool optional = false) {
            std::string token;
            if (!bad.ok() || !(ls >> token)) {
                if (bad.ok() && !optional)
                    bad = errorf(ErrorCode::ParseError,
                                 "missing %s for '%s'", what,
                                 key.c_str());
                return;
            }
            const Status st = store(out, parse(token));
            if (!st.ok())
                bad = errorf(ErrorCode::ParseError,
                             "bad %s for '%s': %s", what, key.c_str(),
                             st.message().c_str());
        };
        // The phases' launch counts sum to at most the budget.
        const auto launches = [&total_launches](const std::string &t)
            -> Result<int> {
            const auto n = parseInt(t, 1);
            if (!n.ok())
                return n;
            if (*n > kSpecLaunchBudget - total_launches)
                return errorf(ErrorCode::ParseError,
                              "'%s' brings the spec's launches past %d",
                              t.c_str(), kSpecLaunchBudget);
            total_launches += *n;
            return n;
        };

        if (key == "name") {
            field(spec.name, parseWord, "name");
        } else if (key == "suite") {
            field(spec.suite, parseWord, "suite name");
        } else if (key == "pinned_host") {
            field(spec.pinned_host, parseBool, "boolean");
        } else if (key == "input") {
            field(spec.inputs.emplace_back(), parseDeviceSize, "size");
        } else if (key == "output") {
            field(spec.outputs.emplace_back(), parseDeviceSize, "size");
        } else if (key == "d2d") {
            field(spec.d2d_copies.emplace_back(), parseDeviceSize,
                  "size");
        } else if (key == "scratch") {
            field(spec.scratch, parseDeviceSize, "size");
        } else if (key == "uvm_touch") {
            field(spec.uvm_touch_override, parseSize, "size");
        } else if (key == "uvm_capable") {
            field(spec.uvm_capable, parseBool, "boolean");
        } else if (key == "phase") {
            // phase <kernel> <launches> <ket> [jitter] [d2h] [module]
            KernelPhase &phase = spec.phases.emplace_back();
            field(phase.kernel, parseWord, "kernel name");
            field(phase.launches, launches, "launch count");
            field(phase.ket, parseDuration, "kernel time");
            field(phase.jitter_sigma, parseFinite, "jitter", true);
            field(phase.d2h_per_iter, parseDeviceSize, "d2h size",
                  true);
            field(phase.module_bytes, parseSize, "module size", true);
        } else if (key == "rphase") {
            // rphase <kernel> <launches> <gflops> <mem> [threads]
            KernelPhase &phase = spec.phases.emplace_back();
            phase.ket = 0;  // roofline-derived
            field(phase.kernel, parseWord, "kernel name");
            field(phase.launches, launches, "launch count");
            field(
                phase.gflops,
                [](const std::string &t) {
                    return parseFiniteIf(
                        t, [](double v) { return v >= 0.0; },
                        "non-negative");
                },
                "GFLOP count");
            field(phase.mem_bytes, parseSize, "HBM byte count");
            // The kernel's grid, threads / 256 blocks, is an int.
            field(
                phase.threads,
                [](const std::string &t) {
                    return parseInt<std::int64_t>(
                        t, 1,
                        std::int64_t{256}
                            * std::numeric_limits<int>::max());
                },
                "thread count", true);
        } else {
            return errorf(ErrorCode::ParseError,
                          "line %d: unknown key '%s'", lineno,
                          key.c_str());
        }
        std::string extra;
        if (bad.ok() && ls >> extra)
            bad = errorf(ErrorCode::ParseError,
                         "unexpected '%s' after the '%s' fields",
                         extra.c_str(), key.c_str());
        if (!bad.ok())
            return errorf(ErrorCode::ParseError, "line %d: %s", lineno,
                          bad.message().c_str());
    }

    if (spec.name.empty())
        return errorf(ErrorCode::ParseError, "spec is missing 'name'");
    if (spec.phases.empty())
        return errorf(ErrorCode::ParseError, "spec '%s' has no phases",
                      spec.name.c_str());
    return spec;
}

Result<AppSpec>
loadSpecFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return errorf(ErrorCode::IoError,
                      "cannot open spec file '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
        return errorf(ErrorCode::IoError,
                      "failed reading spec file '%s'", path.c_str());
    return parseSpecText(buf.str());
}

} // namespace hcc::workloads
