#include "workloads/spec_file.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/log.hpp"
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

/** A finite floating-point field of spec line @p lineno. */
double
finiteField(const std::string &token, const char *what, int lineno)
{
    const auto v = parseFinite(token);
    if (!v.ok())
        fatal("line %d: bad %s: %s", lineno, what,
              v.status().message().c_str());
    return *v;
}

bool
parseBool(const std::string &token, bool &out)
{
    if (token == "true" || token == "1" || token == "yes") {
        out = true;
        return true;
    }
    if (token == "false" || token == "0" || token == "no") {
        out = false;
        return true;
    }
    return false;
}

} // namespace

Bytes
parseSize(const std::string &token)
{
    double value = 0.0;
    std::string unit;
    if (!splitNumberUnit(token, value, unit) || value < 0.0)
        fatal("bad size literal '%s'", token.c_str());
    if (unit.empty() || unit == "B")
        return static_cast<Bytes>(value);
    if (unit == "KiB" || unit == "K")
        return size::kib(value);
    if (unit == "MiB" || unit == "M")
        return size::mib(value);
    if (unit == "GiB" || unit == "G")
        return size::gib(value);
    fatal("unknown size unit '%s' in '%s'", unit.c_str(),
          token.c_str());
}

SimTime
parseDuration(const std::string &token)
{
    double value = 0.0;
    std::string unit;
    if (!splitNumberUnit(token, value, unit) || value < 0.0)
        fatal("bad duration literal '%s'", token.c_str());
    if (unit == "ns")
        return time::ns(value);
    if (unit == "us")
        return time::us(value);
    if (unit == "ms")
        return time::ms(value);
    if (unit == "s")
        return time::sec(value);
    fatal("unknown time unit '%s' in '%s' (use ns/us/ms/s)",
          unit.c_str(), token.c_str());
}

namespace {

/**
 * Throwing parse body: fatal() doubles as the parse-abort mechanism
 * so the deeply nested literal parsers (parseSize, parseDuration)
 * need no error plumbing.  The public surface converts the throw to
 * a typed Status — callers never see the exception.
 */
AppSpec
parseSpecTextImpl(const std::string &text)
{
    AppSpec spec;
    spec.suite = "custom";

    std::istringstream lines(text);
    std::string line;
    int lineno = 0;
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

        auto need = [&](const char *what) {
            std::string v;
            if (!(ls >> v)) {
                fatal("line %d: '%s' needs %s", lineno, key.c_str(),
                      what);
            }
            return v;
        };

        if (key == "name") {
            spec.name = need("a name");
        } else if (key == "suite") {
            spec.suite = need("a suite name");
        } else if (key == "pinned_host") {
            if (!parseBool(need("true/false"), spec.pinned_host))
                fatal("line %d: bad boolean", lineno);
        } else if (key == "input") {
            spec.inputs.push_back(parseSize(need("a size")));
        } else if (key == "output") {
            spec.outputs.push_back(parseSize(need("a size")));
        } else if (key == "d2d") {
            spec.d2d_copies.push_back(parseSize(need("a size")));
        } else if (key == "scratch") {
            spec.scratch = parseSize(need("a size"));
        } else if (key == "uvm_touch") {
            spec.uvm_touch_override = parseSize(need("a size"));
        } else if (key == "uvm_capable") {
            if (!parseBool(need("true/false"), spec.uvm_capable))
                fatal("line %d: bad boolean", lineno);
        } else if (key == "phase") {
            KernelPhase phase;
            phase.kernel = need("a kernel name");
            try {
                phase.launches = std::stoi(need("a launch count"));
            } catch (...) {
                fatal("line %d: bad launch count", lineno);
            }
            if (phase.launches <= 0)
                fatal("line %d: launches must be positive", lineno);
            phase.ket = parseDuration(need("a kernel time"));
            std::string tok;
            if (ls >> tok)
                phase.jitter_sigma = finiteField(tok, "jitter", lineno);
            if (ls >> tok)
                phase.d2h_per_iter = parseSize(tok);
            if (ls >> tok)
                phase.module_bytes = parseSize(tok);
            spec.phases.push_back(std::move(phase));
        } else if (key == "rphase") {
            // rphase <kernel> <launches> <gflops> <mem> [threads]
            KernelPhase phase;
            phase.kernel = need("a kernel name");
            try {
                phase.launches = std::stoi(need("a launch count"));
            } catch (...) {
                fatal("line %d: bad rphase numbers", lineno);
            }
            phase.gflops =
                finiteField(need("a GFLOP count"), "GFLOP count", lineno);
            if (phase.launches <= 0 || phase.gflops < 0.0)
                fatal("line %d: bad rphase values", lineno);
            phase.mem_bytes = parseSize(need("an HBM byte count"));
            phase.ket = 0;  // roofline-derived
            std::string tok;
            if (ls >> tok) {
                try {
                    phase.threads = std::stoll(tok);
                } catch (...) {
                    fatal("line %d: bad thread count", lineno);
                }
            }
            spec.phases.push_back(std::move(phase));
        } else {
            fatal("line %d: unknown key '%s'", lineno, key.c_str());
        }
    }

    if (spec.name.empty())
        fatal("spec is missing 'name'");
    if (spec.phases.empty())
        fatal("spec '%s' has no phases", spec.name.c_str());
    return spec;
}

} // namespace

Result<AppSpec>
parseSpecText(const std::string &text)
{
    try {
        return parseSpecTextImpl(text);
    } catch (const FatalError &e) {
        return errorf(ErrorCode::ParseError, "%s", e.what());
    }
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
