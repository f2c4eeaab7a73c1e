#include "cli/options.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <ostream>

#include "common/calibration.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "crypto/calibrate.hpp"
#include "crypto/impl.hpp"
#include "ml/llm.hpp"
#include "obs/stats_io.hpp"
#include "perfmodel/model.hpp"
#include "perfmodel/projector.hpp"
#include "snap/snap.hpp"
#include "trace/compare.hpp"
#include "trace/critpath.hpp"
#include "trace/export.hpp"
#include "workloads/spec.hpp"
#include "workloads/spec_file.hpp"
#include "workloads/workload.hpp"

namespace hcc::cli {

namespace {

// ------------------------------------------------- the flag table

/** Bit for one command in a FlagSpec applicability mask. */
constexpr unsigned
bit(Command c)
{
    return 1u << static_cast<unsigned>(c);
}

/** Commands that run a single workload through the runtime. */
constexpr unsigned kRunLike = bit(Command::Run) | bit(Command::Compare)
    | bit(Command::Trace) | bit(Command::Critical)
    | bit(Command::Project);
constexpr unsigned kEveryCommand = ~0u;

/**
 * Typed-field accessors: a flag shared by several subcommands (--seed,
 * --jobs, --out, ...) resolves the per-command struct it stores into
 * from `options.command`.  Returns null when the flag's field is not
 * hosted by the current command's struct — callers pair these with
 * the applicability mask, which rejects those invocations first.
 */
WorkloadChoice *
workloadOf(Options &o)
{
    switch (o.command) {
      case Command::Run: return &o.run.workload;
      case Command::Compare: return &o.compare.workload;
      case Command::Trace: return &o.trace.workload;
      case Command::Critical: return &o.critical.workload;
      case Command::Project: return &o.project.workload;
      default: return nullptr;
    }
}

SimShape *
simOf(Options &o)
{
    switch (o.command) {
      case Command::Run: return &o.run.sim;
      case Command::Compare: return &o.compare.sim;
      case Command::Trace: return &o.trace.sim;
      case Command::Critical: return &o.critical.sim;
      case Command::Project: return &o.project.sim;
      case Command::Snapshot: return &o.snapshot.sim;
      default: return nullptr;
    }
}

/** The shared flags of sweep/faults/serve; null for other commands. */
GridCommandOptions *
gridOf(Options &o)
{
    switch (o.command) {
      case Command::Sweep: return &o.sweep;
      case Command::Faults: return &o.faults;
      case Command::Serve: return &o.serve;
      default: return nullptr;
    }
}

std::string *
statsOutOf(Options &o)
{
    if (GridCommandOptions *g = gridOf(o))
        return &g->stats_out;
    switch (o.command) {
      case Command::Run: return &o.run.stats_out;
      case Command::Compare: return &o.compare.stats_out;
      case Command::Trace: return &o.trace.stats_out;
      case Command::Critical: return &o.critical.stats_out;
      case Command::CryptoCalibrate:
        return &o.crypto_calibrate.stats_out;
      default: return nullptr;
    }
}

/**
 * One declared flag: where it applies, whether it takes a value, how
 * to store it.  The whole CLI surface is this table — parsing, value
 * validation, "--x does not apply to 'cmd'" rejection and the
 * per-subcommand --help all iterate it, so a new flag (or a new
 * subcommand bit on an old flag) is one entry, not five code paths.
 */
struct FlagSpec
{
    const char *name;
    /** bit() mask of the subcommands accepting this flag. */
    unsigned commands;
    /** Value placeholder for help ("N", "FILE"); null: boolean. */
    const char *value_name;
    const char *help;
    /** Validate + store into the command's typed struct; sets
     *  @p error and returns false on bad values.  @p value is empty
     *  for boolean flags. */
    bool (*apply)(Options &opt, const std::string &value,
                  std::string &error);
};

bool
applyInt(int &out, int min, const char *flag,
         const std::string &value, std::string &error)
{
    try {
        out = std::stoi(value);
    } catch (...) {
        error = std::string("bad ") + flag + " value '" + value + "'";
        return false;
    }
    if (out < min) {
        error = std::string(flag) + " must be >= "
            + std::to_string(min);
        return false;
    }
    return true;
}

/** A finite floating-point flag value (parseFinite). */
bool
applyFinite(double &out, const char *flag, const std::string &value,
            std::string &error)
{
    const auto parsed = parseFinite(value);
    if (!parsed.ok()) {
        error = std::string("bad ") + flag + " value: "
            + parsed.status().message();
        return false;
    }
    out = *parsed;
    return true;
}

/** Run a throwing list parser at the CLI boundary: a FatalError
 *  becomes the flag's error string, naming @p flag, not a process
 *  abort. */
template <typename Fn>
bool
applyParsed(std::string &error, const char *flag, Fn &&fn)
{
    try {
        fn();
        return true;
    } catch (const FatalError &e) {
        error = std::string(flag) + ": " + e.what();
        return false;
    }
}

const FlagSpec kFlags[] = {
    {"--app", kRunLike | bit(Command::Faults) | bit(Command::Snapshot),
     "NAME", "workload name (see `hccsim list`)",
     [](Options &o, const std::string &v, std::string &) {
         if (WorkloadChoice *w = workloadOf(o))
             w->app = v;
         else if (o.command == Command::Faults)
             o.faults.spec.app = v;
         else
             o.snapshot.app = v;
         return true;
     }},
    {"--spec", kRunLike | bit(Command::Sweep), "FILE",
     "user spec file (or sweep grid file)",
     [](Options &o, const std::string &v, std::string &) {
         if (WorkloadChoice *w = workloadOf(o))
             w->spec_file = v;
         else
             o.sweep.spec_file = v;
         return true;
     }},
    {"--cc", kRunLike | bit(Command::Snapshot), nullptr,
     "run inside a TD (CC mode)",
     [](Options &o, const std::string &, std::string &) {
         simOf(o)->cc = true;
         return true;
     }},
    {"--uvm",
     kRunLike | bit(Command::Faults) | bit(Command::Snapshot),
     nullptr,
     "use the managed-memory variant",
     [](Options &o, const std::string &, std::string &) {
         if (SimShape *sim = simOf(o))
             sim->uvm = true;
         else
             o.faults.spec.uvm = true;
         return true;
     }},
    {"--scale",
     kRunLike | bit(Command::Faults) | bit(Command::Snapshot), "X",
     "problem-size multiplier (default 1.0)",
     [](Options &o, const std::string &v, std::string &error) {
         double scale = 0.0;
         if (!applyFinite(scale, "--scale", v, error))
             return false;
         if (scale <= 0.0) {
             error = "--scale must be positive";
             return false;
         }
         if (SimShape *sim = simOf(o))
             sim->scale = scale;
         else
             o.faults.spec.scale = scale;
         return true;
     }},
    {"--seed", kRunLike | bit(Command::Snapshot) | bit(Command::Serve),
     "N", "RNG seed (default 42)",
     [](Options &o, const std::string &v, std::string &error) {
         std::uint64_t seed = 0;
         try {
             seed = std::stoull(v);
         } catch (...) {
             error = "bad --seed value '" + v + "'";
             return false;
         }
         if (SimShape *sim = simOf(o))
             sim->seed = seed;
         else
             o.serve.spec.seed = seed;
         return true;
     }},
    {"--format",
     bit(Command::Trace) | bit(Command::Sweep) | bit(Command::Faults)
         | bit(Command::Serve),
     "json|csv", "trace/results format (default json)",
     [](Options &o, const std::string &v, std::string &error) {
         OutputFormat format = OutputFormat::Json;
         if (v == "csv")
             format = OutputFormat::Csv;
         else if (v != "json") {
             error = "--format must be json or csv";
             return false;
         }
         if (GridCommandOptions *g = gridOf(o))
             g->format = format;
         else
             o.trace.format = format;
         return true;
     }},
    {"--crypto-workers",
     kRunLike | bit(Command::Sweep) | bit(Command::Faults)
         | bit(Command::Snapshot) | bit(Command::Serve),
     "N",
     "parallel encryption threads (CC)",
     [](Options &o, const std::string &v, std::string &error) {
         int n = 0;
         if (!applyInt(n, 1, "--crypto-workers", v, error))
             return false;
         if (SimShape *sim = simOf(o))
             sim->crypto_workers = n;
         else if (o.command == Command::Sweep)
             o.sweep.grid.crypto_workers = n;
         else if (o.command == Command::Faults)
             o.faults.spec.crypto_workers = n;
         else
             o.serve.spec.crypto_workers = n;
         return true;
     }},
    {"--tee-io",
     kRunLike | bit(Command::Sweep) | bit(Command::Faults)
         | bit(Command::Snapshot) | bit(Command::Serve),
     nullptr, "model the TEE-IO hardware path (CC)",
     [](Options &o, const std::string &, std::string &) {
         if (SimShape *sim = simOf(o))
             sim->tee_io = true;
         else if (o.command == Command::Sweep)
             o.sweep.grid.tee_io = true;
         else if (o.command == Command::Faults)
             o.faults.spec.tee_io = true;
         else
             o.serve.spec.tee_io = true;
         return true;
     }},
    {"--overlap",
     kRunLike | bit(Command::Sweep) | bit(Command::Faults)
         | bit(Command::Snapshot) | bit(Command::Serve),
     "MODE",
     "channel overlap tier: none|double-buffer|speculative "
     "(sweep/faults/serve: comma list or \"all\", gridded as an axis)",
     [](Options &o, const std::string &v, std::string &error) {
         if (o.command == Command::Sweep
             || o.command == Command::Faults
             || o.command == Command::Serve) {
             return applyParsed(error, "--overlap", [&] {
                 auto list = sweep::parseOverlapList(v);
                 if (o.command == Command::Sweep)
                     o.sweep.grid.overlaps = std::move(list);
                 else if (o.command == Command::Faults)
                     o.faults.spec.overlaps = std::move(list);
                 else
                     o.serve.spec.overlaps = std::move(list);
             });
         }
         const auto mode = tee::parseOverlapMode(v);
         if (!mode) {
             error = "--overlap '" + v
                 + "' is not a single mode "
                   "(none|double-buffer|speculative; only "
                   "sweep/faults/serve grid a list)";
             return false;
         }
         simOf(o)->overlap = *mode;
         return true;
     }},
    {"--faults",
     bit(Command::Run) | bit(Command::Compare) | bit(Command::Trace)
         | bit(Command::Critical),
     "SITE=RATE,...",
     "inject faults, e.g. channel.tag_mismatch=0.05",
     [](Options &o, const std::string &v, std::string &error) {
         const auto parsed = fault::parseFaultSpec(v);
         if (!parsed.ok()) {
             error = "bad --faults value: "
                 + parsed.status().toString();
             return false;
         }
         simOf(o)->faults = parsed.value();
         return true;
     }},
    {"--sites", bit(Command::Faults), "S1,S2|all",
     "fault sites to campaign over (default all)",
     [](Options &o, const std::string &v, std::string &error) {
         auto &sites = o.faults.spec.sites;
         sites.clear();
         if (v == "all") {
             sites.assign(fault::allSites().begin(),
                          fault::allSites().end());
             return true;
         }
         for (const auto &name : splitList(v)) {
             const auto site = fault::parseSite(name);
             if (!site) {
                 error = "bad --sites value '" + name + "'";
                 return false;
             }
             sites.push_back(*site);
         }
         if (sites.empty()) {
             error = "empty --sites list";
             return false;
         }
         return true;
     }},
    {"--rates", bit(Command::Faults), "R1,R2",
     "injection rates in (0,1] (default 0.01)",
     [](Options &o, const std::string &v, std::string &error) {
         const auto items = splitList(v);
         if (items.empty()) {
             error = "empty --rates list";
             return false;
         }
         std::vector<double> rates;
         for (const auto &item : items) {
             double r = 0.0;
             if (!applyFinite(r, "--rates", item, error))
                 return false;
             if (r <= 0.0 || r > 1.0) {
                 error = "--rates values must be in (0, 1]";
                 return false;
             }
             rates.push_back(r);
         }
         o.faults.spec.rates = std::move(rates);
         return true;
     }},
    {"--stats-out",
     bit(Command::Run) | bit(Command::Compare) | bit(Command::Trace)
         | bit(Command::Critical) | bit(Command::Sweep)
         | bit(Command::Faults) | bit(Command::Serve)
         | bit(Command::CryptoCalibrate),
     "FILE", "write the stats registry as JSON",
     [](Options &o, const std::string &v, std::string &) {
         *statsOutOf(o) = v;
         return true;
     }},
    {"--trace-out", bit(Command::Trace), "FILE",
     "write the trace to a file instead of stdout",
     [](Options &o, const std::string &v, std::string &) {
         o.trace.trace_out = v;
         return true;
     }},
    {"--top", bit(Command::Critical), "N",
     "rows in the contributor/slack tables (default 10)",
     [](Options &o, const std::string &v, std::string &error) {
         return applyInt(o.critical.top, 1, "--top", v, error);
     }},
    {"--critical-out", bit(Command::Critical), "FILE",
     "write the full critical-path JSON (segments + slack)",
     [](Options &o, const std::string &v, std::string &) {
         o.critical.critical_out = v;
         return true;
     }},
    {"--out",
     bit(Command::Sweep) | bit(Command::Faults) | bit(Command::Serve)
         | bit(Command::Snapshot),
     "FILE",
     "per-cell results (CSV/JSON), or the snapshot output file",
     [](Options &o, const std::string &v, std::string &) {
         GridCommandOptions *g = gridOf(o);
         (g ? g->out_file : o.snapshot.out_file) = v;
         return true;
     }},
    {"--apps", bit(Command::Sweep), "A,B|all",
     "apps to grid over (or --spec GRIDFILE)",
     [](Options &o, const std::string &v, std::string &error) {
         return applyParsed(error, "--apps", [&] {
             o.sweep.grid.apps = sweep::parseAppList(v);
         });
     }},
    {"--cc-modes", bit(Command::Sweep) | bit(Command::Serve), "M",
     "on|off|both (default both)",
     [](Options &o, const std::string &v, std::string &error) {
         return applyParsed(error, "--cc-modes", [&] {
             auto modes = sweep::parseModeList(v);
             if (o.command == Command::Sweep)
                 o.sweep.grid.cc_modes = std::move(modes);
             else
                 o.serve.spec.cc_modes = std::move(modes);
         });
     }},
    {"--uvm-modes", bit(Command::Sweep), "M",
     "on|off|both (default off)",
     [](Options &o, const std::string &v, std::string &error) {
         return applyParsed(error, "--uvm-modes", [&] {
             o.sweep.grid.uvm_modes = sweep::parseModeList(v);
         });
     }},
    {"--scales", bit(Command::Sweep), "X,Y",
     "problem-size multipliers (default 1)",
     [](Options &o, const std::string &v, std::string &error) {
         return applyParsed(error, "--scales", [&] {
             o.sweep.grid.scales = sweep::parseScaleList(v);
         });
     }},
    {"--seeds", bit(Command::Sweep) | bit(Command::Faults), "N,M",
     "RNG seeds (default 42)",
     [](Options &o, const std::string &v, std::string &error) {
         return applyParsed(error, "--seeds", [&] {
             auto seeds = sweep::parseSeedList(v);
             if (o.command == Command::Sweep)
                 o.sweep.grid.seeds = std::move(seeds);
             else
                 o.faults.spec.seeds = std::move(seeds);
         });
     }},
    {"--jobs",
     bit(Command::Compare) | bit(Command::Sweep) | bit(Command::Faults)
         | bit(Command::Serve),
     "N", "worker threads (default: all cores)",
     [](Options &o, const std::string &v, std::string &error) {
         GridCommandOptions *g = gridOf(o);
         return applyInt(g ? g->jobs : o.compare.jobs, 1, "--jobs", v,
                         error);
     }},
    {"--fork-point",
     bit(Command::Sweep) | bit(Command::Faults)
         | bit(Command::Snapshot),
     "none|auto|F[/F..]",
     "prefix/suffix cut path for fork/replay; '/'-chained cuts build "
     "a snapshot tree (see docs/SNAPSHOT.md)",
     [](Options &o, const std::string &v, std::string &error) {
         const auto parsed = snap::parseForkPoint(v);
         if (!parsed.ok()) {
             error = "bad --fork-point value: "
                 + parsed.status().message();
             return false;
         }
         if (o.command == Command::Sweep)
             o.sweep.snapshot.fork_point = parsed.value();
         else if (o.command == Command::Faults)
             o.faults.spec.fork_point = parsed.value();
         else
             o.snapshot.fork_point = parsed.value();
         return true;
     }},
    {"--snapshot-budget", bit(Command::Sweep) | bit(Command::Faults),
     "MIB",
     "resident snapshot ceiling per fork group in MiB "
     "(0 = unlimited; default 512)",
     [](Options &o, const std::string &v, std::string &error) {
         int mib = 0;
         if (!applyInt(mib, 0, "--snapshot-budget", v, error))
             return false;
         const auto bytes = static_cast<std::size_t>(mib) << 20;
         if (o.command == Command::Sweep)
             o.sweep.snapshot.budget_bytes = bytes;
         else
             o.faults.spec.snapshot_budget_bytes = bytes;
         return true;
     }},
    {"--no-snapshot", bit(Command::Sweep) | bit(Command::Faults),
     nullptr,
     "run split cells cold instead of snapshot-forking them",
     [](Options &o, const std::string &, std::string &) {
         if (o.command == Command::Sweep)
             o.sweep.snapshot.no_snapshot = true;
         else
             o.faults.spec.no_snapshot = true;
         return true;
     }},
    {"--loads", bit(Command::Serve), "R1,R2",
     "offered loads in requests/s (default 8,24,48,96)",
     [](Options &o, const std::string &v, std::string &error) {
         return applyParsed(error, "--loads", [&] {
             o.serve.spec.loads = sweep::parseScaleList(v);
         });
     }},
    {"--requests", bit(Command::Serve), "N",
     "requests per arrival trace (default 160)",
     [](Options &o, const std::string &v, std::string &error) {
         return applyInt(o.serve.spec.requests, 1, "--requests", v,
                         error);
     }},
    {"--max-batch", bit(Command::Serve), "N",
     "continuous-batching admission ceiling (default 32)",
     [](Options &o, const std::string &v, std::string &error) {
         return applyInt(o.serve.spec.max_batch, 1, "--max-batch", v,
                         error);
     }},
    {"--prompt-len", bit(Command::Serve), "N",
     "mean prompt tokens per request (default 512)",
     [](Options &o, const std::string &v, std::string &error) {
         return applyInt(o.serve.spec.prompt_len, 1, "--prompt-len",
                         v, error);
     }},
    {"--gen-len", bit(Command::Serve), "N",
     "mean generated tokens per request (default 64)",
     [](Options &o, const std::string &v, std::string &error) {
         return applyInt(o.serve.spec.gen_len, 1, "--gen-len", v,
                         error);
     }},
    {"--kv-token-bytes", bit(Command::Serve), "N",
     "KV-cache bytes per token per session (default 32768)",
     [](Options &o, const std::string &v, std::string &error) {
         int n = 0;
         if (!applyInt(n, 1, "--kv-token-bytes", v, error))
             return false;
         o.serve.spec.kv_bytes_per_token = static_cast<Bytes>(n);
         return true;
     }},
    {"--kv-budget", bit(Command::Serve), "MIB",
     "aggregate KV budget in MiB; over it young sessions are "
     "preempted (default 256)",
     [](Options &o, const std::string &v, std::string &error) {
         int mib = 0;
         if (!applyInt(mib, 1, "--kv-budget", v, error))
             return false;
         o.serve.spec.kv_budget_bytes = static_cast<Bytes>(mib) << 20;
         return true;
     }},
    {"--bursts", bit(Command::Serve), "B:E:M,...",
     "arrival burst windows over the request-index fraction, e.g. "
     "0.5:0.8:4 (default: plain Poisson)",
     [](Options &o, const std::string &v, std::string &error) {
         return applyParsed(error, "--bursts", [&] {
             o.serve.spec.bursts = serve::parseBurstList(v);
         });
     }},
    {"--backend", bit(Command::Serve), "NAME",
     "serving framework model: hf|vllm (default vllm)",
     [](Options &o, const std::string &v, std::string &error) {
         if (v == "hf")
             o.serve.spec.backend = ml::LlmBackend::HuggingFace;
         else if (v == "vllm")
             o.serve.spec.backend = ml::LlmBackend::Vllm;
         else {
             error = "bad --backend value '" + v + "' (hf|vllm)";
             return false;
         }
         return true;
     }},
    {"--quant", bit(Command::Serve), "NAME",
     "weight quantization: bf16|awq4 (default bf16)",
     [](Options &o, const std::string &v, std::string &error) {
         if (v == "bf16")
             o.serve.spec.quant = ml::LlmQuant::Bf16;
         else if (v == "awq4")
             o.serve.spec.quant = ml::LlmQuant::Awq4;
         else {
             error = "bad --quant value '" + v + "' (bf16|awq4)";
             return false;
         }
         return true;
     }},
    {"--inspect", bit(Command::Snapshot), "FILE",
     "print a snapshot file's meta and section table",
     [](Options &o, const std::string &v, std::string &) {
         o.snapshot.inspect = v;
         return true;
     }},
    {"--log-level", kEveryCommand, "LEVEL",
     "debug|info|warn|error|silent",
     [](Options &o, const std::string &v, std::string &error) {
         if (!parseLogLevel(v)) {
             error = "bad --log-level value '" + v
                 + "' (debug|info|warn|error|silent)";
             return false;
         }
         o.log_level = v;
         return true;
     }},
    {"--crypto-impl", kEveryCommand, "NAME",
     "functional crypto: scalar|ttable|aesni",
     [](Options &o, const std::string &v, std::string &error) {
         if (!crypto::parseCryptoImpl(v)) {
             error = "bad --crypto-impl value '" + v
                 + "' (scalar|ttable|aesni)";
             return false;
         }
         o.crypto_impl = v;
         return true;
     }},
    {"--tolerance", bit(Command::StatsDiff), "X",
     "relative tolerance before a change is drift",
     [](Options &o, const std::string &v, std::string &error) {
         if (!applyFinite(o.stats_diff.tolerance, "--tolerance", v,
                          error))
             return false;
         if (o.stats_diff.tolerance < 0.0) {
             error = "--tolerance must be >= 0";
             return false;
         }
         return true;
     }},
    {"--ms", bit(Command::CryptoCalibrate), "N",
     "wall-clock budget per algorithm in ms (default 50)",
     [](Options &o, const std::string &v, std::string &error) {
         if (!applyFinite(o.crypto_calibrate.budget_ms, "--ms", v,
                          error))
             return false;
         if (o.crypto_calibrate.budget_ms <= 0.0) {
             error = "--ms must be positive";
             return false;
         }
         return true;
     }},
};

const FlagSpec *
findFlag(const std::string &name)
{
    for (const FlagSpec &flag : kFlags)
        if (name == flag.name)
            return &flag;
    return nullptr;
}

/** (name, command) pairs; Help is resolved before the table runs. */
const std::pair<const char *, Command> kCommands[] = {
    {"list", Command::List},
    {"run", Command::Run},
    {"compare", Command::Compare},
    {"trace", Command::Trace},
    {"critical", Command::Critical},
    {"project", Command::Project},
    {"sweep", Command::Sweep},
    {"faults", Command::Faults},
    {"serve", Command::Serve},
    {"stats-diff", Command::StatsDiff},
    {"crypto-calibrate", Command::CryptoCalibrate},
    {"snapshot", Command::Snapshot},
};

} // namespace

const char *
commandName(Command command)
{
    for (const auto &[name, cmd] : kCommands)
        if (cmd == command)
            return name;
    return "help";
}

std::string
commandHelp(Command command)
{
    std::string out = std::string("usage: hccsim ")
        + commandName(command);
    if (command == Command::StatsDiff)
        out += " BASELINE CURRENT";
    out += " [options]\n\noptions:\n";
    for (const FlagSpec &flag : kFlags) {
        if (!(flag.commands & bit(command)))
            continue;
        std::string left = std::string("  ") + flag.name;
        if (flag.value_name)
            left += std::string(" ") + flag.value_name;
        if (left.size() < 26)
            left.resize(26, ' ');
        else
            left += ' ';
        out += left + flag.help + "\n";
    }
    return out;
}

std::string
usage()
{
    return
        "hccsim — CC-on-GPU overhead simulator (ISPASS'25 repro)\n"
        "\n"
        "usage:\n"
        "  hccsim list                      list workloads\n"
        "  hccsim run --app NAME [opts]     run one workload\n"
        "  hccsim compare --app NAME [opts] run base and CC, diff\n"
        "  hccsim trace --app NAME [opts]   dump the event trace\n"
        "  hccsim critical --app NAME [opts]\n"
        "                                   critical-path report +\n"
        "                                   bottleneck label (--top N,\n"
        "                                   --critical-out FILE)\n"
        "  hccsim project --app NAME [opts] predict the CC slowdown\n"
        "                                   from a base run\n"
        "  hccsim sweep --apps A,B|all [opts]\n"
        "                                   run a grid of simulations\n"
        "                                   in parallel (see --jobs)\n"
        "  hccsim faults --app NAME [opts]  fault-injection campaign:\n"
        "                                   a (site, rate, seed) grid\n"
        "                                   vs unfaulted baselines\n"
        "  hccsim serve [opts]              open-loop LLM serving:\n"
        "                                   TTFT/TPOT percentiles and\n"
        "                                   goodput vs offered load,\n"
        "                                   native vs CC (--loads,\n"
        "                                   --max-batch, --kv-budget)\n"
        "  hccsim stats-diff BASE CURRENT   diff two --stats-out dumps;\n"
        "                                   exit 1 if stats drifted\n"
        "  hccsim crypto-calibrate [opts]   measure this host's\n"
        "                                   functional crypto GB/s\n"
        "  hccsim snapshot --app NAME --out FILE\n"
        "                                   capture a fork-point\n"
        "                                   snapshot (--inspect FILE\n"
        "                                   prints one)\n"
        "\n"
        "`hccsim COMMAND --help` lists the options of one command.\n"
        "Common options:\n"
        "  --cc             run inside a TD (CC mode)\n"
        "  --uvm            use the managed-memory variant\n"
        "  --scale X        problem-size multiplier (default 1.0)\n"
        "  --seed N         RNG seed (default 42)\n"
        "  --faults SITE=RATE,...\n"
        "                   inject deterministic faults on the CC\n"
        "                   stack (run/compare/trace); `hccsim\n"
        "                   faults` sweeps sites x rates x seeds\n"
        "  --overlap M      CC copy-pipeline tier: none|double-\n"
        "                   buffer|speculative (sweep/faults/serve\n"
        "                   grid a comma list or `all`; see\n"
        "                   docs/OVERLAP.md)\n"
        "  --jobs N         worker threads (compare/sweep/faults/\n"
        "                   serve)\n"
        "  --fork-point P   none|auto|FRACTION, '/'-chainable\n"
        "                   (e.g. auto/0.95): where sweep/faults cut\n"
        "                   cells into a shared prefix, optional\n"
        "                   snapshot-tree segments and a replayed\n"
        "                   suffix (docs/SNAPSHOT.md)\n"
        "  --stats-out FILE write the stats registry as JSON\n"
        "  --log-level L    debug|info|warn|error|silent\n";
}

std::optional<Options>
parseArgs(const std::vector<std::string> &args, std::string &error)
{
    Options opt;
    if (args.empty()) {
        error = "missing command";
        return std::nullopt;
    }
    const std::string &cmd = args[0];
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        opt.command = Command::Help;
        return opt;
    }
    bool known = false;
    for (const auto &[name, command] : kCommands) {
        if (cmd == name) {
            opt.command = command;
            known = true;
            break;
        }
    }
    if (!known) {
        error = "unknown command '" + cmd + "'";
        return std::nullopt;
    }

    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--help" || a == "-h") {
            // Per-subcommand help short-circuits validation: `hccsim
            // faults --help` must work without --app.
            opt.show_help = true;
            return opt;
        }
        const FlagSpec *flag = findFlag(a);
        if (!flag) {
            if (opt.command == Command::StatsDiff && !a.empty()
                && a[0] != '-') {
                if (opt.stats_diff.baseline.empty()) {
                    opt.stats_diff.baseline = a;
                } else if (opt.stats_diff.current.empty()) {
                    opt.stats_diff.current = a;
                } else {
                    error = "unexpected argument '" + a + "'";
                    return std::nullopt;
                }
                continue;
            }
            error = "unknown option '" + a + "'";
            return std::nullopt;
        }
        if (!(flag->commands & bit(opt.command))) {
            error = std::string(flag->name) + " does not apply to '"
                + commandName(opt.command) + "'";
            return std::nullopt;
        }
        std::string value;
        if (flag->value_name) {
            if (i + 1 >= args.size()) {
                error = std::string(flag->name) + " requires a value";
                return std::nullopt;
            }
            value = args[++i];
        }
        if (!flag->apply(opt, value, error))
            return std::nullopt;
    }

    switch (opt.command) {
      case Command::StatsDiff:
        if (opt.stats_diff.baseline.empty()
            || opt.stats_diff.current.empty()) {
            error = "stats-diff requires BASELINE and CURRENT files";
            return std::nullopt;
        }
        break;
      case Command::Sweep:
        if (opt.sweep.grid.apps.empty()
            && opt.sweep.spec_file.empty()) {
            error = "sweep requires --apps or --spec GRIDFILE";
            return std::nullopt;
        }
        if (!opt.sweep.grid.apps.empty()
            && !opt.sweep.spec_file.empty()) {
            error = "--apps and --spec are mutually exclusive";
            return std::nullopt;
        }
        break;
      case Command::Faults:
        if (opt.faults.spec.app.empty()) {
            error = "faults requires --app";
            return std::nullopt;
        }
        break;
      case Command::Snapshot:
        if (opt.snapshot.app.empty() && opt.snapshot.inspect.empty()) {
            error = "snapshot requires --app (capture) or "
                    "--inspect FILE";
            return std::nullopt;
        }
        if (!opt.snapshot.app.empty()
            && !opt.snapshot.inspect.empty()) {
            error = "--app and --inspect are mutually exclusive";
            return std::nullopt;
        }
        if (!opt.snapshot.app.empty()
            && opt.snapshot.out_file.empty()) {
            error = "snapshot capture requires --out FILE";
            return std::nullopt;
        }
        break;
      case Command::Run:
      case Command::Compare:
      case Command::Trace:
      case Command::Critical:
      case Command::Project: {
        const WorkloadChoice &w = *workloadOf(opt);
        if (w.app.empty() && w.spec_file.empty()) {
            error = "this command requires --app or --spec";
            return std::nullopt;
        }
        if (!w.app.empty() && !w.spec_file.empty()) {
            error = "--app and --spec are mutually exclusive";
            return std::nullopt;
        }
        break;
      }
      case Command::List:
      case Command::Serve:
      case Command::CryptoCalibrate:
      case Command::Help:
        break;
    }
    return opt;
}

namespace {

workloads::WorkloadResult
runOnce(const WorkloadChoice &workload, const SimShape &sim, bool cc)
{
    rt::SystemConfig sys;
    sys.cc = cc;
    sys.seed = sim.seed;
    sys.channel.crypto_workers = sim.crypto_workers;
    sys.channel.tee_io = sim.tee_io;
    sys.channel.overlap = sim.overlap;
    sys.faults = sim.faults;
    workloads::WorkloadParams params;
    params.uvm = sim.uvm;
    params.scale = sim.scale;
    params.seed = sim.seed;
    if (!workload.spec_file.empty()) {
        auto spec = workloads::loadSpecFile(workload.spec_file);
        if (!spec.ok())
            fatal("%s", spec.status().toString().c_str());
        const workloads::SpecWorkload w(spec.take());
        return workloads::runWorkload(w, sys, params);
    }
    return workloads::runWorkload(workload.app, sys, params);
}

void
printSummary(const workloads::WorkloadResult &res, std::ostream &os)
{
    const auto &m = res.metrics;
    TextTable t(res.name + (res.cc ? " [cc]" : " [base]")
                + (res.uvm ? " [uvm]" : ""));
    t.header({"metric", "value"});
    t.row({"end-to-end", formatTime(m.end_to_end)});
    t.row({"launches", std::to_string(m.launches)});
    t.row({"sum KLO", formatTime(m.sumKlo())});
    t.row({"sum LQT", formatTime(m.sumLqt())});
    t.row({"sum KQT", formatTime(m.sumKqt())});
    t.row({"sum KET", formatTime(m.sumKet())});
    t.row({"copy (h2d/d2h/d2d)",
           formatTime(m.copy_h2d) + " / " + formatTime(m.copy_d2h)
               + " / " + formatTime(m.copy_d2d)});
    t.row({"alloc/free", formatTime(m.alloc_device + m.alloc_host
                                    + m.alloc_managed)
                             + " / " + formatTime(m.free_time)});
    t.row({"tdx hypercalls", std::to_string(res.tdx.hypercalls)});
    if (m.fault_recoveries > 0) {
        t.row({"fault recoveries",
               std::to_string(m.fault_recoveries) + " ("
                   + formatTime(m.fault_time) + ")"});
    }
    t.print(os);
}

/**
 * Write @p fn's output to @p path, checking the stream after both
 * open and write: a full disk or an unwritable path must fail loudly
 * (FatalError -> stderr + non-zero exit), never drop data silently.
 */
template <typename WriteFn>
void
writeFileChecked(const std::string &path, const char *what,
                 WriteFn &&fn)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open %s '%s'", what, path.c_str());
    fn(out);
    out.flush();
    if (!out)
        fatal("failed writing %s '%s'", what, path.c_str());
}

/** Write the registry sections of a finished run to --stats-out.
 *  @p extra_members: pre-rendered top-level JSON (the critical_path
 *  block), passed through to writeStatsJson. */
void
writeStatsFile(const std::string &path,
               const obs::StatsSections &sections,
               bool include_host = false,
               const std::string &extra_members = "")
{
    writeFileChecked(path, "stats file", [&](std::ostream &out) {
        obs::writeStatsJson(out, sections, include_host,
                            extra_members);
    });
}

/** Per-category base-vs-CC critical-path delta (compare). */
void
printCriticalDelta(const trace::CriticalPath &base,
                   const trace::CriticalPath &cc, std::ostream &os)
{
    TextTable t("critical-path delta (base -> cc)");
    t.header({"category", "base", "cc", "delta", "cc share"});
    for (std::size_t c = 0; c < trace::kPathCategoryCount; ++c) {
        const auto cat = static_cast<trace::PathCategory>(c);
        const SimTime b = base.shares[c];
        const SimTime k = cc.shares[c];
        if (b == 0 && k == 0)
            continue;
        std::string delta = k >= b ? "+" : "-";
        delta += formatTime(k >= b ? k - b : b - k);
        const double share = cc.end_to_end > 0
            ? 100.0 * static_cast<double>(k)
                  / static_cast<double>(cc.end_to_end)
            : 0.0;
        t.row({std::string(trace::pathCategoryName(cat)),
               formatTime(b), formatTime(k), delta,
               TextTable::pct(share)});
    }
    t.print(os);
    os << "bottleneck: " << trace::bottleneckName(base.bottleneck)
       << " -> " << trace::bottleneckName(cc.bottleneck) << "\n";
}

/** Fixed-precision double for table cells. */
std::string
formatGbs(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

/** One-decimal rate for the serve summary (tokens/s). */
std::string
formatRate(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
}

/** Milliseconds with one decimal for the sweep wall-clock column. */
std::string
formatMs(double us)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", us / 1000.0);
    return buf;
}

/** The status cell of a grid summary row. */
template <typename Row>
std::string
statusOf(const Row &c)
{
    return c.ok ? "ok" : "FAIL: " + c.error;
}

/**
 * The table every grid command prints: @p row renders one cell, then
 * a "N/M cells ok, wall X ms" line left open for a command-specific
 * tail.  Wall clock is host time.
 */
template <typename Result, typename RowFn>
void
printGridSummary(const std::string &title,
                 std::vector<std::string> header, const Result &r,
                 RowFn &&row, std::ostream &os)
{
    TextTable t(title + " (" + std::to_string(r.cells.size())
                + " cells, --jobs " + std::to_string(r.jobs) + ")");
    t.header(std::move(header));
    for (const auto &c : r.cells)
        t.row(row(c));
    t.print(os);
    os << "\n" << (r.cells.size() - r.failures()) << "/"
       << r.cells.size() << " cells ok, wall " << formatMs(r.wall_us)
       << " ms";
}

/** Human summary of a finished sweep. */
void
printSweepSummary(const sweep::SweepResult &r, std::ostream &os)
{
    printGridSummary(
        "sweep", {"cell", "status", "end-to-end", "wall ms"}, r,
        [](const sweep::CellResult &c) {
            return std::vector<std::string>{
                c.cell.label(), statusOf(c),
                c.ok ? formatTime(c.result.metrics.end_to_end) : "-",
                formatMs(c.wall_us)};
        },
        os);
    char util[32];
    std::snprintf(util, sizeof(util), "%.0f%%",
                  r.pool.utilization(r.wall_us) * 100.0);
    os << ", pool utilization " << util << " (" << r.pool.stolen
       << " steals)\n";
}

/** Fixed-precision slowdown for the campaign table. */
std::string
formatSlowdown(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3fx", v);
    return buf;
}

/** Human summary of a finished fault campaign. */
void
printCampaignSummary(const fault::CampaignResult &r, std::ostream &os)
{
    printGridSummary(
        "fault campaign: " + r.spec.app,
        {"cell", "status", "end-to-end", "slowdown", "injected",
         "recovered"},
        r,
        [&r](const fault::CampaignCellResult &c) {
            return std::vector<std::string>{
                c.cell.label(r.spec), statusOf(c),
                c.ok ? formatTime(c.result.end_to_end) : "-",
                c.ok ? formatSlowdown(c.slowdown) : "-",
                c.ok ? std::to_string(c.injected) : "-",
                c.ok ? std::to_string(c.recovered) : "-"};
        },
        os);
    os << "\n";
    if (r.snapshot_hits > 0)
        os << r.snapshot_hits << " cells forked from snapshots, peak "
           << r.peak_resident_bytes << " resident snapshot bytes\n";
}

/** Human summary of a finished serve sweep: one SLO row per cell. */
void
printServeSummary(const serve::ServeResult &r, std::ostream &os)
{
    printGridSummary(
        "serve: open-loop " + ml::llmBackendName(r.spec.backend) + "/"
            + ml::llmQuantName(r.spec.quant),
        {"cell", "status", "offered tok/s", "goodput tok/s",
         "ttft p95", "tpot p95", "bottleneck"},
        r,
        [](const serve::ServeCellResult &c) {
            const serve::ServePoint &p = c.point;
            return std::vector<std::string>{
                c.cell.label(), statusOf(c),
                c.ok ? formatRate(p.offered_tok_s) : "-",
                c.ok ? formatRate(p.goodput_tok_s) : "-",
                c.ok ? formatTime(p.ttft_p95) : "-",
                c.ok ? formatTime(p.tpot_p95) : "-",
                c.ok ? std::string(trace::bottleneckName(p.bottleneck))
                     : "-"};
        },
        os);
    os << "\n";
}

/** --jobs, or every core when unset. */
int
workers(int jobs)
{
    return jobs > 0 ? jobs : ThreadPool::defaultJobs();
}

/**
 * The tail every grid command shares: summary table, per-cell
 * results file (--out, CSV or JSON), merged stats (--stats-out);
 * exit code 1 when any cell failed.
 */
template <typename Result>
int
finishGrid(const GridCommandOptions &go, const Result &result,
           void (*summary)(const Result &, std::ostream &),
           void (*csv)(const Result &, std::ostream &),
           void (*json)(const Result &, std::ostream &),
           void (*stats)(const Result &, std::ostream &),
           std::ostream &os)
{
    summary(result, os);
    if (!go.out_file.empty()) {
        writeFileChecked(go.out_file, "results file",
                         [&](std::ostream &out) {
                             auto write = go.format == OutputFormat::Csv
                                 ? csv
                                 : json;
                             write(result, out);
                         });
    }
    if (!go.stats_out.empty()) {
        writeFileChecked(go.stats_out, "stats file",
                         [&](std::ostream &out) { stats(result, out); });
    }
    return result.allOk() ? 0 : 1;
}

} // namespace

int
runCli(const Options &opt, std::ostream &os)
{
    if (!opt.log_level.empty()) {
        if (const auto level = parseLogLevel(opt.log_level))
            setLogLevel(*level);
    }
    if (!opt.crypto_impl.empty())
        crypto::setActiveCryptoImpl(
            crypto::parseCryptoImpl(opt.crypto_impl));
    if (opt.show_help) {
        os << (opt.command == Command::Help ? usage()
                                            : commandHelp(opt.command));
        return 0;
    }
    switch (opt.command) {
      case Command::Help:
        os << usage();
        return 0;

      case Command::List: {
        TextTable t("workloads");
        t.header({"name", "suite", "uvm"});
        for (const auto *w :
             workloads::WorkloadRegistry::instance().all()) {
            t.row({w->name(), w->suite(),
                   w->supportsUvm() ? "yes" : "no"});
        }
        t.print(os);
        return 0;
      }

      case Command::Run: {
        const RunOptions &ro = opt.run;
        const auto res = runOnce(ro.workload, ro.sim, ro.sim.cc);
        printSummary(res, os);
        const auto d = perfmodel::decompose(res.trace);
        os << "\nperformance-model decomposition:\n" << d.report();
        os << "\ncritical path: "
           << trace::bottleneckName(res.critical.bottleneck)
           << " (on-path " << formatTime(res.critical.on_path_ps)
           << " of " << formatTime(res.critical.end_to_end)
           << "; see `hccsim critical`)\n";
        if (!ro.stats_out.empty())
            writeStatsFile(
                ro.stats_out, {{"", res.stats.get()}},
                /*include_host=*/false,
                trace::criticalPathJsonMember(res.critical));
        return 0;
      }

      case Command::Compare: {
        const CompareOptions &co = opt.compare;
        // Base and CC are independent simulations: --jobs 2 overlaps
        // them on two workers, and the result order (base first) is
        // fixed by the task index, not by which finishes first.
        workloads::WorkloadResult runs[2];
        std::exception_ptr errors[2];
        runIndexed(2, std::min(workers(co.jobs), 2), [&](std::size_t i) {
            try {
                runs[i] = runOnce(co.workload, co.sim, i == 1);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
        for (const auto &error : errors)
            if (error)
                std::rethrow_exception(error);
        const workloads::WorkloadResult &base = runs[0];
        const workloads::WorkloadResult &cc = runs[1];
        printSummary(base, os);
        os << "\n";
        printSummary(cc, os);
        const double r = static_cast<double>(cc.end_to_end)
            / static_cast<double>(base.end_to_end);
        os << "\nCC slowdown: " << TextTable::ratio(r) << "\n\n"
           << "event-level diff (Sec. VI-B style):\n"
           << trace::compareTraces(base.trace, cc.trace, 5).report()
           << "\n";
        printCriticalDelta(base.critical, cc.critical, os);
        if (!co.stats_out.empty()) {
            writeStatsFile(
                co.stats_out,
                {{"base.", base.stats.get()},
                 {"cc.", cc.stats.get()}},
                /*include_host=*/false,
                "\"critical_path\": {\"base\": "
                    + trace::criticalPathJson(base.critical)
                    + ", \"cc\": "
                    + trace::criticalPathJson(cc.critical) + "}");
        }
        return 0;
      }

      case Command::Trace: {
        const TraceOptions &to = opt.trace;
        const auto res = runOnce(to.workload, to.sim, to.sim.cc);
        const auto writeTrace = [&](std::ostream &out) {
            if (to.format == OutputFormat::Csv)
                trace::exportCsv(res.trace, out);
            else
                trace::exportChromeTrace(res.trace, out,
                                         res.stats.get(),
                                         &res.critical);
        };
        if (!to.trace_out.empty())
            writeFileChecked(to.trace_out, "trace file", writeTrace);
        else
            writeTrace(os);
        if (!to.stats_out.empty())
            writeStatsFile(
                to.stats_out, {{"", res.stats.get()}},
                /*include_host=*/false,
                trace::criticalPathJsonMember(res.critical));
        return 0;
      }

      case Command::Critical: {
        const CriticalOptions &co = opt.critical;
        const auto res = runOnce(co.workload, co.sim, co.sim.cc);
        os << trace::criticalReport(res.critical, res.trace, co.top);
        if (!co.critical_out.empty()) {
            writeFileChecked(
                co.critical_out, "critical-path file",
                [&](std::ostream &out) {
                    trace::writeCriticalJson(res.critical, res.trace,
                                             out);
                });
        }
        if (!co.stats_out.empty())
            writeStatsFile(
                co.stats_out, {{"", res.stats.get()}},
                /*include_host=*/false,
                trace::criticalPathJsonMember(res.critical));
        return 0;
      }

      case Command::Sweep: {
        const SweepOptions &so = opt.sweep;
        sweep::GridSpec grid = so.grid;
        if (!so.spec_file.empty()) {
            auto loaded = sweep::loadGridFile(so.spec_file);
            if (!loaded.ok())
                fatal("%s", loaded.status().toString().c_str());
            grid = loaded.take();
        }
        if (so.snapshot.fork_point)
            grid.fork_point = *so.snapshot.fork_point;
        if (so.snapshot.no_snapshot)
            grid.no_snapshot = true;
        if (so.snapshot.budget_bytes)
            grid.snapshot_budget_bytes = *so.snapshot.budget_bytes;
        return finishGrid(so, sweep::runSweep(grid, workers(so.jobs)),
                          printSweepSummary, sweep::writeCellsCsv,
                          sweep::writeCellsJson, sweep::writeMergedStats,
                          os);
      }

      case Command::Faults: {
        const FaultsOptions &fo = opt.faults;
        fault::CampaignSpec spec = fo.spec;
        if (spec.sites.empty())
            spec.sites.assign(fault::allSites().begin(),
                              fault::allSites().end());
        return finishGrid(
            fo, fault::runFaultCampaign(spec, workers(fo.jobs)),
            printCampaignSummary, fault::writeCampaignCsv,
            fault::writeCampaignJson, fault::writeCampaignStats, os);
      }

      case Command::Serve: {
        const ServeOptions &so = opt.serve;
        return finishGrid(so, serve::runServe(so.spec, workers(so.jobs)),
                          printServeSummary, serve::writeServeCsv,
                          serve::writeServeJson, serve::writeServeStats,
                          os);
      }

      case Command::Project: {
        const ProjectOptions &po = opt.project;
        const auto base = runOnce(po.workload, po.sim, false);
        const auto projection = perfmodel::projectCc(base.trace);
        os << "projecting '" << po.workload.app
           << "' from a base (non-CC) run into CC mode:\n"
           << projection.report();
        const auto actual = runOnce(po.workload, po.sim, true);
        const double actual_slowdown =
            static_cast<double>(actual.end_to_end)
            / static_cast<double>(base.end_to_end);
        os << "actual CC run: " << formatTime(actual.end_to_end)
           << " (" << TextTable::ratio(actual_slowdown) << ")\n";
        // Slack-aware hint: how much device work could still be
        // hidden (PipeLLM-style) before the projection's serial
        // arithmetic becomes the wrong model.
        SimTime max_slack = 0;
        const auto ev = base.trace.events();
        for (std::size_t i = 0; i < base.critical.slack.size(); ++i) {
            const auto kind = ev[i].kind;
            if (kind == trace::EventKind::Kernel
                || kind == trace::EventKind::MemcpyH2D
                || kind == trace::EventKind::MemcpyD2H
                || kind == trace::EventKind::MemcpyD2D)
                max_slack = std::max(max_slack,
                                     base.critical.slack[i]);
        }
        os << "base critical path: "
           << trace::bottleneckName(base.critical.bottleneck)
           << "; largest single-event slack "
           << formatTime(max_slack)
           << " (overlap headroom, see `hccsim critical`)\n";
        // Predicted-vs-achieved overlap mitigation: the analytic CC
        // copy rate of each tier (perfmodel) next to an actual CC
        // run of that tier.  "Recovery" is the fraction of CC
        // overhead a tier wins back — predicted on per-byte H2D cost
        // above the pinned-PCIe floor, achieved on end-to-end time
        // above the base run.
        os << "\n";
        TextTable ot("overlap mitigation (predicted vs achieved)");
        ot.header({"overlap", "pred h2d GB/s", "pred d2h GB/s",
                   "pred recovery", "cc end-to-end", "achieved"});
        const double none_cost = 1.0
            / perfmodel::ccPredictedRateGbps(tee::OverlapMode::None,
                                             /*d2h=*/false);
        const double link_cost = 1.0 / calib::kPciePinnedGBs;
        SimTime none_e2e = 0;
        for (const tee::OverlapMode mode :
             {tee::OverlapMode::None, tee::OverlapMode::DoubleBuffer,
              tee::OverlapMode::Speculative}) {
            SimShape shape = po.sim;
            shape.overlap = mode;
            const auto run = runOnce(po.workload, shape, true);
            if (mode == tee::OverlapMode::None)
                none_e2e = run.end_to_end;
            const double rate = perfmodel::ccPredictedRateGbps(
                mode, /*d2h=*/false);
            const double pred = none_cost > link_cost
                ? (none_cost - 1.0 / rate) / (none_cost - link_cost)
                : 0.0;
            const double achieved = none_e2e > base.end_to_end
                ? static_cast<double>(none_e2e - run.end_to_end)
                    / static_cast<double>(none_e2e - base.end_to_end)
                : 0.0;
            ot.row({tee::overlapModeName(mode), formatGbs(rate),
                    formatGbs(perfmodel::ccPredictedRateGbps(
                        mode, /*d2h=*/true)),
                    TextTable::pct(100.0 * pred),
                    formatTime(run.end_to_end),
                    TextTable::pct(100.0 * achieved)});
        }
        ot.print(os);
        return 0;
      }

      case Command::Snapshot: {
        const SnapshotOptions &so = opt.snapshot;
        if (!so.inspect.empty()) {
            const auto loaded = snap::readSnapshotFile(so.inspect);
            if (!loaded.ok())
                fatal("%s", loaded.status().toString().c_str());
            snap::printSnapshot(os, loaded.value());
            return 0;
        }
        const auto &w =
            workloads::WorkloadRegistry::instance().get(so.app);
        if (so.sim.uvm && !w.supportsUvm())
            fatal("workload '%s' has no UVM variant", so.app.c_str());
        const snap::ForkPoint fork_point = so.fork_point.value_or(
            snap::ForkPoint{snap::ForkPoint::Mode::Auto, 0.0, {}});
        const auto cuts = fork_point.resolvePath(w);
        if (cuts.empty())
            fatal("--fork-point none captures nothing; use auto or "
                  "a fraction");
        rt::SystemConfig sys;
        sys.cc = so.sim.cc;
        sys.seed = so.sim.seed;
        sys.channel.crypto_workers = so.sim.crypto_workers;
        sys.channel.tee_io = so.sim.tee_io;
        sys.channel.overlap = so.sim.overlap;
        workloads::WorkloadParams params;
        params.uvm = so.sim.uvm;
        params.scale = so.sim.scale;
        params.seed = so.sim.seed;
        rt::Context ctx(sys);
        // A chained path captures the *deepest* cut: run the prefix
        // to the first cut, then each segment to the next.  The
        // parent link records the path this capture chains from.
        auto resume = w.runPrefix(ctx, params, cuts[0]);
        for (std::size_t d = 1; d < cuts.size(); ++d)
            resume = w.runSegment(ctx, params, *resume, cuts[d]);
        snap::Snapshot snapshot;
        ctx.captureSnapshot(snapshot);
        snapshot.meta.app = so.app;
        snapshot.meta.uvm = so.sim.uvm;
        snapshot.meta.fork_point = fork_point.str();
        if (cuts.size() > 1) {
            const std::string spec_str = fork_point.str();
            snapshot.meta.parent =
                spec_str.substr(0, spec_str.rfind('/'));
        }
        const auto status =
            snap::writeSnapshotFile(so.out_file, snapshot);
        if (!status.ok())
            fatal("%s", status.toString().c_str());
        snap::printSnapshot(os, snapshot);
        os << "wrote " << so.out_file << "\n";
        return 0;
      }

      case Command::CryptoCalibrate: {
        obs::Registry reg;
        const auto results = crypto::calibrateHostCrypto(
            opt.crypto_calibrate.budget_ms, &reg);
        crypto::CpuCryptoModel model;
        TextTable t(
            "host crypto throughput ["
            + crypto::cryptoImplName(crypto::activeCryptoImpl())
            + " impl, " + crypto::cpuKindName(model.cpu())
            + " model]");
        t.header({"algorithm", "host GB/s", "model GB/s", "host/model"});
        for (const auto &r : results) {
            const double modeled = model.throughputGBs(r.algo);
            t.row({crypto::cipherAlgoName(r.algo), formatGbs(r.gbs),
                   formatGbs(modeled),
                   TextTable::ratio(r.gbs / modeled)});
        }
        t.print(os);
        crypto::applyCalibration(model, results);
        os << "\ncalibrated CpuCryptoModel: " << results.size()
           << " algorithm overrides would replace the paper's "
           << "Fig. 4b constants.\n";
        if (!opt.crypto_calibrate.stats_out.empty())
            writeStatsFile(opt.crypto_calibrate.stats_out,
                           {{"", &reg}},
                           /*include_host=*/true);
        return 0;
      }

      case Command::StatsDiff: {
        const auto baseline =
            obs::loadStatsFile(opt.stats_diff.baseline);
        if (!baseline.ok())
            fatal("%s", baseline.status().toString().c_str());
        const auto current =
            obs::loadStatsFile(opt.stats_diff.current);
        if (!current.ok())
            fatal("%s", current.status().toString().c_str());
        const auto diff = obs::diffStats(baseline.value(),
                                         current.value(),
                                         opt.stats_diff.tolerance);
        os << diff.report();
        return diff.pass() ? 0 : 1;
      }
    }
    return 1;
}

} // namespace hcc::cli
