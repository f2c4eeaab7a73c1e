#include "cli/options.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <string_view>

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
template <typename Opts>  // Options or const Options
auto
workloadOf(Opts &o) -> decltype(&o.run.workload)
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
    /** Validate + store into the command's typed struct.  @p value
     *  is empty for boolean flags.  An error says what is wrong with
     *  the value; parseArgs() names the flag. */
    Status (*apply)(Options &opt, const std::string &value);
};

/** The error of a value outside @p choices ("json|csv"). */
Status
notOneOf(const std::string &value, const char *choices)
{
    return errorf(ErrorCode::InvalidArgument, "'%s' is not %s",
                  value.c_str(), choices);
}

bool
positive(double v)
{
    return v > 0.0;
}

/** A positive int count of MiB, in bytes. */
Result<std::size_t>
mebibytes(const std::string &value)
{
    const auto mib = parseInt(value, 1);
    if (!mib.ok())
        return mib.status();
    return static_cast<std::size_t>(*mib) << 20;
}

const FlagSpec kFlags[] = {
    {"--app", kRunLike | bit(Command::Faults) | bit(Command::Snapshot),
     "NAME", "workload name (see `hccsim list`)",
     [](Options &o, const std::string &v) {
         if (WorkloadChoice *w = workloadOf(o))
             w->app = v;
         else if (o.command == Command::Faults)
             o.faults.spec.app = v;
         else
             o.snapshot.app = v;
         return Status();
     }},
    {"--spec", kRunLike | bit(Command::Sweep), "FILE",
     "user spec file (or sweep grid file)",
     [](Options &o, const std::string &v) {
         if (WorkloadChoice *w = workloadOf(o))
             w->spec_file = v;
         else
             o.sweep.spec_file = v;
         return Status();
     }},
    {"--cc", kRunLike | bit(Command::Snapshot), nullptr,
     "run inside a TD (CC mode)",
     [](Options &o, const std::string &) {
         simOf(o)->cc = true;
         return Status();
     }},
    {"--uvm",
     kRunLike | bit(Command::Faults) | bit(Command::Snapshot),
     nullptr,
     "use the managed-memory variant",
     [](Options &o, const std::string &) {
         SimShape *sim = simOf(o);
         (sim ? sim->uvm : o.faults.spec.uvm) = true;
         return Status();
     }},
    {"--scale",
     kRunLike | bit(Command::Faults) | bit(Command::Snapshot), "X",
     "problem-size multiplier (default 1.0)",
     [](Options &o, const std::string &v) {
         SimShape *sim = simOf(o);
         return store(sim ? sim->scale : o.faults.spec.scale,
                      parseFiniteIf(v, positive, "positive"));
     }},
    {"--seed", kRunLike | bit(Command::Snapshot) | bit(Command::Serve),
     "N", "RNG seed (default 42)",
     [](Options &o, const std::string &v) {
         SimShape *sim = simOf(o);
         return store(sim ? sim->seed : o.serve.spec.seed,
                      parseInt<std::uint64_t>(v));
     }},
    {"--format",
     bit(Command::Trace) | bit(Command::Sweep) | bit(Command::Faults)
         | bit(Command::Serve),
     "json|csv", "trace/results format (default json)",
     [](Options &o, const std::string &v) {
         if (v != "json" && v != "csv")
             return notOneOf(v, "json|csv");
         GridCommandOptions *g = gridOf(o);
         (g ? g->format : o.trace.format) =
             v == "csv" ? OutputFormat::Csv : OutputFormat::Json;
         return Status();
     }},
    {"--crypto-workers",
     kRunLike | bit(Command::Sweep) | bit(Command::Faults)
         | bit(Command::Snapshot) | bit(Command::Serve),
     "N",
     "parallel encryption threads (CC)",
     [](Options &o, const std::string &v) {
         int *n = &o.serve.spec.crypto_workers;  // serve, unless:
         if (SimShape *sim = simOf(o))
             n = &sim->crypto_workers;
         else if (o.command == Command::Sweep)
             n = &o.sweep.grid.crypto_workers;
         else if (o.command == Command::Faults)
             n = &o.faults.spec.crypto_workers;
         return store(*n, parseInt(v, 1));
     }},
    {"--tee-io",
     kRunLike | bit(Command::Sweep) | bit(Command::Faults)
         | bit(Command::Snapshot) | bit(Command::Serve),
     nullptr, "model the TEE-IO hardware path (CC)",
     [](Options &o, const std::string &) {
         if (SimShape *sim = simOf(o))
             sim->tee_io = true;
         else if (o.command == Command::Sweep)
             o.sweep.grid.tee_io = true;
         else if (o.command == Command::Faults)
             o.faults.spec.tee_io = true;
         else
             o.serve.spec.tee_io = true;
         return Status();
     }},
    {"--overlap",
     kRunLike | bit(Command::Sweep) | bit(Command::Faults)
         | bit(Command::Snapshot) | bit(Command::Serve),
     "MODE",
     "channel overlap tier: none|double-buffer|speculative "
     "(sweep/faults/serve: comma list or \"all\", gridded as an axis)",
     [](Options &o, const std::string &v) {
         if (o.command == Command::Sweep)
             return store(o.sweep.grid.overlaps,
                          sweep::parseOverlapList(v));
         if (o.command == Command::Faults)
             return store(o.faults.spec.overlaps,
                          sweep::parseOverlapList(v));
         if (o.command == Command::Serve)
             return store(o.serve.spec.overlaps,
                          sweep::parseOverlapList(v));
         const auto mode = tee::parseOverlapMode(v);
         if (!mode)
             return notOneOf(v, "a single mode "
                                "(none|double-buffer|speculative; "
                                "only sweep/faults/serve grid a list)");
         simOf(o)->overlap = *mode;
         return Status();
     }},
    {"--faults",
     bit(Command::Run) | bit(Command::Compare) | bit(Command::Trace)
         | bit(Command::Critical),
     "SITE=RATE,...",
     "inject faults, e.g. channel.tag_mismatch=0.05",
     [](Options &o, const std::string &v) {
         return store(simOf(o)->faults, fault::parseFaultSpec(v));
     }},
    {"--sites", bit(Command::Faults), "S1,S2|all",
     "fault sites to campaign over (default all)",
     [](Options &o, const std::string &v) {
         if (v == "all") {
             o.faults.spec.sites.assign(fault::allSites().begin(),
                                        fault::allSites().end());
             return Status();
         }
         return store(
             o.faults.spec.sites,
             parseList(v, [](const std::string &name)
                              -> Result<fault::Site> {
                 if (const auto site = fault::parseSite(name))
                     return *site;
                 return notOneOf(name, "a fault site");
             }));
     }},
    {"--rates", bit(Command::Faults), "R1,R2",
     "injection rates in (0,1] (default 0.01)",
     [](Options &o, const std::string &v) {
         return store(o.faults.spec.rates,
                      parseList(v, [](const std::string &item) {
                          return parseFiniteIf(
                              item,
                              [](double r) {
                                  return r > 0.0 && r <= 1.0;
                              },
                              "in (0, 1]");
                      }));
     }},
    {"--stats-out",
     bit(Command::Run) | bit(Command::Compare) | bit(Command::Trace)
         | bit(Command::Critical) | bit(Command::Sweep)
         | bit(Command::Faults) | bit(Command::Serve)
         | bit(Command::CryptoCalibrate),
     "FILE", "write the stats registry as JSON",
     [](Options &o, const std::string &v) {
         *statsOutOf(o) = v;
         return Status();
     }},
    {"--trace-out", bit(Command::Trace), "FILE",
     "write the trace to a file instead of stdout",
     [](Options &o, const std::string &v) {
         o.trace.trace_out = v;
         return Status();
     }},
    {"--top", bit(Command::Critical), "N",
     "rows in the contributor/slack tables (default 10)",
     [](Options &o, const std::string &v) {
         return store(o.critical.top, parseInt(v, 1));
     }},
    {"--critical-out", bit(Command::Critical), "FILE",
     "write the full critical-path JSON (segments + slack)",
     [](Options &o, const std::string &v) {
         o.critical.critical_out = v;
         return Status();
     }},
    {"--out",
     bit(Command::Sweep) | bit(Command::Faults) | bit(Command::Serve)
         | bit(Command::Snapshot),
     "FILE",
     "per-cell results (CSV/JSON), or the snapshot output file",
     [](Options &o, const std::string &v) {
         GridCommandOptions *g = gridOf(o);
         (g ? g->out_file : o.snapshot.out_file) = v;
         return Status();
     }},
    {"--apps", bit(Command::Sweep), "A,B|all",
     "apps to grid over (or --spec GRIDFILE)",
     [](Options &o, const std::string &v) {
         return store(o.sweep.grid.apps, sweep::parseAppList(v));
     }},
    {"--cc-modes", bit(Command::Sweep) | bit(Command::Serve), "M",
     "on|off|both (default both)",
     [](Options &o, const std::string &v) {
         return store(o.command == Command::Sweep
                          ? o.sweep.grid.cc_modes
                          : o.serve.spec.cc_modes,
                      sweep::parseModeList(v));
     }},
    {"--uvm-modes", bit(Command::Sweep), "M",
     "on|off|both (default off)",
     [](Options &o, const std::string &v) {
         return store(o.sweep.grid.uvm_modes, sweep::parseModeList(v));
     }},
    {"--scales", bit(Command::Sweep), "X,Y",
     "problem-size multipliers (default 1)",
     [](Options &o, const std::string &v) {
         return store(o.sweep.grid.scales, sweep::parseScaleList(v));
     }},
    {"--seeds", bit(Command::Sweep) | bit(Command::Faults), "N,M",
     "RNG seeds (default 42)",
     [](Options &o, const std::string &v) {
         return store(o.command == Command::Sweep
                          ? o.sweep.grid.seeds
                          : o.faults.spec.seeds,
                      sweep::parseSeedList(v));
     }},
    {"--jobs",
     bit(Command::Compare) | bit(Command::Sweep) | bit(Command::Faults)
         | bit(Command::Serve),
     "N", "worker threads (default: all cores)",
     [](Options &o, const std::string &v) {
         GridCommandOptions *g = gridOf(o);
         return store(g ? g->jobs : o.compare.jobs, parseInt(v, 1));
     }},
    {"--fork-point",
     bit(Command::Sweep) | bit(Command::Faults)
         | bit(Command::Snapshot),
     "none|auto|F[/F..]",
     "prefix/suffix cut path for fork/replay; '/'-chained cuts build "
     "a snapshot tree (see docs/SNAPSHOT.md)",
     [](Options &o, const std::string &v) {
         if (o.command == Command::Faults)
             return store(o.faults.spec.fork_point,
                          snap::parseForkPoint(v));
         return store(o.command == Command::Sweep
                          ? o.sweep.snapshot.fork_point
                          : o.snapshot.fork_point,
                      snap::parseForkPoint(v));
     }},
    {"--no-snapshot", bit(Command::Sweep) | bit(Command::Faults),
     nullptr,
     "run split cells cold instead of snapshot-forking them",
     [](Options &o, const std::string &) {
         if (o.command == Command::Sweep)
             o.sweep.snapshot.no_snapshot = true;
         else
             o.faults.spec.no_snapshot = true;
         return Status();
     }},
    {"--loads", bit(Command::Serve), "R1,R2",
     "offered loads in requests/s (default 8,24,48,96)",
     [](Options &o, const std::string &v) {
         return store(o.serve.spec.loads, sweep::parseScaleList(v));
     }},
    {"--requests", bit(Command::Serve), "N",
     "requests per arrival trace (default 160)",
     [](Options &o, const std::string &v) {
         return store(o.serve.spec.requests, parseInt(v, 1));
     }},
    {"--max-batch", bit(Command::Serve), "N",
     "continuous-batching admission ceiling (default 32)",
     [](Options &o, const std::string &v) {
         return store(o.serve.spec.max_batch, parseInt(v, 1));
     }},
    {"--prompt-len", bit(Command::Serve), "N",
     "mean prompt tokens per request (default 512)",
     [](Options &o, const std::string &v) {
         return store(o.serve.spec.prompt_len, parseInt(v, 1));
     }},
    {"--gen-len", bit(Command::Serve), "N",
     "mean generated tokens per request (default 64)",
     [](Options &o, const std::string &v) {
         return store(o.serve.spec.gen_len, parseInt(v, 1));
     }},
    {"--kv-token-bytes", bit(Command::Serve), "N",
     "KV-cache bytes per token per session (default 32768)",
     [](Options &o, const std::string &v) {
         return store(o.serve.spec.kv_bytes_per_token,
                      parseInt<Bytes>(
                          v, 1, std::numeric_limits<int>::max()));
     }},
    {"--kv-budget", bit(Command::Serve), "MIB",
     "aggregate KV budget in MiB; over it young sessions are "
     "preempted (default 256)",
     [](Options &o, const std::string &v) {
         return store(o.serve.spec.kv_budget_bytes, mebibytes(v));
     }},
    {"--bursts", bit(Command::Serve), "B:E:M,...",
     "arrival burst windows over the request-index fraction, e.g. "
     "0.5:0.8:4 (default: plain Poisson)",
     [](Options &o, const std::string &v) {
         return store(o.serve.spec.bursts, serve::parseBurstList(v));
     }},
    {"--backend", bit(Command::Serve), "NAME",
     "serving framework model: hf|vllm (default vllm)",
     [](Options &o, const std::string &v) {
         if (v != "hf" && v != "vllm")
             return notOneOf(v, "hf|vllm");
         o.serve.spec.backend = v == "hf" ? ml::LlmBackend::HuggingFace
                                          : ml::LlmBackend::Vllm;
         return Status();
     }},
    {"--quant", bit(Command::Serve), "NAME",
     "weight quantization: bf16|awq4 (default bf16)",
     [](Options &o, const std::string &v) {
         if (v != "bf16" && v != "awq4")
             return notOneOf(v, "bf16|awq4");
         o.serve.spec.quant =
             v == "bf16" ? ml::LlmQuant::Bf16 : ml::LlmQuant::Awq4;
         return Status();
     }},
    {"--inspect", bit(Command::Snapshot), "FILE",
     "print a snapshot file's meta and section table",
     [](Options &o, const std::string &v) {
         o.snapshot.inspect = v;
         return Status();
     }},
    {"--log-level", kEveryCommand, "LEVEL",
     "debug|info|warn|error|silent",
     [](Options &o, const std::string &v) {
         if (!parseLogLevel(v))
             return notOneOf(v, "debug|info|warn|error|silent");
         o.log_level = v;
         return Status();
     }},
    {"--crypto-impl", kEveryCommand, "NAME",
     "functional crypto: scalar|ttable|aesni",
     [](Options &o, const std::string &v) {
         if (!crypto::parseCryptoImpl(v))
             return notOneOf(v, "scalar|ttable|aesni");
         o.crypto_impl = v;
         return Status();
     }},
    {"--tolerance", bit(Command::StatsDiff), "X",
     "relative tolerance before a change is drift",
     [](Options &o, const std::string &v) {
         return store(o.stats_diff.tolerance,
                      parseFiniteIf(
                          v, [](double t) { return t >= 0.0; },
                          "non-negative"));
     }},
    {"--ms", bit(Command::CryptoCalibrate), "N",
     "wall-clock budget per algorithm in ms (default 50)",
     [](Options &o, const std::string &v) {
         return store(o.crypto_calibrate.budget_ms,
                      parseFiniteIf(v, positive, "positive"));
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

    std::vector<std::string_view> given;
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
        if (const Status st = flag->apply(opt, value); !st.ok()) {
            error = std::string("bad ") + flag->name + " value: "
                + st.message();
            return std::nullopt;
        }
        given.push_back(flag->name);
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
        // A grid file replaces the whole grid, so an axis flag beside
        // it would be dropped; the snapshot flags compose with it.
        if (!opt.sweep.spec_file.empty()) {
            for (const char *axis :
                 {"--apps", "--cc-modes", "--uvm-modes", "--scales",
                  "--seeds", "--overlap", "--crypto-workers",
                  "--tee-io"}) {
                if (std::find(given.begin(), given.end(), axis)
                    != given.end()) {
                    error = std::string(axis)
                        + " and --spec are mutually exclusive";
                    return std::nullopt;
                }
            }
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
runOnce(const workloads::Workload &workload, const SimShape &sim, bool cc)
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
    return workloads::runWorkload(workload, sys, params);
}

/** Report a bad input file (a Status) as the command's one error
 *  line.  @return exit status 2. */
int
inputError(std::ostream &err, const Status &status)
{
    err << "error: " << status.toString() << "\n";
    return 2;
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
        os << r.snapshot_hits << " cells forked from snapshots, "
           << r.reused_cells << " reused an unfaulted sibling's result, "
           << "peak " << r.peak_resident_bytes
           << " resident snapshot bytes\n";
    if (r.unfaulted_trials.empty())
        return;
    // A split-mode site can fire only on its trials after the last
    // cut: one with none in every unfaulted cell cannot fire at all.
    os << "suffix trials per unfaulted cell (min-max):";
    const char *sep = " ";
    for (const fault::Site site : r.spec.sites) {
        const auto k = static_cast<std::size_t>(site);
        std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
        std::uint64_t hi = 0;
        for (const fault::TrialCounts &t : r.unfaulted_trials) {
            lo = std::min(lo, t[k]);
            hi = std::max(hi, t[k]);
        }
        os << sep << fault::siteName(site) << ' ' << lo << '-' << hi
           << (hi == 0 ? " (cannot fire)" : "");
        sep = ", ";
    }
    os << "\n";
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
runCli(const Options &opt, std::ostream &os, std::ostream &err)
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
    // A run-like command resolves its workload once: a --spec file is
    // read here, however many runs the command makes.
    std::optional<workloads::SpecWorkload> spec_workload;
    const workloads::Workload *workload = nullptr;
    if (const WorkloadChoice *choice = workloadOf(opt)) {
        if (choice->spec_file.empty()) {
            workload =
                &workloads::WorkloadRegistry::instance().get(choice->app);
        } else {
            auto spec = workloads::loadSpecFile(choice->spec_file);
            if (!spec.ok())
                return inputError(err, spec.status());
            workload = &spec_workload.emplace(spec.take());
        }
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
        const auto res = runOnce(*workload, ro.sim, ro.sim.cc);
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
        runIndexed(2, std::min(workers(co.jobs), 2), [&](std::size_t i) {
            runs[i] = runOnce(*workload, co.sim, i == 1);
        });
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
        const auto res = runOnce(*workload, to.sim, to.sim.cc);
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
        const auto res = runOnce(*workload, co.sim, co.sim.cc);
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
                return inputError(err, loaded.status());
            grid = loaded.take();
        }
        if (so.snapshot.fork_point)
            grid.fork_point = *so.snapshot.fork_point;
        if (so.snapshot.no_snapshot)
            grid.no_snapshot = true;
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
        const auto base = runOnce(*workload, po.sim, false);
        const auto projection = perfmodel::projectCc(base.trace);
        os << "projecting '" << base.name
           << "' from a base (non-CC) run into CC mode:\n"
           << projection.report();
        const auto actual = runOnce(*workload, po.sim, true);
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
            const auto run = runOnce(*workload, shape, true);
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
                return inputError(err, loaded.status());
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
        if (!status.ok()) {
            err << "error: " << status.toString() << "\n";
            return 1;
        }
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
            return inputError(err, baseline.status());
        const auto current =
            obs::loadStatsFile(opt.stats_diff.current);
        if (!current.ok())
            return inputError(err, current.status());
        const auto diff = obs::diffStats(baseline.value(),
                                         current.value(),
                                         opt.stats_diff.tolerance);
        os << diff.report();
        return diff.pass() ? 0 : 1;
      }
    }
    return 1;
}

int
runMain(const std::vector<std::string> &args, std::ostream &out,
        std::ostream &err)
{
    std::string error;
    const auto opt = parseArgs(args, error);
    if (!opt) {
        err << "error: " << error << "\n\n" << usage();
        return 2;
    }
    try {
        const int rc = runCli(*opt, out, err);
        // A trace piped to a full disk must not exit 0 with a
        // truncated file: flush and check the stream state.
        out.flush();
        if (!out) {
            err << "error: failed writing to stdout\n";
            return 1;
        }
        return rc;
    } catch (const hcc::FatalError &e) {
        err << "error: " << e.what() << "\n";
        return 1;
    }
}

} // namespace hcc::cli
