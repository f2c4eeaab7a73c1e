/**
 * @file
 * Command-line interface of the `hccsim` tool: list workloads, run
 * one under a chosen configuration, compare base vs CC, export a
 * trace, drive a fault-injection campaign, or serve an open-loop LLM
 * workload.  Parsing and execution are library functions so they are
 * unit-testable; tools/hccsim.cpp is one call to runMain().
 *
 * Exit status: 0 success; 1 a failed cell, stats drift, a failed
 * write or misuse found at run time (a FatalError, e.g. an unknown
 * app); 2 a bad flag or input file.  Every error is one `error:`
 * line on the error stream.
 *
 * All subcommands share one declarative flag table (options.cpp): a
 * flag is declared once with the set of subcommands it applies to,
 * so value parsing, "--x requires a value", "--x does not apply to
 * 'cmd'", unknown-flag errors and the per-subcommand `--help` output
 * are uniform by construction.
 *
 * Options are *typed per command*: every subcommand owns a struct of
 * already-parsed values (enums, lists, engine spec structs), filled
 * by the flag table at the CLI boundary.  Downstream code never
 * re-parses a string — an `Options` that parseArgs() accepted is
 * directly executable, and tests/tools that build Options by hand
 * get compile-time field checking instead of stringly-typed modes.
 */

#ifndef HCC_CLI_OPTIONS_HPP
#define HCC_CLI_OPTIONS_HPP

#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "serve/serve.hpp"
#include "snap/fork.hpp"
#include "sweep/sweep.hpp"
#include "tee/secure_channel.hpp"

namespace hcc::cli {

/** Supported subcommands. */
enum class Command
{
    List,
    Run,
    Compare,
    Trace,
    Critical,
    Project,
    Sweep,
    Faults,
    Serve,
    StatsDiff,
    CryptoCalibrate,
    Snapshot,
    Help,
};

/** Structured-output format for traces and per-cell results. */
enum class OutputFormat
{
    Json,
    Csv,
};

/** Workload selection shared by the single-run commands: exactly one
 *  of @p app (registry name) or @p spec_file (user spec). */
struct WorkloadChoice
{
    std::string app;
    std::string spec_file;
};

/**
 * The simulator shape of one single run: everything that configures
 * the Context and the workload variant.  Shared by run-like commands
 * and snapshot capture.  All values are parsed — the overlap tier is
 * an enum and the fault spec a FaultConfig, so runCli() never
 * revalidates strings.
 */
struct SimShape
{
    /** Run inside a TD with the GPU in CC mode. */
    bool cc = false;
    /** Use the managed-memory (UVM) variant. */
    bool uvm = false;
    /** Problem-size multiplier. */
    double scale = 1.0;
    /** RNG seed. */
    std::uint64_t seed = 42;
    /** Parallel encryption workers in the CC transfer path. */
    int crypto_workers = 1;
    /** Model the hypothetical TEE-IO hardware path. */
    bool tee_io = false;
    /** Channel overlap tier (single-run commands take exactly one). */
    tee::OverlapMode overlap = tee::OverlapMode::None;
    /** Deterministic fault injection (all-zero = no faults). */
    fault::FaultConfig faults;
};

/** `hccsim run`. */
struct RunOptions
{
    WorkloadChoice workload;
    SimShape sim;
    std::string stats_out;
};

/** `hccsim compare`. */
struct CompareOptions
{
    WorkloadChoice workload;
    SimShape sim;
    /** Worker threads (0 = hardware default). */
    int jobs = 0;
    std::string stats_out;
};

/** `hccsim trace`. */
struct TraceOptions
{
    WorkloadChoice workload;
    SimShape sim;
    OutputFormat format = OutputFormat::Json;
    /** Write the trace here instead of stdout. */
    std::string trace_out;
    std::string stats_out;
};

/** `hccsim critical`. */
struct CriticalOptions
{
    WorkloadChoice workload;
    SimShape sim;
    /** Rows in the contributor/slack report tables. */
    int top = 10;
    /** Write the full critical-path JSON (segments + slack). */
    std::string critical_out;
    std::string stats_out;
};

/** `hccsim project`. */
struct ProjectOptions
{
    WorkloadChoice workload;
    SimShape sim;
};

/** Snapshot-engine overrides that must compose with a grid loaded
 *  from a --spec file: unset fields keep the file's (or the
 *  engine's) default. */
struct SnapshotOverrides
{
    std::optional<snap::ForkPoint> fork_point;
    bool no_snapshot = false;
};

/** The flags every grid command (sweep, faults, serve) shares. */
struct GridCommandOptions
{
    /** Worker threads (0 = hardware default). */
    int jobs = 0;
    OutputFormat format = OutputFormat::Json;
    /** Per-cell results file (CSV/JSON per @p format). */
    std::string out_file;
    std::string stats_out;
};

/** `hccsim sweep`.  The grid axes live in the typed
 *  sweep::GridSpec the engine consumes; `grid.apps` empty means
 *  --apps was not given (then @p spec_file must name a grid file). */
struct SweepOptions : GridCommandOptions
{
    std::string spec_file;
    sweep::GridSpec grid;
    SnapshotOverrides snapshot;
};

/** `hccsim faults`.  The campaign axes live in the typed
 *  fault::CampaignSpec the engine consumes; `spec.sites` empty means
 *  --sites was not given (runCli then campaigns over allSites()). */
struct FaultsOptions : GridCommandOptions
{
    FaultsOptions()
    {
        spec.app.clear();
        spec.rates = {0.01};
        spec.seeds = {42};
    }

    fault::CampaignSpec spec;
};

/** `hccsim serve`.  The experiment lives in the typed
 *  serve::ServeSpec the engine consumes. */
struct ServeOptions : GridCommandOptions
{
    serve::ServeSpec spec;
};

/** `hccsim snapshot`: capture (--app ... --out FILE) or inspect
 *  (--inspect FILE). */
struct SnapshotOptions
{
    std::string app;
    SimShape sim;
    /** Unset = the workload's fork_after marker ("auto"). */
    std::optional<snap::ForkPoint> fork_point;
    std::string out_file;
    /** Snapshot file to print instead of capturing. */
    std::string inspect;
};

/** `hccsim stats-diff BASELINE CURRENT`. */
struct StatsDiffOptions
{
    std::string baseline;
    std::string current;
    /** Relative tolerance before a change is drift. */
    double tolerance = 0.0;
};

/** `hccsim crypto-calibrate`. */
struct CryptoCalibrateOptions
{
    /** Wall-clock budget per algorithm, ms. */
    double budget_ms = 50.0;
    std::string stats_out;
};

/** Parsed invocation: the selected command plus its typed options.
 *  Only the struct matching @p command is meaningful. */
struct Options
{
    Command command = Command::Help;
    /** A subcommand `--help` was requested (print help, exit 0). */
    bool show_help = false;
    /** Global log threshold name ("" = leave the default). */
    std::string log_level;
    /** Functional crypto implementation ("" = auto-select). */
    std::string crypto_impl;

    RunOptions run;
    CompareOptions compare;
    TraceOptions trace;
    CriticalOptions critical;
    ProjectOptions project;
    SweepOptions sweep;
    FaultsOptions faults;
    ServeOptions serve;
    SnapshotOptions snapshot;
    StatsDiffOptions stats_diff;
    CryptoCalibrateOptions crypto_calibrate;
};

/**
 * Parse argv (excluding argv[0]).  Never throws.
 * @return the options, or an error message on invalid input (a bad
 *         value reads "bad --FLAG value: ...").
 */
std::optional<Options> parseArgs(const std::vector<std::string> &args,
                                 std::string &error);

/**
 * Execute a parsed invocation, writing output to @p os.  A spec,
 * grid, stats or snapshot file that does not load is one `error:`
 * line on @p err and exit status 2.
 * @return process exit code.
 * @throws FatalError on misuse found at run time (runMain() reports
 *         it).
 */
int runCli(const Options &options, std::ostream &os,
           std::ostream &err = std::cerr);

/**
 * The whole `hccsim` process: parse @p args (argv without argv[0]),
 * run, and report every error as one `error:` line on @p err (an
 * argument error adds the usage text after a blank line).
 * @return the exit status (see the file comment).
 */
int runMain(const std::vector<std::string> &args, std::ostream &out,
            std::ostream &err);

/** The usage/help text. */
std::string usage();

/** Canonical subcommand name ("run", "stats-diff", ...). */
const char *commandName(Command command);

/** Per-subcommand help: the flags that apply to @p command, straight
 *  from the flag table. */
std::string commandHelp(Command command);

} // namespace hcc::cli

#endif // HCC_CLI_OPTIONS_HPP
