#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "cli/options.hpp"
#include "common/log.hpp"
#include "fault/campaign.hpp"
#include "obs/stats_io.hpp"
#include "perfmodel/model.hpp"
#include "runtime/context.hpp"
#include "serve/serve.hpp"
#include "snap/fork.hpp"
#include "snap/snap.hpp"
#include "spans.hpp"
#include "trace/critpath.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

/** The commands an op can be: the two workloads, plus the figure
 *  cell's report that serve_curve runs outside its timed ops. */
enum class Kind
{
    CellReport,
    ServeCurve,
    FaultCampaign,
};

/** The workload named @p name (the figure cell is not one). */
std::optional<Kind>
kindOf(const std::string &name)
{
    if (name == "serve_curve")
        return Kind::ServeCurve;
    if (name == "fault_campaign")
        return Kind::FaultCampaign;
    return std::nullopt;
}

/** Per-op values a traced op reports besides its spans. */
using Counts = std::map<std::string, double>;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now()
                                                     - start)
        .count();
}

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec)
        + static_cast<double>(tv.tv_usec) * 1e-6;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return nearestRank(v, 50.0);
}

std::optional<std::string>
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    return std::string(std::istreambuf_iterator<char>(in), {});
}

std::vector<fs::path>
outputFiles(const fs::path &out_dir)
{
    return {out_dir / "cells.csv", out_dir / "stats.json"};
}

/**
 * The figure cell's report: the Fig. 14 HF|BF16 batch-8 cell through
 * `hccsim run`, on the seed whose stats critpath_fig14.json pins.
 * Its op time is bimodal on shared hosts (decompose's scan slows ~2x
 * when a co-tenant shares the core), too unsteady for a gated
 * workload, so serve_curve checks it after its timed phase and its
 * traced runs time its layers there.
 */
std::vector<std::string>
figureCellArgs(const fs::path &stats)
{
    return {"run", "--app", "llm", "--cc", "--seed",
            std::to_string(kDefaultSeed), "--stats-out", stats.string()};
}

/** Number of traced figure-cell ops in a traced serve_curve run. */
constexpr int kFigureCellOps = 3;
/** Op id of the first of them in the span file. */
constexpr int kFigureCellOp = 1 << 20;

/** Metrics only the figure cell's report produces. */
const std::set<std::string> &
figureCellMetrics()
{
    static const std::set<std::string> names = {
        "runtime.context_ms", "workloads.run_ms", "trace.critical_ms",
        "perfmodel.decompose_ms", "trace.events", "sim.events_per_s"};
    return names;
}

/**
 * Input sets a run cycles through, op i taking set i mod n: the cost
 * and peak memory of a serve curve depend on its arrival trace, so
 * serve_curve rotates over four consecutive seeds to average that
 * out of the run.
 */
std::size_t
inputSets(Kind kind)
{
    return kind == Kind::ServeCurve ? 4 : 1;
}

/** Comma list of @p n consecutive seeds from @p first. */
std::string
seedRange(std::uint64_t first, int n)
{
    std::string out;
    for (int i = 0; i < n; ++i)
        out += (i ? "," : "") + std::to_string(first + i);
    return out;
}

/** The `hccsim` arguments of one op of workload @p kind, made from
 *  @p seed, writing its output files under @p out_dir. */
std::vector<std::string>
opArgs(Kind kind, std::uint64_t seed, const fs::path &out_dir)
{
    const auto files = outputFiles(out_dir);
    const std::string s = std::to_string(seed);
    switch (kind) {
      case Kind::CellReport:
        break;
      case Kind::ServeCurve:
        // The default serving experiment: 160 requests at 8/24/48/96
        // req/s, native and CC.
        return {"serve", "--jobs", "1", "--seed", s, "--format", "csv",
                "--out", files[0].string(), "--stats-out",
                files[1].string()};
      case Kind::FaultCampaign:
        // 3 tiers x 8 seeds x (1 + 7 sites x 8 rates) = 1368 cells.
        return {"faults", "--app", "llm", "--seeds", seedRange(seed, 8),
                "--rates", "0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08",
                "--overlap", "all", "--fork-point", "auto/0.99",
                "--jobs", "1", "--format", "csv", "--out",
                files[0].string(), "--stats-out", files[1].string()};
    }
    return {};
}

/** Parse and run one `hccsim` invocation, as tools/hccsim.cpp does. */
int
runCommand(const std::vector<std::string> &args, std::ostream &os)
{
    std::string error;
    const auto opt = hcc::cli::parseArgs(args, error);
    if (!opt)
        return 2;
    try {
        return hcc::cli::runCli(*opt, os);
    } catch (const hcc::FatalError &) {
        return 1;
    }
}

/** Run @p args and return the bytes of @p files, or nothing when the
 *  command fails or a file is missing. */
std::optional<std::vector<std::string>>
runForOutputs(const std::vector<std::string> &args,
              const std::vector<fs::path> &files)
{
    for (const auto &f : files)
        fs::remove(f);
    std::ostringstream os;
    if (runCommand(args, os) != 0)
        return std::nullopt;
    std::vector<std::string> bytes;
    for (const auto &f : files) {
        auto b = readFile(f);
        if (!b)
            return std::nullopt;
        bytes.push_back(std::move(*b));
    }
    return bytes;
}

template <typename WriteFn>
void
writeChecked(const std::string &path, WriteFn &&fn)
{
    std::ofstream out(path);
    if (!out)
        hcc::fatal("cannot open '%s'", path.c_str());
    fn(out);
    out.flush();
    if (!out)
        hcc::fatal("failed writing '%s'", path.c_str());
}

double
counterValue(const hcc::obs::Registry &reg, const std::string &name)
{
    const auto &entries = reg.entries();
    const auto it = entries.find(name);
    if (it == entries.end() || !it->second.counter)
        return 0.0;
    return static_cast<double>(it->second.counter->value());
}

const hcc::obs::Distribution *
distribution(const hcc::obs::Registry &reg, const std::string &name)
{
    const auto &entries = reg.entries();
    const auto it = entries.find(name);
    return it == entries.end() ? nullptr
                               : it->second.distribution.get();
}

// ---------------------------------------------------------------
// Traced ops: the public calls each command makes (cli/options.cpp,
// runCli), one span per call.  The CLI's human summary tables are
// private to the CLI, so a traced op prints only what public calls
// render; the difference is part of the stated tracing overhead.

/** `hccsim run`: runWorkload() unrolled, then the decomposition and
 *  the stats dump. */
bool
tracedRun(const hcc::cli::Options &opt, SpanRecorder &rec,
          Counts &counts, std::ostream &os)
{
    namespace rt = hcc::rt;
    namespace wl = hcc::workloads;
    const hcc::cli::RunOptions &ro = opt.run;
    rt::SystemConfig sys;
    sys.cc = ro.sim.cc;
    sys.seed = ro.sim.seed;
    sys.channel.crypto_workers = ro.sim.crypto_workers;
    sys.channel.tee_io = ro.sim.tee_io;
    sys.channel.overlap = ro.sim.overlap;
    sys.faults = ro.sim.faults;
    wl::WorkloadParams params;
    params.uvm = ro.sim.uvm;
    params.scale = ro.sim.scale;
    params.seed = ro.sim.seed;
    const wl::Workload &w =
        wl::WorkloadRegistry::instance().get(ro.workload.app);

    std::optional<rt::Context> ctx;
    {
        ScopedSpan span(&rec, "runtime.context");
        ctx.emplace(sys);
    }
    const auto run_start = Clock::now();
    {
        ScopedSpan span(&rec, "workloads.run");
        hcc::obs::ProfileScope profile(&ctx->obs(), "workload_run");
        w.run(*ctx, params);
    }
    const double run_ms = msSince(run_start);

    wl::WorkloadResult res;
    res.name = w.name();
    res.cc = sys.cc;
    res.uvm = params.uvm;
    res.trace = std::move(ctx->tracer());
    {
        ScopedSpan span(&rec, "trace.critical");
        auto crit = hcc::trace::analyzeCritical(res.trace, &ctx->obs());
        res.metrics = std::move(crit.metrics);
        res.critical = std::move(crit.path);
        hcc::trace::publishCriticalPath(res.critical, ctx->obs());
    }
    res.tdx = ctx->tdx().stats();
    res.end_to_end = res.metrics.end_to_end;
    res.stats = ctx->obsPtr();
    ctx.reset();

    const auto events = static_cast<double>(res.trace.size());
    counts["trace.events"] = events;
    counts["sim.events_per_s"] = run_ms > 0 ? events / run_ms * 1e3 : 0;
    counts["runtime.api.launches"] =
        counterValue(*res.stats, "runtime.api.launches");
    counts["gpu.uvm.fault_batches"] =
        counterValue(*res.stats, "gpu.uvm.fault_batches");

    hcc::perfmodel::Decomposition d;
    {
        ScopedSpan span(&rec, "perfmodel.decompose");
        d = hcc::perfmodel::decompose(res.trace);
    }
    os << d.report();
    if (!ro.stats_out.empty()) {
        ScopedSpan span(&rec, "obs.write_stats");
        writeChecked(ro.stats_out, [&](std::ostream &out) {
            hcc::obs::writeStatsJson(
                out, {{"", res.stats.get()}}, /*include_host=*/false,
                hcc::trace::criticalPathJsonMember(res.critical));
        });
    }
    return true;
}

/** `hccsim serve`: runServe() unrolled over its cells, then the
 *  writers. */
bool
tracedServe(const hcc::cli::Options &opt, SpanRecorder &rec,
            Counts &counts, std::ostream &)
{
    namespace serve = hcc::serve;
    const hcc::cli::ServeOptions &so = opt.serve;
    const serve::ServeSpec &spec = so.spec;
    const auto start = Clock::now();
    const std::vector<serve::ServeCell> cells =
        serve::expandServeCells(spec);
    // runServeCell() builds its own arrival trace; this separate call
    // per load times that step on its own.
    for (const double load : spec.loads) {
        ScopedSpan span(&rec, "serve.arrivals");
        const auto arrivals = serve::buildArrivalTrace(spec, load);
        counts["serve.requests"] += static_cast<double>(arrivals.size());
    }

    serve::ServeResult result;
    result.spec = spec;
    result.jobs = 1;
    result.cells.resize(cells.size());
    double cell_ms = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        ScopedSpan span(&rec, cells[i].cc ? "serve.cell_cc"
                                          : "serve.cell_base");
        const auto cell_start = Clock::now();
        serve::ServeCellResult &out = result.cells[i];
        out.cell = cells[i];
        try {
            out.point = serve::runServeCell(spec, cells[i]);
            out.ok = true;
        } catch (const hcc::FatalError &e) {
            out.error = e.what();
        }
        out.wall_us = msSince(cell_start) * 1e3;
        cell_ms += out.wall_us / 1e3;
    }
    result.wall_us = msSince(start) * 1e3;

    double launches = 0, batches = 0, preempted = 0, prefills = 0;
    for (const auto &c : result.cells) {
        if (!c.ok || !c.point.stats)
            continue;
        launches += counterValue(*c.point.stats, "runtime.api.launches");
        batches += counterValue(*c.point.stats, "gpu.uvm.fault_batches");
        preempted += counterValue(*c.point.stats, "serve.preempted");
        prefills += counterValue(*c.point.stats, "serve.prefills");
    }
    counts["runtime.api.launches"] = launches;
    counts["gpu.uvm.fault_batches"] = batches;
    counts["serve.preempted"] = preempted;
    counts["serve.prefills"] = prefills;
    counts["serve.preempt_ratio"] = prefills > 0 ? preempted / prefills
                                                 : 0;
    counts["serve.launches_per_s"] =
        cell_ms > 0 ? launches / cell_ms * 1e3 : 0;

    if (!so.out_file.empty()) {
        ScopedSpan span(&rec, "serve.write");
        writeChecked(so.out_file, [&](std::ostream &out) {
            if (so.format == hcc::cli::OutputFormat::Csv)
                serve::writeServeCsv(result, out);
            else
                serve::writeServeJson(result, out);
        });
    }
    if (!so.stats_out.empty()) {
        ScopedSpan span(&rec, "obs.write_stats");
        writeChecked(so.stats_out, [&](std::ostream &out) {
            serve::writeServeStats(result, out);
        });
    }
    return result.allOk();
}

/** `hccsim faults`: expansion, the campaign, then the writers.  The
 *  campaign stays one span; its cells' host.profile.* scopes split
 *  it into shared-prefix, suffix-replay and per-cell overhead. */
bool
tracedFaults(const hcc::cli::Options &opt, SpanRecorder &rec,
             Counts &counts, std::ostream &)
{
    namespace fault = hcc::fault;
    const hcc::cli::FaultsOptions &fo = opt.faults;
    fault::CampaignSpec spec = fo.spec;
    if (spec.sites.empty())
        spec.sites.assign(fault::allSites().begin(),
                          fault::allSites().end());
    const int jobs =
        fo.jobs > 0 ? fo.jobs : hcc::ThreadPool::defaultJobs();
    {
        // runFaultCampaign() expands the grid itself; this separate
        // call times the expansion on its own.
        ScopedSpan span(&rec, "fault.expand");
        counts["fault.expanded"] =
            static_cast<double>(fault::expandCampaign(spec).size());
    }
    hcc::obs::Registry reg;
    fault::CampaignResult result;
    double campaign_ms = 0.0;
    int campaign_span = -1;
    {
        ScopedSpan span(&rec, "fault.campaign");
        campaign_span = span.id();
        const auto start = Clock::now();
        result = fault::runFaultCampaign(spec, jobs, &reg);
        campaign_ms = msSince(start);
    }

    std::vector<PrefixSample> prefix;
    double suffix_us = 0, injected = 0, recovered = 0;
    double launches = 0, batches = 0;
    for (const auto &c : result.cells) {
        injected += static_cast<double>(c.injected);
        recovered += static_cast<double>(c.recovered);
        if (!c.result.stats)
            continue;
        const auto &stats = *c.result.stats;
        launches += counterValue(stats, "runtime.api.launches");
        batches += counterValue(stats, "gpu.uvm.fault_batches");
        if (const auto *d =
                distribution(stats, "host.profile.fork_prefix_us")) {
            const auto tier = static_cast<std::size_t>(
                std::find(spec.overlaps.begin(), spec.overlaps.end(),
                          c.cell.overlap)
                - spec.overlaps.begin());
            prefix.push_back(
                {tier, d->count(), d->sum(), d->min(), d->max()});
        }
        if (const auto *d =
                distribution(stats, "host.profile.workload_run_us"))
            suffix_us += d->sum();
    }
    const double prefix_ms = prefixOncePerTierUs(prefix) / 1e3;
    const double suffix_ms = suffix_us / 1e3;
    const auto n = static_cast<double>(result.cells.size());
    counts["snap.prefix_ms"] = prefix_ms;
    counts["fault.suffix_ms"] = suffix_ms;
    counts["fault.cell_overhead_ms"] = campaign_ms - prefix_ms - suffix_ms;
    counts["fault.cells"] = n;
    counts["fault.cells_failed"] =
        static_cast<double>(result.failures());
    counts["fault.injected"] = injected;
    counts["fault.recovered"] = recovered;
    counts["snap.hits"] = static_cast<double>(result.snapshot_hits);
    counts["snap.hit_ratio"] =
        n > 0 ? static_cast<double>(result.snapshot_hits) / n : 0;
    counts["snap.peak_resident_mib"] =
        static_cast<double>(result.peak_resident_bytes) / (1 << 20);
    counts["runtime.api.launches"] = launches;
    counts["gpu.uvm.fault_batches"] = batches;
    rec.arg(campaign_span, "snap.prefix_ms", prefix_ms);
    rec.arg(campaign_span, "fault.suffix_ms", suffix_ms);

    if (!fo.out_file.empty()) {
        ScopedSpan span(&rec, "fault.write_csv");
        writeChecked(fo.out_file, [&](std::ostream &out) {
            if (fo.format == hcc::cli::OutputFormat::Csv)
                fault::writeCampaignCsv(result, out);
            else
                fault::writeCampaignJson(result, out);
        });
    }
    if (!fo.stats_out.empty()) {
        ScopedSpan span(&rec, "obs.write_stats");
        writeChecked(fo.stats_out, [&](std::ostream &out) {
            fault::writeCampaignStats(result, out);
        });
    }
    return result.allOk();
}

/** One traced op: parse, then the command's public calls. */
bool
tracedOp(Kind kind, const std::vector<std::string> &args,
         SpanRecorder &rec, Counts &counts, std::ostream &os)
{
    ScopedSpan root(&rec, "cli");
    std::string error;
    const auto opt = hcc::cli::parseArgs(args, error);
    if (!opt)
        return false;
    try {
        switch (kind) {
          case Kind::CellReport: return tracedRun(*opt, rec, counts, os);
          case Kind::ServeCurve: return tracedServe(*opt, rec, counts, os);
          case Kind::FaultCampaign:
            return tracedFaults(*opt, rec, counts, os);
        }
    } catch (const hcc::FatalError &) {
    }
    return false;
}

/**
 * Snapshot costs on the llm CC Context at its `auto` fork point,
 * outside the timed ops: capture, restore into the same Context
 * (trace truncation fast path) and into a fresh one (byte load).
 * Medians of five repetitions.
 */
Counts
snapshotCosts(std::uint64_t seed)
{
    namespace rt = hcc::rt;
    rt::SystemConfig sys;
    sys.cc = true;
    sys.seed = seed;
    hcc::workloads::WorkloadParams params;
    params.seed = seed;
    const auto &w = hcc::workloads::WorkloadRegistry::instance().get("llm");
    hcc::snap::ForkPoint auto_point;
    auto_point.mode = hcc::snap::ForkPoint::Mode::Auto;
    const std::vector<double> cuts = auto_point.resolvePath(w);
    rt::Context ctx(sys);
    const auto resume = w.runPrefix(ctx, params, cuts.at(0));
    std::vector<double> capture, restore, load;
    double bytes = 0;
    for (int rep = 0; rep < 5; ++rep) {
        hcc::snap::Snapshot snap;
        auto t = Clock::now();
        ctx.captureSnapshot(snap);
        capture.push_back(msSince(t));
        t = Clock::now();
        ctx.restoreSnapshot(snap);
        restore.push_back(msSince(t));
        rt::Context fresh(sys);
        t = Clock::now();
        fresh.restoreSnapshot(snap);
        load.push_back(msSince(t));
        bytes = static_cast<double>(snap.totalBytes());
    }
    return {{"snap.capture_ms", median(capture)},
            {"snap.restore_ms", median(restore)},
            {"snap.load_ms", median(load)},
            {"snap.bytes", bytes}};
}

/**
 * Reference runs outside the timed phase, one checked op each.
 * serve_curve: the scripts/ci.sh serve configuration must reproduce
 * bench/baselines/serve_llm_stats.json.  fault_campaign: a sub-grid
 * in fork mode must equal its --no-snapshot control byte for byte.
 */
std::vector<std::pair<std::string, bool>>
referenceChecks(Kind kind, std::uint64_t seed, const fs::path &root,
                const fs::path &out_dir)
{
    const std::vector<fs::path> files = {out_dir / "ref.csv",
                                         out_dir / "ref.json"};
    std::vector<std::pair<std::string, bool>> checks;
    if (kind == Kind::ServeCurve) {
        const auto got = runForOutputs(
            {"serve", "--requests", "40", "--loads", "2,8",
             "--prompt-len", "128", "--gen-len", "16", "--max-batch",
             "8", "--kv-budget", "64", "--seed", "42", "--jobs", "1",
             "--out", files[0].string(), "--format", "csv",
             "--stats-out", files[1].string()},
            files);
        const auto want =
            readFile(root / "bench/baselines/serve_llm_stats.json");
        checks.push_back({"serve ci configuration == serve_llm_stats.json",
                          got && want && (*got)[1] == *want});
        const auto cell =
            runForOutputs(figureCellArgs(files[1]), {files[1]});
        const auto pinned =
            readFile(root / "bench/baselines/critpath_fig14.json");
        checks.push_back({"figure cell stats == critpath_fig14.json",
                          cell && pinned && (*cell)[0] == *pinned});
    } else if (kind == Kind::FaultCampaign) {
        std::vector<std::string> args = {
            "faults", "--app", "llm", "--seeds", seedRange(seed, 2),
            "--rates", "0.08", "--overlap", "all", "--fork-point",
            "auto/0.99", "--jobs", "1", "--format", "csv", "--out",
            files[0].string(), "--stats-out", files[1].string()};
        const auto fork = runForOutputs(args, files);
        args.push_back("--no-snapshot");
        const auto cold = runForOutputs(args, files);
        checks.push_back({"fork sub-grid == --no-snapshot sub-grid",
                          fork && cold && *fork == *cold});
    }
    return checks;
}

/**
 * Peak resident set of this process image, MiB.  VmHWM rather than
 * getrusage(): ru_maxrss survives execve, so it would report the
 * spawning process's footprint when that was larger.
 */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"serve_curve",
                                                   "fault_campaign"};
    return names;
}

RunResult
runBenchmark(const RunConfig &cfg)
{
    const Clock::time_point spawned = cfg.spawned.value_or(Clock::now());
    const auto kind = kindOf(cfg.workload);
    if (!kind)
        throw std::runtime_error("unknown workload '" + cfg.workload
                                 + "'");
    fs::create_directories(cfg.out_dir);
    std::vector<std::vector<std::string>> args;
    for (std::size_t v = 0; v < inputSets(*kind); ++v)
        args.push_back(opArgs(*kind, cfg.seed + v, cfg.out_dir));
    const auto files = outputFiles(cfg.out_dir);

    RunResult result;
    std::ostringstream report;
    std::ostringstream os;

    // Warm-up op: untimed, and the reference every timed op on the
    // same inputs must reproduce (further input sets take their first
    // timed op as reference).
    std::vector<std::vector<std::string>> reference(args.size());
    {
        auto got = runForOutputs(args[0], files);
        const bool ok = got.has_value();
        if (ok)
            reference[0] = std::move(*got);
        ++result.attempted;
        if (!ok) {
            ++result.failed;
            report << "FAILED: warm-up op output\n";
        }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double setup_s =
        std::chrono::duration<double>(Clock::now() - spawned).count();
    const auto setup_minflt = static_cast<double>(ru.ru_minflt);
    if (cfg.setup_only) {
        result.correct = result.failed == 0;
        result.metrics = {{"setup_s", "s", setup_s}};
        return result;
    }

    SpanRecorder rec(Clock::now());
    std::vector<double> plain_ms, traced_ms, minflt;
    double utime = 0, stime = 0;
    // Counts and span self times of each traced op, by op id.
    std::map<int, Counts> traced_counts;
    // Per-op start (s), wall, traced flag, user and system CPU (ms) and
    // minor faults, for reading the host's speed modes off a run.
    std::ofstream op_log(cfg.out_dir / "op-times.txt");
    const auto phase_start = Clock::now();
    for (std::size_t i = 0;; ++i) {
        if (cfg.max_ops ? i >= cfg.max_ops
                        : i > 0 && msSince(phase_start)
                                >= cfg.seconds * 1e3)
            break;
        const bool traced = cfg.trace && i % 2 == 1;
        const std::size_t set = (cfg.trace ? i / 2 : i) % args.size();
        for (const auto &f : files)
            fs::remove(f);
        os.str("");
        Counts counts;
        rusage r0{}, r1{};
        getrusage(RUSAGE_SELF, &r0);
        const auto t0 = Clock::now();
        bool ok = false;
        if (traced) {
            rec.setOp(static_cast<int>(i));
            ok = tracedOp(*kind, args[set], rec, counts, os);
        } else {
            ok = runCommand(args[set], os) == 0;
        }
        const double op_ms = msSince(t0);
        getrusage(RUSAGE_SELF, &r1);
        op_log << fmt("%.3f", msSince(phase_start) / 1e3 - op_ms / 1e3)
               << ' ' << fmt("%.3f", op_ms) << ' ' << traced << ' '
               << fmt("%.3f", 1e3 * (seconds(r1.ru_utime)
                                     - seconds(r0.ru_utime)))
               << ' '
               << fmt("%.3f", 1e3 * (seconds(r1.ru_stime)
                                     - seconds(r0.ru_stime)))
               << ' ' << r1.ru_minflt - r0.ru_minflt << '\n';
        if (traced) {
            traced_ms.push_back(op_ms);
        } else {
            plain_ms.push_back(op_ms);
            minflt.push_back(
                static_cast<double>(r1.ru_minflt - r0.ru_minflt));
            utime += seconds(r1.ru_utime) - seconds(r0.ru_utime);
            stime += seconds(r1.ru_stime) - seconds(r0.ru_stime);
        }

        if (static_cast<long>(i) == cfg.corrupt_op) {
            if (auto bytes = readFile(files[0]); bytes && !bytes->empty()) {
                (*bytes)[0] ^= 0x20;
                std::ofstream(files[0], std::ios::binary) << *bytes;
            }
        }
        // An input set's first passing op becomes its reference.
        std::vector<std::string> &want = reference[set];
        const bool first = want.empty();
        for (std::size_t f = 0; ok && f < files.size(); ++f) {
            auto bytes = readFile(files[f]);
            if (!bytes)
                ok = false;
            else if (first)
                want.push_back(std::move(*bytes));
            else
                ok = *bytes == want[f];
        }
        if (!ok && first)
            want.clear();
        if (traced) {
            std::error_code ec;
            counts["obs.stats_mb"] =
                static_cast<double>(fs::file_size(files.back(), ec)) / 1e6;
            traced_counts[static_cast<int>(i)] = std::move(counts);
        }
        ++result.attempted;
        if (!ok) {
            ++result.failed;
            report << "FAILED: op " << i << " failed or its output "
                   << "differs from the first op's on the same inputs\n";
        }
    }
    const double phase_s =
        std::chrono::duration<double>(Clock::now() - phase_start).count();
    const double peak_rss_mib = peakRssMib();

    const auto check = [&](const std::string &what, bool ok) {
        ++result.attempted;
        if (!ok) {
            ++result.failed;
            report << "FAILED: " << what << "\n";
        }
    };
    for (const auto &[what, ok] :
         referenceChecks(*kind, cfg.seed, cfg.root, cfg.out_dir))
        check(what, ok);
    std::map<int, Counts> cell_counts;
    if (cfg.trace && *kind == Kind::ServeCurve) {
        const fs::path stats = cfg.out_dir / "cell-stats.json";
        const auto pinned =
            readFile(cfg.root / "bench/baselines/critpath_fig14.json");
        for (int k = 0; k < kFigureCellOps; ++k) {
            fs::remove(stats);
            rec.setOp(kFigureCellOp + k);
            Counts &counts = cell_counts[kFigureCellOp + k];
            const bool ok = tracedOp(Kind::CellReport, figureCellArgs(stats),
                                     rec, counts, os);
            check("traced figure cell stats == critpath_fig14.json",
                  ok && pinned && readFile(stats) == *pinned);
        }
    }
    result.correct = result.failed == 0;

    // Op wall-time distribution of the untraced ops.
    const double ops_per_s = fastOpsPerS(plain_ms);
    const double all_ops_per_s = fastOpsPerS(plain_ms, 1.0);
    std::vector<double> sorted = plain_ms;
    std::sort(sorted.begin(), sorted.end());
    const double p50 = sorted.empty() ? 0.0 : nearestRank(sorted, 50.0);
    const auto tail_pct = tailPercentile(sorted.size());
    const double tail = tail_pct ? nearestRank(sorted, *tail_pct) : 0.0;

    report << "perfbench " << cfg.workload << " seed " << cfg.seed
           << (cfg.trace ? " traced" : "") << ": " << plain_ms.size()
           << " untraced + " << traced_ms.size() << " traced ops in "
           << fmt("%.2f", phase_s) << " s, " << result.failed << " of "
           << result.attempted << " checked ops failed\n";
    report << "  bench.op_p50_ms " << fmt("%.2f", p50) << " (n="
           << sorted.size() << ")";
    if (tail_pct)
        report << ", bench.op_tail_ms p" << fmt("%g", *tail_pct) << " "
               << fmt("%.2f", tail) << " ("
               << sorted.size() - nearestRankIndex(sorted.size(), *tail_pct)
               << " samples beyond)";
    report << "\n  ops_per_s " << fmt("%.4f", ops_per_s)
           << " (fastest tenth of the untraced ops); over all of them "
           << fmt("%.4f", all_ops_per_s) << "\n";

    if (!cfg.trace) {
        result.metrics = {{"ops_per_s", "1/s", ops_per_s},
                          {"setup_s", "s", setup_s},
                          {"peak_rss_mib", "MiB", peak_rss_mib}};
        result.report = report.str();
        return result;
    }

    // Self time of every span, added to its op's counts.  An op's
    // root span is the CLI entry; its self time is the op's time
    // outside every named call.
    const auto self = selfTimesUs(rec.spans());
    std::set<std::string> span_metrics;
    std::map<int, double> op_wall_ms;
    for (std::size_t i = 0; i < rec.spans().size(); ++i) {
        const Span &s = rec.spans()[i];
        const std::string key = s.parent < 0 ? "cli.self_ms" : s.name + "_ms";
        span_metrics.insert(key);
        Counts &counts = s.op >= kFigureCellOp ? cell_counts[s.op]
                                               : traced_counts[s.op];
        counts[key] += self[i] / 1e3;
        if (s.parent < 0)
            op_wall_ms[s.op] = (s.end_us - s.start_us) / 1e3;
    }
    if (*kind == Kind::FaultCampaign) {
        const Counts snap = snapshotCosts(cfg.seed);
        for (auto &[op, c] : traced_counts)
            c.insert(snap.begin(), snap.end());
    }
    const auto medianOf = [](const std::map<int, Counts> &ops,
                             const std::string &name) {
        std::vector<double> per_op;
        for (const auto &[op, c] : ops) {
            const auto it = c.find(name);
            per_op.push_back(it == c.end() ? 0.0 : it->second);
        }
        return median(per_op);
    };
    const double traced_ops_per_s = fastOpsPerS(traced_ms);
    std::map<std::string, double> values = {
        {"proc.minor_faults", median(minflt)},
        {"proc.sys_share", utime + stime > 0 ? stime / (utime + stime) : 0},
        {"proc.setup_minor_faults", setup_minflt},
        {"bench.ops", static_cast<double>(sorted.size())},
        {"bench.op_p50_ms", p50},
        {"bench.op_tail_ms", tail},
        {"bench.op_tail_pct", tail_pct.value_or(0.0)},
        {"bench.untraced_ops_per_s", ops_per_s},
        {"bench.traced_ops_per_s", traced_ops_per_s},
        {"bench.trace_overhead_ops_per_s", traced_ops_per_s - ops_per_s},
    };
    // Run-level values (bench.*, proc.*) are printed after the tables.
    const std::map<std::string, double> run_values = values;
    for (const MetricSpec &m : perLayerMetrics())
        if (!values.count(m.name))
            values[m.name] = medianOf(figureCellMetrics().count(m.name)
                                          ? cell_counts
                                          : traced_counts,
                                      m.name);

    const auto table = [&](const std::map<int, Counts> &ops,
                           const std::vector<std::string> &names) {
        double wall = 0.0;
        for (const auto &[op, c] : ops)
            wall += op_wall_ms[op] / static_cast<double>(ops.size());
        for (const std::string &name : names) {
            const double v = medianOf(ops, name);
            if (v == 0.0)
                continue; // a layer this workload never calls
            char line[160];
            std::snprintf(line, sizeof(line), "    %-32s %14.4f", name.c_str(),
                          v);
            report << line;
            if (span_metrics.count(name) && wall > 0)
                report << fmt("  %5.1f%% of op", 100 * v / wall);
            report << "\n";
        }
        return wall;
    };
    std::vector<std::string> names;
    for (const MetricSpec &m : perLayerMetrics())
        if (!figureCellMetrics().count(m.name) && !run_values.count(m.name))
            names.push_back(m.name);
    report << "  per-layer metrics, median per traced op over "
           << traced_counts.size() << " ops:\n";
    const double traced_wall = table(traced_counts, names);
    report << "  mean traced op wall " << fmt("%.2f", traced_wall)
           << " ms = sum of its span self times\n";
    if (!cell_counts.empty()) {
        std::vector<std::string> cell_names = {"cli.self_ms"};
        for (const MetricSpec &m : perLayerMetrics())
            if (figureCellMetrics().count(m.name))
                cell_names.push_back(m.name);
        cell_names.push_back("obs.write_stats_ms");
        report << "  figure cell (hccsim run --app llm --cc --seed 42), "
               << cell_counts.size()
               << " traced ops after the timed phase:\n";
        table(cell_counts, cell_names);
    }
    for (const auto &[key, value] : run_values)
        report << "    " << key << " " << fmt("%.4f", value) << "\n";
    report << "  tracing overhead: traced " << fmt("%.4f", traced_ops_per_s)
           << " - untraced " << fmt("%.4f", ops_per_s) << " = "
           << fmt("%+.4f", traced_ops_per_s - ops_per_s) << " ops/s\n";
    for (const MetricSpec &m : perLayerMetrics())
        result.metrics.push_back({m.name, m.unit, values[m.name]});

    const fs::path span_file =
        cfg.out_dir / ("spans-" + cfg.workload + ".json");
    std::ofstream span_out(span_file);
    rec.writeChromeTrace(span_out);
    span_out.flush();
    if (!span_out)
        throw std::runtime_error("cannot write " + span_file.string());
    report << "  spans: "
           << span_file.lexically_proximate(cfg.root).string() << "\n";
    result.report = report.str();
    return result;
}

} // namespace perfbench
