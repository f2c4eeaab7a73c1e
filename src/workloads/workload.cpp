#include "workloads/workload.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"

namespace hcc::workloads {

// Defined in spec.cpp; wired here so that any registry access sees
// the built-in suites without an explicit init call.
void ensureSuitesRegistered();

WorkloadRegistry &
WorkloadRegistry::instance()
{
    static WorkloadRegistry registry;
    ensureSuitesRegistered();
    return registry;
}

std::unique_ptr<Workload::Resume>
Workload::reseedResume(const Resume &, const WorkloadParams &) const
{
    // No workload-local stochastic state by default; the Context's
    // reseedAtFork() already covered everything.
    return nullptr;
}

void
WorkloadRegistry::add(std::unique_ptr<Workload> workload)
{
    HCC_ASSERT(workload != nullptr, "null workload");
    if (find(workload->name()) != nullptr)
        fatal("duplicate workload '%s'", workload->name().c_str());
    workloads_.push_back(std::move(workload));
}

const Workload *
WorkloadRegistry::find(const std::string &name) const
{
    for (const auto &w : workloads_) {
        if (w->name() == name)
            return w.get();
    }
    return nullptr;
}

const Workload &
WorkloadRegistry::get(const std::string &name) const
{
    const Workload *w = find(name);
    if (w == nullptr)
        fatal("unknown workload '%s'", name.c_str());
    return *w;
}

std::vector<const Workload *>
WorkloadRegistry::all() const
{
    std::vector<const Workload *> out;
    out.reserve(workloads_.size());
    for (const auto &w : workloads_)
        out.push_back(w.get());
    return out;
}

std::vector<const Workload *>
WorkloadRegistry::ofSuite(const std::string &suite) const
{
    std::vector<const Workload *> out;
    for (const auto &w : workloads_) {
        if (w->suite() == suite)
            out.push_back(w.get());
    }
    return out;
}

WorkloadResult
runWorkload(const Workload &workload, const rt::SystemConfig &config,
            const WorkloadParams &params)
{
    if (params.uvm && !workload.supportsUvm()) {
        fatal("workload '%s' has no UVM variant",
              workload.name().c_str());
    }
    rt::Context ctx(config);
    const auto wall_start = std::chrono::steady_clock::now();
    {
        obs::ProfileScope profile(&ctx.obs(), "workload_run");
        workload.run(ctx, params);
    }
    // Self-reported simulator throughput.  host.* gauges carry
    // wall-clock measurements and are excluded from deterministic
    // stats dumps, so this never perturbs byte-identity.
    const double wall_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    if (wall_s > 0.0 && !ctx.tracer().empty()) {
        ctx.obs()
            .gauge("host.sim.events_per_sec")
            .set(static_cast<std::int64_t>(
                     static_cast<double>(ctx.tracer().size())
                     / wall_s),
                 -1);  // no timed sample: keep counter tracks clean
    }

    WorkloadResult result;
    result.name = workload.name();
    result.cc = config.cc;
    result.uvm = params.uvm;
    // The Context dies with this frame, so take the trace rather
    // than copying the full event store.
    result.trace = std::move(ctx.tracer());
    // One traversal yields the Fig. 3 metrics *and* the critical
    // path; the registry supplies the crypto/link busy split.
    auto crit = trace::analyzeCritical(result.trace, &ctx.obs());
    result.metrics = std::move(crit.metrics);
    result.critical = std::move(crit.path);
    trace::publishCriticalPath(result.critical, ctx.obs());
    result.tdx = ctx.tdx().stats();
    result.end_to_end = result.metrics.end_to_end;
    result.stats = ctx.obsPtr();
    return result;
}

WorkloadResult
runWorkload(const std::string &name, const rt::SystemConfig &config,
            const WorkloadParams &params)
{
    return runWorkload(WorkloadRegistry::instance().get(name), config,
                       params);
}

const std::vector<std::string> &
evaluationApps()
{
    static const std::vector<std::string> apps = {
        // Polybench
        "2dconv", "3dconv", "2mm", "3mm", "atax", "bicg", "corr",
        "gemm", "gramschm", "mvt", "syrk",
        // Rodinia
        "bfs", "dwt2d", "gaussian", "hotspot", "kmeans", "nw",
        "pathfinder", "sc",
        // Graph suites + CNN microapp
        "graphbig_bfs", "graphbig_pr", "tigr_bfs", "tigr_sssp", "cnn",
    };
    return apps;
}

const std::vector<std::string> &
uvmApps()
{
    static const std::vector<std::string> apps = {
        "2dconv", "3dconv", "2mm", "3mm", "atax", "bicg", "corr",
        "gemm", "gramschm", "mvt", "syrk", "bfs",
        "graphbig_bfs", "graphbig_pr", "tigr_bfs", "tigr_sssp",
    };
    return apps;
}

} // namespace hcc::workloads
