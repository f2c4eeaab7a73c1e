#include "workloads/spec.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace hcc::workloads {

// Defined in the per-suite translation units.
void registerPolybench();
void registerRodinia();
void registerGraphSuites();
void registerMlApps();
void registerTransferApps();

void
ensureSuitesRegistered()
{
    // A recursive mutex: registration paths re-enter here on the
    // same thread (each suite's register function touches the
    // registry), while the lock keeps a second sweep worker from
    // racing the first caller's registration.
    static std::recursive_mutex mutex;
    static bool done = false;
    const std::lock_guard<std::recursive_mutex> lock(mutex);
    if (done)
        return;
    done = true;  // set first: registration paths re-enter here
    registerPolybench();
    registerRodinia();
    registerGraphSuites();
    registerMlApps();
    registerTransferApps();
}

Bytes
AppSpec::totalInputBytes() const
{
    return std::accumulate(inputs.begin(), inputs.end(), Bytes{0});
}

Bytes
AppSpec::totalOutputBytes() const
{
    return std::accumulate(outputs.begin(), outputs.end(), Bytes{0});
}

int
AppSpec::totalLaunches() const
{
    int n = 0;
    for (const auto &p : phases)
        n += p.launches;
    return n;
}

SpecWorkload::SpecWorkload(AppSpec spec)
    : spec_(std::move(spec))
{
    if (spec_.name.empty() || spec_.phases.empty())
        fatal("app spec needs a name and at least one phase");
}

namespace {

Bytes
scaled(Bytes bytes, double scale)
{
    return static_cast<Bytes>(static_cast<double>(bytes) * scale);
}

SimTime
scaledTime(SimTime t, double scale)
{
    return static_cast<SimTime>(static_cast<double>(t) * scale);
}

/** Deterministic KET jitter, identical across base and CC runs. */
Rng
ketRng(const AppSpec &spec, const WorkloadParams &params)
{
    const std::uint64_t h =
        std::hash<std::string>{}(spec.name) ^ params.seed;
    return Rng(h, 0x4b45544a49545231ULL);
}

} // namespace

/**
 * Workload state crossing the prefix/suffix cut: buffer handles, the
 * KET jitter stream position and the launch cursor.  Buffer handles
 * are plain ids into the Context's allocation map, which the
 * snapshot restores, so a Resume captured against one Context state
 * replays against every cell restored from it.
 */
struct SpecWorkload::SpecResume final : Workload::Resume
{
    bool uvm = false;
    Rng rng{0, 0};
    std::vector<rt::Buffer> host_in, host_out, dev_in, dev_out;
    std::vector<rt::Buffer> d2d_bufs;
    rt::Buffer scratch, iter_dev, iter_host;
    rt::Buffer managed;
    /** Managed bytes each kernel touches (UVM mode). */
    Bytes touch = 0;
    /** Ordinal of the next launch to issue. */
    int next_launch = 0;
};

SpecWorkload::SpecResume
SpecWorkload::setup(rt::Context &ctx,
                    const WorkloadParams &params) const
{
    SpecResume st;
    st.uvm = params.uvm;
    st.rng = ketRng(spec_, params);

    if (params.uvm) {
        // One managed region covers inputs + outputs; pages fault
        // over on first kernel touch instead of explicit copies.
        const Bytes data_bytes = scaled(
            spec_.totalInputBytes() + spec_.totalOutputBytes(),
            params.scale);
        st.managed =
            ctx.mallocManaged(std::max<Bytes>(data_bytes, 4096));
        if (spec_.scratch > 0)
            st.scratch =
                ctx.mallocDevice(scaled(spec_.scratch, params.scale));
        st.touch = spec_.uvm_touch_override > 0
            ? scaled(spec_.uvm_touch_override, params.scale)
            : scaled(spec_.totalInputBytes(), params.scale);
        return st;
    }

    // Allocate host and device buffers.
    for (Bytes b : spec_.inputs) {
        const Bytes n = scaled(b, params.scale);
        st.host_in.push_back(spec_.pinned_host
                                 ? ctx.mallocHost(n)
                                 : ctx.hostPageable(n));
        st.dev_in.push_back(ctx.mallocDevice(n));
    }
    for (Bytes b : spec_.outputs) {
        const Bytes n = scaled(b, params.scale);
        st.host_out.push_back(spec_.pinned_host
                                  ? ctx.mallocHost(n)
                                  : ctx.hostPageable(n));
        st.dev_out.push_back(ctx.mallocDevice(n));
    }
    if (spec_.scratch > 0)
        st.scratch =
            ctx.mallocDevice(scaled(spec_.scratch, params.scale));

    // Per-iteration streaming/readback staging, if any phase needs
    // it (one buffer serves both directions).
    Bytes iter_bytes = 0;
    for (const auto &p : spec_.phases)
        iter_bytes = std::max({iter_bytes, p.d2h_per_iter,
                               p.h2d_per_iter});
    if (iter_bytes > 0) {
        st.iter_dev = ctx.mallocDevice(iter_bytes);
        st.iter_host = spec_.pinned_host
            ? ctx.mallocHost(iter_bytes)
            : ctx.hostPageable(iter_bytes);
    }

    // Copy-then-execute: H2D inputs, optional D2D shuffles.
    for (std::size_t i = 0; i < st.dev_in.size(); ++i)
        ctx.memcpy(st.dev_in[i], st.host_in[i], st.dev_in[i].bytes);
    for (Bytes b : spec_.d2d_copies) {
        const Bytes n = scaled(b, params.scale);
        auto src = ctx.mallocDevice(n);
        auto dst = ctx.mallocDevice(n);
        ctx.memcpy(dst, src, n);
        st.d2d_bufs.push_back(src);
        st.d2d_bufs.push_back(dst);
    }
    return st;
}

void
SpecWorkload::runLaunchRange(rt::Context &ctx,
                             const WorkloadParams &params,
                             SpecResume &st, int to_launch) const
{
    const int from = st.next_launch;
    int ordinal = 0;
    for (const auto &phase : spec_.phases) {
        const int phase_end = ordinal + phase.launches;
        for (int i = 0; i < phase.launches; ++i, ++ordinal) {
            if (ordinal < from || ordinal >= to_launch)
                continue;
            gpu::KernelDesc k;
            k.name = phase.kernel;
            k.module_bytes = phase.module_bytes;
            if (phase.ket > 0) {
                k.duration = static_cast<SimTime>(st.rng.lognormal(
                    static_cast<double>(
                        scaledTime(phase.ket, params.scale)),
                    phase.jitter_sigma));
            } else {
                // Roofline phase: scale work, derive duration on
                // the device.
                k.gflops = phase.gflops * params.scale;
                k.mem_bytes = scaled(phase.mem_bytes, params.scale);
                k.dims.grid_x = static_cast<int>(
                    phase.threads / 256);
                k.dims.block_x = 256;
            }
            if (st.uvm) {
                k.uvm_alloc = st.managed.uvm_handle;
                k.uvm_touch_bytes =
                    std::min(st.touch, st.managed.bytes);
            }
            if (!st.uvm && phase.h2d_per_iter > 0) {
                ctx.memcpy(st.iter_dev, st.iter_host,
                           phase.h2d_per_iter);
            }
            ctx.launchKernel(k);
            if (!st.uvm && phase.d2h_per_iter > 0) {
                ctx.memcpy(st.iter_host, st.iter_dev,
                           phase.d2h_per_iter);
            }
        }
        // The phase barrier belongs to whichever range completed the
        // phase, so any split replays it exactly once.
        if (phase.sync_after && phase_end > from
            && phase_end <= to_launch)
            ctx.deviceSynchronize();
    }
    st.next_launch = std::min(to_launch, spec_.totalLaunches());
}

void
SpecWorkload::teardown(rt::Context &ctx, SpecResume &st) const
{
    ctx.deviceSynchronize();

    if (st.uvm) {
        if (st.scratch.valid())
            ctx.free(st.scratch);
        ctx.free(st.managed);
        return;
    }

    // Results home, then teardown.
    for (std::size_t i = 0; i < st.dev_out.size(); ++i)
        ctx.memcpy(st.host_out[i], st.dev_out[i],
                   st.dev_out[i].bytes);
    for (auto &b : st.dev_in)
        ctx.free(b);
    for (auto &b : st.dev_out)
        ctx.free(b);
    for (auto &b : st.d2d_bufs)
        ctx.free(b);
    if (st.scratch.valid())
        ctx.free(st.scratch);
    if (st.iter_dev.valid())
        ctx.free(st.iter_dev);
    if (st.iter_host.valid())
        ctx.free(st.iter_host);
    for (auto &b : st.host_in)
        ctx.free(b);
    for (auto &b : st.host_out)
        ctx.free(b);
}

std::unique_ptr<Workload::Resume>
SpecWorkload::runPrefix(rt::Context &ctx, const WorkloadParams &params,
                        double fraction) const
{
    if (params.uvm && !spec_.uvm_capable)
        fatal("workload '%s' has no UVM variant", spec_.name.c_str());
    const double f = std::clamp(fraction, 0.0, 1.0);
    const int warm = static_cast<int>(
        static_cast<double>(spec_.totalLaunches()) * f);
    auto st = std::make_unique<SpecResume>(setup(ctx, params));
    runLaunchRange(ctx, params, *st, warm);
    return st;
}

void
SpecWorkload::runSuffix(rt::Context &ctx, const WorkloadParams &params,
                        const Resume &resume) const
{
    const auto *spec_resume =
        dynamic_cast<const SpecResume *>(&resume);
    if (!spec_resume)
        fatal("runSuffix got a foreign resume state");
    SpecResume st = *spec_resume;  // each cell replays its own copy
    runLaunchRange(ctx, params, st, spec_.totalLaunches());
    teardown(ctx, st);
}

std::unique_ptr<Workload::Resume>
SpecWorkload::runSegment(rt::Context &ctx,
                         const WorkloadParams &params,
                         const Resume &from, double to_fraction) const
{
    const auto *spec_resume = dynamic_cast<const SpecResume *>(&from);
    if (!spec_resume)
        fatal("runSegment got a foreign resume state");
    // Same rounding as runPrefix, so an increasing cut path tiles
    // the launch schedule without gaps or overlaps.
    const double f = std::clamp(to_fraction, 0.0, 1.0);
    const int to_launch = static_cast<int>(
        static_cast<double>(spec_.totalLaunches()) * f);
    auto st = std::make_unique<SpecResume>(*spec_resume);
    runLaunchRange(ctx, params, *st, to_launch);
    return st;
}

std::unique_ptr<Workload::Resume>
SpecWorkload::reseedResume(const Resume &resume,
                           const WorkloadParams &params) const
{
    const auto *spec_resume =
        dynamic_cast<const SpecResume *>(&resume);
    if (!spec_resume)
        fatal("reseedResume got a foreign resume state");
    auto st = std::make_unique<SpecResume>(*spec_resume);
    // Exactly what setup() under params.seed would have derived; the
    // position state (buffers, launch cursor) carries over as-is.
    st->rng = ketRng(spec_, params);
    return st;
}

void
registerSpec(AppSpec spec)
{
    WorkloadRegistry::instance().add(
        std::make_unique<SpecWorkload>(std::move(spec)));
}

} // namespace hcc::workloads
