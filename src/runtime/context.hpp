/**
 * @file
 * The public runtime API: a CUDA-like interface over the simulated
 * CC system.  This is the library's main entry point.
 *
 * A Context stands for one guest (regular VM or TD) with one GPU
 * passed through.  Every API call advances the simulated host clock
 * by its modeled cost and records a trace event; device work is
 * scheduled onto the GPU's engines.  Construct two contexts — one
 * with cc=false, one with cc=true — run the same workload, and the
 * traces diff into every figure of the paper.
 *
 * Typical use:
 * @code
 *   rt::SystemConfig cfg;
 *   cfg.cc = true;
 *   rt::Context ctx(cfg);
 *   auto dev = ctx.mallocDevice(hcc::size::mib(64));
 *   auto host = ctx.hostPageable(hcc::size::mib(64));
 *   ctx.memcpy(dev, host, dev.bytes);          // H2D, encrypted
 *   gpu::KernelDesc k{.name = "saxpy", .duration = hcc::time::us(50)};
 *   ctx.launchKernel(k);
 *   ctx.deviceSynchronize();
 *   auto metrics = trace::analyze(ctx.tracer());
 * @endcode
 */

#ifndef HCC_RUNTIME_CONTEXT_HPP
#define HCC_RUNTIME_CONTEXT_HPP

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "fault/fault.hpp"
#include "gpu/gpu_device.hpp"
#include "obs/registry.hpp"
#include "pcie/link.hpp"
#include "runtime/buffer.hpp"
#include "runtime/graph.hpp"
#include "tee/secure_channel.hpp"
#include "tee/spdm.hpp"
#include "tee/tdx.hpp"
#include "trace/tracer.hpp"

namespace hcc::snap { struct Snapshot; }

namespace hcc::rt {

/** Whole-system configuration (Table I knobs that matter). */
struct SystemConfig
{
    /** Run inside a TD with the GPU in CC mode. */
    bool cc = false;
    /** PCIe link parameters. */
    pcie::LinkConfig link;
    /** CC transfer-path tunables (ignored when cc == false). */
    tee::ChannelConfig channel;
    /** GPU device parameters (cc_mode is forced to match cc). */
    gpu::GpuConfig gpu;
    /** Master seed for all stochastic costs. */
    std::uint64_t seed = 1;
    /** Fault-injection rates (all zero: no faults, byte-identical
     *  behaviour to a build without the fault subsystem). */
    fault::FaultConfig faults;
};

/** Opaque stream handle. */
class Stream
{
  public:
    int id() const { return id_; }

  private:
    friend class Context;
    explicit Stream(int id) : id_(id) {}
    int id_;
};

/** Opaque recorded-event handle. */
class Event
{
  public:
    std::uint64_t id() const { return id_; }

  private:
    friend class Context;
    Event(std::uint64_t id, SimTime when, std::uint64_t seq)
        : id_(id), when_(when), seq_(seq)
    {}
    std::uint64_t id_;
    /** Device completion point captured at record time. */
    SimTime when_;
    /** Program-order sequence number (for elapsed-time checks). */
    std::uint64_t seq_;
};

/**
 * One guest + one GPU.  See file comment for usage.
 */
class Context
{
  public:
    explicit Context(const SystemConfig &config = SystemConfig{});

    // ------------------------------------------------------- memory

    /** cudaMalloc. */
    Buffer mallocDevice(Bytes bytes);
    /** cudaMallocHost (pinned). */
    Buffer mallocHost(Bytes bytes);
    /** cudaMallocManaged (UVM). */
    Buffer mallocManaged(Bytes bytes);
    /** Plain malloc'd host memory (no driver involvement, free). */
    Buffer hostPageable(Bytes bytes);
    /** cudaFree (any driver allocation). */
    void free(Buffer &buffer);

    /**
     * The CPU writes a managed buffer: device residency is dropped
     * and the next device access will fault pages back over.
     */
    void cpuTouchManaged(const Buffer &buffer);

    // ---------------------------------------------------- transfers

    /**
     * Blocking cudaMemcpy; direction inferred from the buffer
     * spaces.  @p bytes must not exceed either buffer.
     */
    void memcpy(const Buffer &dst, const Buffer &src, Bytes bytes);

    /** Async copy ordered on @p stream. */
    void memcpyAsync(const Buffer &dst, const Buffer &src, Bytes bytes,
                     const Stream &stream);

    /**
     * cudaMemPrefetchAsync analog: migrate a managed buffer's pages
     * to the device (@p to_device) or back to the host, through the
     * same transfer path demand faults would use — but in bulk.
     */
    void memPrefetch(const Buffer &buffer, bool to_device);

    /**
     * cudaMemset analog: device-side fill of the first @p bytes of a
     * device buffer; runs as a small fill kernel at HBM bandwidth.
     */
    void memsetDevice(const Buffer &buffer, Bytes bytes);

    // ------------------------------------------------------ kernels

    /** Launch on the default stream. */
    void launchKernel(const gpu::KernelDesc &kernel);
    /** Launch on a specific stream. */
    void launchKernel(const gpu::KernelDesc &kernel,
                      const Stream &stream);

    // ------------------------------------------------------- graphs

    /** Capture + instantiate a linear graph of kernel nodes. */
    GraphExec instantiateGraph(std::string name,
                               std::vector<gpu::KernelDesc> nodes);
    /** Replay an instantiated graph with one launch operation. */
    void launchGraph(const GraphExec &graph, const Stream &stream);
    void launchGraph(const GraphExec &graph);

    // ------------------------------------------------------ streams

    Stream createStream();
    Stream defaultStream() const { return Stream(0); }

    // ------------------------------------------------------- events

    /**
     * cudaEventRecord analog: capture the point at which all work
     * currently queued on @p stream completes.
     */
    Event recordEvent(const Stream &stream);
    /** Record on the default stream. */
    Event recordEvent();

    /**
     * cudaEventElapsedTime analog: device-side time between two
     * recorded events, in simulated time.  Fatal if @p later was
     * recorded (in program order) before @p earlier.
     */
    SimTime eventElapsed(const Event &earlier,
                         const Event &later) const;

    /**
     * cudaStreamWaitEvent analog: work later queued on @p stream may
     * not start before @p event's captured completion point.
     */
    void streamWaitEvent(const Stream &stream, const Event &event);

    /** Block the host until the event's work completed. */
    void eventSynchronize(const Event &event);

    // --------------------------------------------------------- sync

    /** Block until @p stream drains. */
    void streamSynchronize(const Stream &stream);
    /** Block until all device work drains. */
    void deviceSynchronize();

    /**
     * Idle the host clock forward to an external wall-clock point —
     * the arrival clock of open-loop workloads (`hccsim serve`).  A
     * serving loop with an empty batch sleeps until the next request
     * arrival; that wait is host idle time, not an API cost, so it
     * records no trace event and draws no RNG (a Context driven
     * through the same API sequence stays byte-identical whether or
     * not the idle waits happen to be zero-length).  No-op when
     * @p when is not in the future.
     */
    void advanceHostTo(SimTime when);

    // -------------------------------------------------- inspection

    /** Current simulated host time. */
    SimTime now() const { return host_now_; }
    bool cc() const { return config_.cc; }
    const SystemConfig &config() const { return config_; }

    trace::Tracer &tracer() { return tracer_; }
    const trace::Tracer &tracer() const { return tracer_; }

    /**
     * The per-context stats registry: every component of this system
     * publishes its "tee.*" / "crypto.*" / "gpu.*" / "pcie.*" /
     * "sim.*" / "runtime.*" stats here.  Each Context owns its own
     * registry, so base/CC compare runs never mix stats.
     */
    obs::Registry &obs() { return *obs_; }
    const obs::Registry &obs() const { return *obs_; }
    /** Shared ownership (outlives the Context, e.g. for reporting). */
    std::shared_ptr<obs::Registry> obsPtr() const { return obs_; }

    tee::TdxModule &tdx() { return tdx_; }
    const tee::TdxModule &tdx() const { return tdx_; }
    gpu::GpuDevice &device() { return gpu_; }
    pcie::PcieLink &link() { return link_; }
    tee::SecureChannel *channel() { return channel_.get(); }

    /** The context's fault injector (always present; unarmed when
     *  all configured rates are zero). */
    fault::Injector &faultInjector() { return *fault_; }

    /** Live driver allocations (leak checking in tests). */
    std::size_t liveAllocations() const { return allocs_.size(); }

    // ---------------------------------------------------- snapshots

    /**
     * Capture the full deterministic simulator state — host clock,
     * streams, allocations, RNG streams, GPU engines, GMMU/UVM maps,
     * trace buffer and stats registry — into @p out as named
     * per-subsystem sections.  Restore-in-place contract: the capture
     * is only valid for restoreSnapshot() on this same Context (or a
     * Context constructed from the identical SystemConfig and driven
     * through the identical call sequence), because cached stat
     * pointers and interned labels are not serialized, only values.
     */
    void captureSnapshot(snap::Snapshot &out);

    /**
     * Restore state captured by captureSnapshot().  Fatal when the
     * snapshot's mode does not match this context's configuration or
     * a section is missing/truncated.
     */
    void restoreSnapshot(const snap::Snapshot &snap);

    /**
     * Re-arm fault injection with @p faults as if the Context had
     * been constructed with them (streams re-forked from this
     * context's seed, counts cleared).  The campaign fork engine
     * calls this after restoring a cell so every cell shares one
     * unarmed warmup prefix.
     */
    void
    armFaults(const fault::FaultConfig &faults)
    {
        config_.faults = faults;
        fault_->arm(faults, config_.seed);
    }

    /**
     * Switch every seed-derived stochastic stream to @p seed,
     * leaving them exactly where a Context constructed with @p seed
     * would start: the runtime jitter RNG, the GPU's KET/decode
     * jitter RNGs and the fault injector's site streams.  This is
     * the cross-seed fork-point step of snap::runForkGroup — a group
     * runs one prefix under a seed-independent identity seed, then
     * each cell reseeds to its own seed here; the cold control
     * replays the same derivation, so fork and cold stay
     * byte-identical.  Deterministic state (clocks, timelines,
     * allocations, trace) is untouched.
     */
    void reseedAtFork(std::uint64_t seed);

  private:
    struct StreamState
    {
        /** Device-side completion time of the last operation. */
        SimTime device_ready = 0;
        /** Completion times of in-flight kernels (launch queue). */
        std::deque<SimTime> pending;
    };

    /** Snapshotted as raw bytes: the explicit zero word fills what
     *  would be padding after the 4-byte MemSpace. */
    struct AllocInfo
    {
        MemSpace space = MemSpace::HostPageable;
        std::uint32_t reserved = 0;
        Bytes bytes = 0;
        std::uint64_t uvm_handle = 0;
    };

    StreamState &streamState(const Stream &stream);
    gpu::TransferContext transferContext();
    gpu::HostMemKind hostKindOf(MemSpace space) const;

    /** Shared body of blocking/async memcpy. */
    void memcpyImpl(const Buffer &dst, const Buffer &src, Bytes bytes,
                    StreamState *async_stream);

    /** Shared launch body; returns the kernel completion time. */
    SimTime launchImpl(const gpu::KernelDesc &kernel,
                       StreamState &stream);

    /**
     * Snapshot support for the runtime-local state (the "runtime"
     * section); subsystems serialize into their own sections.
     */
    template <class Ar>
    void
    snapRuntimeState(Ar &ar)
    {
        ar.pod(host_now_);
        // The mutable slice of config_: armFaults() and
        // reseedAtFork() write these, and reseedAtFork() re-arms the
        // injector from config_.faults — a restore must rewind them
        // or a snapshot-tree node materialized after a faulted leaf
        // would re-arm that leaf's stale rates into its segment.
        ar.pod(config_.seed);
        ar.pod(config_.faults.rates);
        // The mutable slice of config_: armFaults() and
        // reseedAtFork() write these, and reseedAtFork() re-arms the
        // injector from config_.faults — a restore must rewind them
        // or a snapshot-tree node materialized after a faulted leaf
        // would re-arm that leaf's stale rates into its segment.
        const std::size_t nstreams = ar.size(streams_.size());
        if constexpr (Ar::kLoading)
            streams_.resize(nstreams);
        for (auto &s : streams_) {
            ar.pod(s.device_ready);
            const std::size_t npending = ar.size(s.pending.size());
            if constexpr (Ar::kLoading) {
                s.pending.clear();
                for (std::size_t i = 0; i < npending; ++i) {
                    SimTime t = 0;
                    ar.pod(t);
                    s.pending.push_back(t);
                }
            } else {
                for (SimTime t : s.pending)
                    ar.pod(t);
            }
        }
        const std::size_t nallocs = ar.size(allocs_.size());
        if constexpr (Ar::kLoading) {
            allocs_.clear();
            for (std::size_t i = 0; i < nallocs; ++i) {
                std::uint64_t id = 0;
                AllocInfo info{};
                ar.pod(id);
                ar.pod(info);
                allocs_.emplace(id, info);
            }
        } else {
            for (auto &kv : allocs_) {
                std::uint64_t id = kv.first;
                ar.pod(id);
                ar.pod(kv.second);
            }
        }
        ar.pod(next_buffer_id_);
        ar.pod(next_graph_id_);
        ar.pod(next_event_id_);
        ar.pod(next_event_seq_);
        rng_.snapState(ar);
        ar.podVec(kernel_launch_counts_);
        ar.pod(launch_index_);
        ar.pod(any_launch_);
    }

    SystemConfig config_;
    // The registry must be the first member: every component below
    // captures stat pointers into it at construction.
    std::shared_ptr<obs::Registry> obs_;
    // The injector comes right after: the components below hold a
    // pointer to it for their fault sites.
    std::unique_ptr<fault::Injector> fault_;
    tee::TdxModule tdx_;
    pcie::PcieLink link_;
    std::unique_ptr<tee::SecureChannel> channel_;
    gpu::GpuDevice gpu_;
    trace::Tracer tracer_;
    Rng rng_;

    obs::Counter *obs_api_allocs_ = nullptr;
    obs::Counter *obs_api_frees_ = nullptr;
    obs::Counter *obs_api_memcpys_ = nullptr;
    obs::Counter *obs_api_launches_ = nullptr;
    obs::Counter *obs_api_syncs_ = nullptr;
    /** Created lazily on the first advanceHostTo() so closed-loop
     *  runs (and their committed stats baselines) never see it. */
    obs::Counter *obs_idle_waits_ = nullptr;
    obs::Gauge *obs_launch_queue_depth_ = nullptr;

    SimTime host_now_ = 0;
    std::vector<StreamState> streams_;
    std::map<std::uint64_t, AllocInfo> allocs_;
    std::uint64_t next_buffer_id_ = 1;
    std::uint64_t next_graph_id_ = 1;
    std::uint64_t next_event_id_ = 1;
    std::uint64_t next_event_seq_ = 1;
    /** Pre-interned labels for the fixed API event names. */
    struct ApiLabels
    {
        trace::LabelId malloc_device;
        trace::LabelId malloc_host;
        trace::LabelId malloc_managed;
        trace::LabelId free_buffer;
        trace::LabelId memcpy_plain;
        trace::LabelId memcpy_managed;
        trace::LabelId mem_prefetch;
        trace::LabelId memset_device;
        trace::LabelId event_sync;
        trace::LabelId stream_sync;
        trace::LabelId device_sync;
    };
    ApiLabels labels_{};

    /**
     * Restore-in-place fast path: the trace watermarks of the live
     * captures, in capture order.  Each capture on this Context
     * pushes its token + mark; as long as no foreign snapshot was
     * restored since, every stacked capture's events are still an
     * unchanged prefix of the append-only tracer, so restoring *any*
     * of them truncates to its mark instead of replaying ~MBs of
     * section bytes.  Restoring entry i pops everything deeper than
     * i (their marks no longer describe a prefix once new events are
     * appended); a foreign-snapshot restore clears the stack.  The
     * snapshot-tree executor leans on this: a DFS over tree nodes
     * restores ancestors repeatedly and always hits the fast path.
     */
    std::vector<std::pair<std::uint64_t, trace::Tracer::Mark>>
        snap_marks_;
    std::uint64_t snap_token_seq_ = 0;

    /**
     * Launches seen per kernel symbol (first-launch extras), indexed
     * by the symbol's interned trace label.
     */
    std::vector<int> kernel_launch_counts_;

    /** kernel_launch_counts_ slot for @p label, grown on demand. */
    int &
    launchCount(trace::LabelId label)
    {
        if (label >= kernel_launch_counts_.size())
            kernel_launch_counts_.resize(label + 1, 0);
        return kernel_launch_counts_[label];
    }
    /** Global launch ordinal (doorbell batching). */
    int launch_index_ = 0;
    /** Whether any launch happened yet (inter-launch gap). */
    bool any_launch_ = false;
};

} // namespace hcc::rt

#endif // HCC_RUNTIME_CONTEXT_HPP
