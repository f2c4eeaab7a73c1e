#include "runtime/context.hpp"

#include <algorithm>

#include "common/calibration.hpp"
#include "common/log.hpp"
#include "runtime/host_costs.hpp"
#include "snap/archive.hpp"
#include "snap/snap.hpp"
#include "tee/attestation.hpp"

namespace hcc::rt {

const char *
memSpaceName(MemSpace space)
{
    switch (space) {
      case MemSpace::HostPageable: return "host-pageable";
      case MemSpace::HostPinned: return "host-pinned";
      case MemSpace::Device: return "device";
      case MemSpace::Managed: return "managed";
    }
    return "?";
}

namespace {

gpu::GpuConfig
deriveGpuConfig(const SystemConfig &config)
{
    gpu::GpuConfig g = config.gpu;
    g.cc_mode = config.cc;
    g.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
    return g;
}

} // namespace

Context::Context(const SystemConfig &config)
    : config_(config),
      obs_(std::make_shared<obs::Registry>()),
      fault_(std::make_unique<fault::Injector>(config.faults,
                                               config.seed,
                                               obs_.get())),
      tdx_(config.cc, obs_.get(), fault_.get()),
      link_(config.link, obs_.get(), fault_.get()),
      gpu_(deriveGpuConfig(config), obs_.get(), fault_.get()),
      rng_(config.seed)
{
    fault_->attachTracer(&tracer_);
    obs_api_allocs_ = &obs_->counter("runtime.api.allocs");
    obs_api_frees_ = &obs_->counter("runtime.api.frees");
    obs_api_memcpys_ = &obs_->counter("runtime.api.memcpys");
    obs_api_launches_ = &obs_->counter("runtime.api.launches");
    obs_api_syncs_ = &obs_->counter("runtime.api.syncs");
    obs_launch_queue_depth_ =
        &obs_->gauge("runtime.launch_queue.depth");

    // Fixed API event names, interned once so the per-call hot path
    // never touches a string.
    labels_.malloc_device = tracer_.intern("cudaMalloc");
    labels_.malloc_host = tracer_.intern("cudaMallocHost");
    labels_.malloc_managed = tracer_.intern("cudaMallocManaged");
    labels_.free_buffer = tracer_.intern("cudaFree");
    labels_.memcpy_plain = tracer_.intern("memcpy");
    labels_.memcpy_managed = tracer_.intern("memcpy-managed");
    labels_.mem_prefetch = tracer_.intern("memPrefetch");
    labels_.memset_device = tracer_.intern("cudaMemset");
    labels_.event_sync = tracer_.intern("cudaEventSynchronize");
    labels_.stream_sync = tracer_.intern("cudaStreamSynchronize");
    labels_.device_sync = tracer_.intern("cudaDeviceSynchronize");

    streams_.emplace_back();  // stream 0 = default stream
    if (config_.cc) {
        // Binding a CC-mode GPU to the TD: SPDM attestation and
        // session-key establishment, plus generating and verifying
        // the platform quote the tenant demands before trusting the
        // session (Sec. III).  A failed handshake (spdm.handshake
        // fault site) is recovered by re-attesting from scratch —
        // every attempt pays the full handshake cost.
        for (int attempt = 1;; ++attempt) {
            auto session =
                tee::SpdmSession::establish(config_.seed, fault_.get());
            host_now_ += tee::SpdmSession::kHandshakeCost;
            if (session.ok()) {
                channel_ = std::make_unique<tee::SecureChannel>(
                    config_.channel, session.value(), obs_.get(),
                    fault_.get());
                if (attempt > 1)
                    fault_->recordRecoverySpan(
                        fault::Site::SpdmHandshake, 0,
                        (attempt - 1)
                            * tee::SpdmSession::kHandshakeCost);
                break;
            }
            if (attempt >= fault::kMaxHandshakeAttempts)
                fatal("SPDM session setup failed after %d attempts: "
                      "%s",
                      attempt, session.status().message().c_str());
        }
        host_now_ += tee::AttestationService::kQuoteGenCost;
        host_now_ += tee::AttestationService::kQuoteVerifyCost;
    }
}

// -------------------------------------------------------- snapshots

void
Context::captureSnapshot(snap::Snapshot &out)
{
    out.meta.cc = config_.cc;
    out.meta.seed = config_.seed;
    out.meta.sim_time = host_now_;
    const auto save = [&out](const char *name, auto &&fill) {
        snap::Saver ar;
        fill(ar);
        out.add(name) = ar.take();
    };
    save("runtime",
         [this](snap::Saver &ar) { snapRuntimeState(ar); });
    save("obs", [this](snap::Saver &ar) { obs_->snapState(ar); });
    save("fault", [this](snap::Saver &ar) { fault_->snapState(ar); });
    save("tdx", [this](snap::Saver &ar) { tdx_.snapState(ar); });
    save("pcie", [this](snap::Saver &ar) { link_.snapState(ar); });
    if (channel_)
        save("channel",
             [this](snap::Saver &ar) { channel_->snapState(ar); });
    save("gpu", [this](snap::Saver &ar) { gpu_.snapState(ar); });
    save("trace", [this](snap::Saver &ar) { tracer_.snapState(ar); });
    // Arm the truncation fast path for restores of *this* capture on
    // *this* Context.  Earlier captures stay armed too — their
    // events are still a prefix of the append-only tracer — so a
    // snapshot-tree DFS can bounce between ancestor captures without
    // ever replaying trace bytes.
    out.origin = this;
    out.origin_token = ++snap_token_seq_;
    snap_marks_.emplace_back(out.origin_token, tracer_.mark());
}

void
Context::restoreSnapshot(const snap::Snapshot &snap)
{
    if (snap.meta.cc != config_.cc)
        fatal("snapshot mode (%s) does not match this context (%s)",
              snap.meta.cc ? "cc" : "base",
              config_.cc ? "cc" : "base");
    const auto load = [&snap](const char *name, auto &&fill) {
        const auto *sec = snap.find(name);
        if (!sec)
            fatal("snapshot is missing section '%s'", name);
        snap::Loader ar(sec->bytes);
        fill(ar);
        if (!ar.exhausted())
            fatal("snapshot section '%s' has %zu trailing bytes",
                  name, sec->bytes.size() - ar.consumed());
    };
    load("runtime",
         [this](snap::Loader &ar) { snapRuntimeState(ar); });
    load("obs", [this](snap::Loader &ar) { obs_->snapState(ar); });
    load("fault",
         [this](snap::Loader &ar) { fault_->snapState(ar); });
    load("tdx", [this](snap::Loader &ar) { tdx_.snapState(ar); });
    load("pcie", [this](snap::Loader &ar) { link_.snapState(ar); });
    if (channel_)
        load("channel",
             [this](snap::Loader &ar) { channel_->snapState(ar); });
    load("gpu", [this](snap::Loader &ar) { gpu_.snapState(ar); });
    bool truncated = false;
    if (snap.origin == this && snap.origin_token != 0) {
        for (std::size_t i = 0; i < snap_marks_.size(); ++i) {
            if (snap_marks_[i].first != snap.origin_token)
                continue;
            // This capture's events are still an unchanged prefix of
            // the append-only tracer (recording only appends, and no
            // foreign snapshot has been restored since): rewind by
            // truncation.  Deeper captures' marks stop being
            // prefixes the moment new events land past this one —
            // drop them now.
            tracer_.truncateTo(snap_marks_[i].second);
            snap_marks_.resize(i + 1);
            truncated = true;
            break;
        }
    }
    if (!truncated) {
        load("trace",
             [this](snap::Loader &ar) { tracer_.snapState(ar); });
        // The byte load rewrote the pages; no live capture's mark
        // describes a prefix of what's in the tracer any more.
        snap_marks_.clear();
    }
}

void
Context::reseedAtFork(std::uint64_t seed)
{
    config_.seed = seed;
    // Mirror construction-time derivation exactly (see the Context
    // constructor and deriveGpuConfig): each component's generator
    // lands on the state it would hold freshly seeded with `seed`.
    rng_ = Rng(seed);
    gpu_.reseedAtFork(seed ^ 0x9e3779b97f4a7c15ULL);
    fault_->arm(config_.faults, seed);
}

Context::StreamState &
Context::streamState(const Stream &stream)
{
    const auto idx = static_cast<std::size_t>(stream.id());
    if (idx >= streams_.size())
        fatal("unknown stream %d", stream.id());
    return streams_[idx];
}

gpu::TransferContext
Context::transferContext()
{
    return gpu::TransferContext{link_, tdx_, channel_.get()};
}

gpu::HostMemKind
Context::hostKindOf(MemSpace space) const
{
    switch (space) {
      case MemSpace::HostPageable: return gpu::HostMemKind::Pageable;
      case MemSpace::HostPinned: return gpu::HostMemKind::Pinned;
      case MemSpace::Managed: return gpu::HostMemKind::Managed;
      case MemSpace::Device: break;
    }
    panic("device space has no host memory kind");
}

// ----------------------------------------------------------- memory

Buffer
Context::mallocDevice(Bytes bytes)
{
    obs_api_allocs_->add(1);
    const SimTime start = host_now_;
    host_now_ += deviceAllocCost(bytes, tdx_);
    Buffer buf{next_buffer_id_++, MemSpace::Device, bytes, 0};
    allocs_[buf.id] = {.space = buf.space, .bytes = bytes};
    tracer_.record({.start = start, .end = host_now_, .bytes = bytes,
                    .label = labels_.malloc_device,
                    .kind = trace::EventKind::MallocDevice});
    return buf;
}

Buffer
Context::mallocHost(Bytes bytes)
{
    obs_api_allocs_->add(1);
    const SimTime start = host_now_;
    host_now_ += hostAllocCost(bytes, tdx_);
    Buffer buf{next_buffer_id_++, MemSpace::HostPinned, bytes, 0};
    allocs_[buf.id] = {.space = buf.space, .bytes = bytes};
    tracer_.record({.start = start, .end = host_now_, .bytes = bytes,
                    .label = labels_.malloc_host,
                    .kind = trace::EventKind::MallocHost});
    return buf;
}

Buffer
Context::mallocManaged(Bytes bytes)
{
    obs_api_allocs_->add(1);
    const SimTime start = host_now_;
    host_now_ += managedAllocCost(bytes, tdx_);
    const std::uint64_t handle = gpu_.uvm().createAllocation(bytes);
    Buffer buf{next_buffer_id_++, MemSpace::Managed, bytes, handle};
    allocs_[buf.id] = {.space = buf.space, .bytes = bytes,
                       .uvm_handle = handle};
    tracer_.record({.start = start, .end = host_now_, .bytes = bytes,
                    .label = labels_.malloc_managed,
                    .kind = trace::EventKind::MallocManaged});
    return buf;
}

Buffer
Context::hostPageable(Bytes bytes)
{
    // Plain malloc: no driver involvement, no trace event.
    Buffer buf{next_buffer_id_++, MemSpace::HostPageable, bytes, 0};
    allocs_[buf.id] = {.space = buf.space, .bytes = bytes};
    return buf;
}

void
Context::free(Buffer &buffer)
{
    if (!buffer.valid())
        fatal("freeing an invalid buffer");
    const auto it = allocs_.find(buffer.id);
    if (it == allocs_.end())
        fatal("double free or foreign buffer %llu",
              static_cast<unsigned long long>(buffer.id));
    const AllocInfo info = it->second;
    allocs_.erase(it);
    obs_api_frees_->add(1);

    if (info.space == MemSpace::HostPageable) {
        buffer.id = 0;  // plain free, no driver cost
        return;
    }
    const SimTime start = host_now_;
    if (info.space == MemSpace::Managed) {
        host_now_ += managedFreeCost(info.bytes, tdx_);
        gpu_.uvm().freeAllocation(info.uvm_handle);
    } else {
        host_now_ += freeCost(info.bytes, tdx_);
    }
    tracer_.record({.start = start, .end = host_now_, .bytes = info.bytes,
                    .label = labels_.free_buffer,
                    .kind = trace::EventKind::Free});
    buffer.id = 0;
}

void
Context::cpuTouchManaged(const Buffer &buffer)
{
    if (buffer.space != MemSpace::Managed)
        fatal("cpuTouchManaged on a %s buffer",
              memSpaceName(buffer.space));
    gpu_.uvm().invalidateDeviceResidency(buffer.uvm_handle);
}

// -------------------------------------------------------- transfers

void
Context::memcpyImpl(const Buffer &dst, const Buffer &src, Bytes bytes,
                    StreamState *async_stream)
{
    if (!dst.valid() || !src.valid())
        fatal("memcpy with an invalid buffer");
    if (bytes > dst.bytes || bytes > src.bytes) {
        fatal("memcpy of %llu bytes exceeds a buffer "
              "(dst %llu, src %llu)",
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(dst.bytes),
              static_cast<unsigned long long>(src.bytes));
    }

    obs_api_memcpys_->add(1);
    const bool dst_dev = dst.space == MemSpace::Device;
    const bool src_dev = src.space == MemSpace::Device;
    auto ctx = transferContext();

    const SimTime api_start = host_now_;
    host_now_ += calib::kMemcpySetupBase;

    const SimTime ready = async_stream
        ? std::max(host_now_, async_stream->device_ready)
        : host_now_;

    gpu::CopyTiming timing;
    trace::EventKind kind;
    if (dst_dev && src_dev) {
        timing = gpu_.executeCopyD2D(ready, bytes, ctx);
        kind = trace::EventKind::MemcpyD2D;
    } else if (dst_dev || src_dev) {
        const auto dir = dst_dev ? pcie::Direction::HostToDevice
                                 : pcie::Direction::DeviceToHost;
        const MemSpace host_space = dst_dev ? src.space : dst.space;
        if (host_space == MemSpace::Managed) {
            // Explicit copies against managed memory behave like
            // prefetch/writeback of the managed range.
            const auto &managed = dst_dev ? src : dst;
            if (dir == pcie::Direction::HostToDevice)
                gpu_.uvm().markResident(managed.uvm_handle, bytes);
            else
                gpu_.uvm().invalidateDeviceResidency(
                    managed.uvm_handle);
        } else if (dst.space == MemSpace::Managed) {
            // host-pageable/pinned -> managed: data lands host-side.
            gpu_.uvm().invalidateDeviceResidency(dst.uvm_handle);
        }
        timing = gpu_.executeCopy(ready, bytes, dir,
                                  hostKindOf(host_space), ctx);
        kind = dir == pcie::Direction::HostToDevice
            ? trace::EventKind::MemcpyH2D
            : trace::EventKind::MemcpyD2H;
    } else if ((dst.space == MemSpace::Managed)
               != (src.space == MemSpace::Managed)) {
        // Host <-> managed while the managed range is host-resident:
        // a plain CPU copy, after which the managed data lives on
        // the host side.
        const auto &managed =
            dst.space == MemSpace::Managed ? dst : src;
        gpu_.uvm().invalidateDeviceResidency(managed.uvm_handle);
        host_now_ += transferTime(bytes, calib::kHostMemcpyGBs);
        return;  // not a device transfer: no trace event
    } else {
        fatal("host-to-host memcpy is not mediated by the runtime");
    }

    // Under CC, pinned/managed copies ride encrypted paging and the
    // profiler reclassifies them as managed D2D transfers (Fig. 5).
    if (timing.encrypted_paging)
        kind = trace::EventKind::MemcpyD2D;

    trace::TraceEvent ev;
    ev.kind = kind;
    ev.label = timing.encrypted_paging ? labels_.memcpy_managed
                                       : labels_.memcpy_plain;
    ev.start = timing.total.start;
    ev.end = timing.total.end;
    ev.bytes = bytes;
    ev.encrypted_paging = timing.encrypted_paging;

    if (async_stream) {
        host_now_ = api_start + calib::kAsyncIssueCost;
        async_stream->device_ready =
            std::max(async_stream->device_ready, timing.total.end);
        ev.stream = static_cast<int>(async_stream - streams_.data());
    } else {
        // Blocking semantics: the host rides the copy to completion.
        host_now_ = std::max(host_now_, timing.total.end);
        ev.stream = -1;
    }
    tracer_.record(std::move(ev));
}

void
Context::memcpy(const Buffer &dst, const Buffer &src, Bytes bytes)
{
    memcpyImpl(dst, src, bytes, nullptr);
}

void
Context::memcpyAsync(const Buffer &dst, const Buffer &src, Bytes bytes,
                     const Stream &stream)
{
    memcpyImpl(dst, src, bytes, &streamState(stream));
}

void
Context::memPrefetch(const Buffer &buffer, bool to_device)
{
    if (buffer.space != MemSpace::Managed)
        fatal("memPrefetch on a %s buffer",
              memSpaceName(buffer.space));
    auto ctx = transferContext();
    auto &uvm = gpu_.uvm();
    if (!to_device) {
        uvm.invalidateDeviceResidency(buffer.uvm_handle);
        host_now_ += calib::kSyncApiCost;
        return;
    }
    const Bytes missing =
        buffer.bytes - uvm.residentBytes(buffer.uvm_handle);
    if (missing == 0)
        return;
    const SimTime api_start = host_now_;
    host_now_ += calib::kMemcpySetupBase;
    const auto timing = gpu_.executeCopy(
        host_now_, missing, pcie::Direction::HostToDevice,
        gpu::HostMemKind::Managed, ctx);
    uvm.markResident(buffer.uvm_handle, buffer.bytes);
    host_now_ = std::max(host_now_, timing.total.end);

    trace::TraceEvent ev;
    ev.kind = timing.encrypted_paging ? trace::EventKind::MemcpyD2D
                                      : trace::EventKind::MemcpyH2D;
    ev.label = labels_.mem_prefetch;
    ev.start = api_start;
    ev.end = host_now_;
    ev.bytes = missing;
    ev.encrypted_paging = timing.encrypted_paging;
    tracer_.record(std::move(ev));
}

// ---------------------------------------------------------- kernels

SimTime
Context::launchImpl(const gpu::KernelDesc &kernel, StreamState &stream)
{
    obs_api_launches_->bump(1);
    SimTime lqt = 0;

    // Dispatch gap between consecutive launches.
    if (any_launch_) {
        const SimTime gap = interLaunchGap(config_.cc, rng_);
        host_now_ += gap;
        lqt += gap;
    }
    any_launch_ = true;

    // Software launch queue back-pressure: block until there is room.
    auto &pending = stream.pending;
    while (!pending.empty() && pending.front() <= host_now_)
        pending.pop_front();
    while (static_cast<int>(pending.size())
           >= calib::kLaunchQueueDepth) {
        const SimTime drain = pending.front();
        pending.pop_front();
        if (drain > host_now_) {
            lqt += drain - host_now_;
            host_now_ = drain;
        }
    }

    // The launch operation itself (KLO).
    const trace::LabelId klabel = tracer_.intern(kernel.name);
    const int prior = launchCount(klabel)++;
    const SimTime klo = launchOverhead(
        prior, launch_index_++, kernel.module_bytes, tdx_, rng_);
    const SimTime launch_start = host_now_;
    host_now_ += klo;

    trace::TraceEvent launch_ev;
    launch_ev.kind = trace::EventKind::Launch;
    launch_ev.label = klabel;
    launch_ev.start = launch_start;
    launch_ev.end = host_now_;
    launch_ev.stream = static_cast<int>(&stream - streams_.data());
    launch_ev.queue_wait = lqt;
    // Profilers report the module/binary size with the launch; the
    // CC projector uses it to price first-launch uploads.
    launch_ev.bytes = kernel.module_bytes > 0
        ? kernel.module_bytes : calib::kDefaultModuleBytes;
    const auto corr = tracer_.record(launch_ev);

    // Device side.
    auto ctx = transferContext();
    const auto sched =
        gpu_.executeKernel(host_now_, stream.device_ready, kernel, ctx);
    stream.device_ready = sched.end;
    pending.push_back(sched.end);
    obs_launch_queue_depth_->set(
        static_cast<std::int64_t>(pending.size()), host_now_);

    trace::TraceEvent kernel_ev;
    kernel_ev.kind = trace::EventKind::Kernel;
    kernel_ev.label = klabel;
    kernel_ev.start = sched.start;
    kernel_ev.end = sched.end;
    kernel_ev.stream = launch_ev.stream;
    kernel_ev.correlation = corr;
    kernel_ev.queue_wait = sched.kqt();
    tracer_.record(kernel_ev);
    return sched.end;
}

void
Context::launchKernel(const gpu::KernelDesc &kernel)
{
    launchImpl(kernel, streams_.front());
}

void
Context::launchKernel(const gpu::KernelDesc &kernel,
                      const Stream &stream)
{
    launchImpl(kernel, streamState(stream));
}

// ----------------------------------------------------------- graphs

GraphExec
Context::instantiateGraph(std::string name,
                          std::vector<gpu::KernelDesc> nodes)
{
    if (nodes.empty())
        fatal("graph '%s' has no nodes", name.c_str());
    GraphExec g;
    g.id_ = next_graph_id_++;
    g.name_ = std::move(name);
    g.instantiate_cost_ = calib::kGraphInstantiateFixed
        + calib::kGraphInstantiatePerNode
            * static_cast<SimTime>(nodes.size());
    g.nodes_ = std::move(nodes);
    host_now_ += g.instantiate_cost_;
    return g;
}

void
Context::launchGraph(const GraphExec &graph, const Stream &stream)
{
    obs_api_launches_->bump(1);
    auto &s = streamState(stream);
    SimTime lqt = 0;
    if (any_launch_) {
        const SimTime gap = interLaunchGap(config_.cc, rng_);
        host_now_ += gap;
        lqt += gap;
    }
    any_launch_ = true;

    // One host-side launch operation for the whole graph; first
    // launch uploads the largest constituent module.
    Bytes module = 0;
    for (const auto &node : graph.nodes())
        module = std::max(module, node.module_bytes);
    const trace::LabelId gcount_label =
        tracer_.intern("graph:" + graph.name());
    const int prior = launchCount(gcount_label)++;
    const SimTime klo = launchOverhead(prior, launch_index_++, module,
                                       tdx_, rng_);
    const SimTime launch_start = host_now_;
    host_now_ += klo;

    trace::TraceEvent launch_ev;
    launch_ev.kind = trace::EventKind::GraphLaunch;
    launch_ev.label = tracer_.intern(graph.name());
    launch_ev.start = launch_start;
    launch_ev.end = host_now_;
    launch_ev.stream = stream.id();
    launch_ev.queue_wait = lqt;
    launch_ev.bytes =
        module > 0 ? module : calib::kDefaultModuleBytes;
    const auto corr = tracer_.record(launch_ev);

    // The device dispatches nodes without further host involvement.
    auto ctx = transferContext();
    SimTime dispatch = host_now_;
    for (const auto &node : graph.nodes()) {
        dispatch += calib::kGraphNodeDispatch;
        const auto sched =
            gpu_.executeKernel(dispatch, s.device_ready, node, ctx);
        s.device_ready = sched.end;
        s.pending.push_back(sched.end);
        obs_launch_queue_depth_->set(
            static_cast<std::int64_t>(s.pending.size()), dispatch);

        trace::TraceEvent kernel_ev;
        kernel_ev.kind = trace::EventKind::Kernel;
        kernel_ev.label = tracer_.intern(node.name);
        kernel_ev.start = sched.start;
        kernel_ev.end = sched.end;
        kernel_ev.stream = stream.id();
        kernel_ev.correlation = corr;
        kernel_ev.queue_wait = sched.kqt();
        tracer_.record(kernel_ev);
    }
}

void
Context::launchGraph(const GraphExec &graph)
{
    launchGraph(graph, defaultStream());
}

// ---------------------------------------------------------- streams

Stream
Context::createStream()
{
    streams_.emplace_back();
    return Stream(static_cast<int>(streams_.size() - 1));
}

void
Context::memsetDevice(const Buffer &buffer, Bytes bytes)
{
    if (buffer.space != MemSpace::Device)
        fatal("memsetDevice on a %s buffer",
              memSpaceName(buffer.space));
    if (bytes > buffer.bytes)
        fatal("memset of %llu bytes exceeds the %llu-byte buffer",
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(buffer.bytes));
    // The driver enqueues a fill kernel; model it as a D2D-class
    // blit writing at HBM bandwidth.
    auto ctx = transferContext();
    const auto timing = gpu_.executeCopyD2D(host_now_, bytes, ctx);
    host_now_ = std::max(host_now_, timing.total.end);

    trace::TraceEvent ev;
    ev.kind = trace::EventKind::MemcpyD2D;
    ev.label = labels_.memset_device;
    ev.start = timing.total.start;
    ev.end = timing.total.end;
    ev.bytes = bytes;
    tracer_.record(std::move(ev));
}

// ------------------------------------------------------------ events

Event
Context::recordEvent(const Stream &stream)
{
    auto &s = streamState(stream);
    // Recording is a lightweight semaphore packet on the stream.
    host_now_ += calib::kAsyncIssueCost / 2;
    return Event(next_event_id_++, s.device_ready,
                 next_event_seq_++);
}

Event
Context::recordEvent()
{
    return recordEvent(defaultStream());
}

SimTime
Context::eventElapsed(const Event &earlier, const Event &later) const
{
    if (earlier.seq_ > later.seq_) {
        fatal("eventElapsed: events passed in reverse record order");
    }
    return later.when_ - earlier.when_;
}

void
Context::streamWaitEvent(const Stream &stream, const Event &event)
{
    auto &s = streamState(stream);
    s.device_ready = std::max(s.device_ready, event.when_);
    host_now_ += calib::kAsyncIssueCost / 2;
}

void
Context::eventSynchronize(const Event &event)
{
    obs_api_syncs_->add(1);
    const SimTime start = host_now_;
    host_now_ = std::max(host_now_, event.when_);
    host_now_ += calib::kSyncApiCost;
    tracer_.record({.start = start, .end = host_now_,
                    .label = labels_.event_sync,
                    .kind = trace::EventKind::Sync});
}

// ------------------------------------------------------------- sync

void
Context::streamSynchronize(const Stream &stream)
{
    obs_api_syncs_->add(1);
    auto &s = streamState(stream);
    const SimTime start = host_now_;
    host_now_ = std::max(host_now_, s.device_ready);
    host_now_ += calib::kSyncApiCost;
    s.pending.clear();
    tracer_.record({.start = start, .end = host_now_,
                    .label = labels_.stream_sync, .stream = stream.id(),
                    .kind = trace::EventKind::Sync});
}

void
Context::deviceSynchronize()
{
    obs_api_syncs_->add(1);
    const SimTime start = host_now_;
    SimTime target = host_now_;
    for (auto &s : streams_) {
        target = std::max(target, s.device_ready);
        s.pending.clear();
    }
    host_now_ = target + calib::kSyncApiCost;
    tracer_.record({.start = start, .end = host_now_,
                    .label = labels_.device_sync,
                    .kind = trace::EventKind::Sync});
}

void
Context::advanceHostTo(SimTime when)
{
    if (when <= host_now_)
        return;
    // Lazily created: closed-loop runs never call this, so their
    // stats dumps (and the committed CI baselines diffed against
    // them) do not grow a counter that is always zero for them.
    if (obs_idle_waits_ == nullptr)
        obs_idle_waits_ = &obs_->counter("runtime.api.idle_waits");
    obs_idle_waits_->add(1);
    host_now_ = when;
}

} // namespace hcc::rt
