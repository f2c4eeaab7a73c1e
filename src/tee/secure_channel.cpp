#include "tee/secure_channel.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/log.hpp"
#include "fault/fault.hpp"

namespace hcc::tee {

namespace {

/**
 * Crypto-worker pool width for a config: Speculative mode widens the
 * pool to the speculation depth so that many seals can actually run
 * ahead of the link.
 */
int
cryptoPoolWidth(const ChannelConfig &config)
{
    const int workers = std::max(1, config.crypto_workers);
    if (config.overlap == OverlapMode::Speculative)
        return std::max(workers, config.spec_depth);
    return workers;
}

/**
 * IV for retry attempt @p attempt (1-based) of a chunk whose primary
 * sequence draw is @p primary.  Attempt 1 is the primary itself;
 * retries re-key byte 4 (the top byte of the 64-bit counter) with
 * the attempt index.  The variants are unique as long as fewer than
 * 2^56 IVs have been issued on the channel — far beyond any transfer
 * volume the model sees — and, crucially, derivation consumes no
 * extra sequence positions, so the IV stream advances by exactly one
 * per chunk on every functional path.
 */
crypto::GcmIv
ivForAttempt(const crypto::GcmIv &primary, int attempt)
{
    crypto::GcmIv iv = primary;
    if (attempt > 1)
        iv[4] = static_cast<std::uint8_t>(attempt - 1);
    return iv;
}

} // namespace

const char *
overlapModeName(OverlapMode mode)
{
    switch (mode) {
    case OverlapMode::None:
        return "none";
    case OverlapMode::DoubleBuffer:
        return "double-buffer";
    case OverlapMode::Speculative:
        return "speculative";
    }
    return "none";
}

std::optional<OverlapMode>
parseOverlapMode(const std::string &name)
{
    for (const OverlapMode mode :
         {OverlapMode::None, OverlapMode::DoubleBuffer,
          OverlapMode::Speculative})
        if (name == overlapModeName(mode))
            return mode;
    return std::nullopt;
}

SecureChannel::SecureChannel(const ChannelConfig &config,
                             const SpdmSession &session,
                             obs::Registry *obs,
                             fault::Injector *fault)
    : config_(config),
      cpu_model_(config.cpu),
      crypto_workers_("cc.crypto", cryptoPoolWidth(config)),
      gpu_crypto_("cc.gpu_crypto"),
      stage_("cc.stage"),
      pool_(config.chunk_bytes, config.bounce_slots, obs),
      gcm_(session.key(), obs),
      iv_seq_(static_cast<std::uint32_t>(session.sessionId())),
      obs_(obs),
      fault_(fault)
{
    if (config.chunk_bytes == 0)
        fatal("secure channel chunk size must be positive");
    if (config.crypto_workers < 1)
        fatal("secure channel needs at least one crypto worker");
    if (config.overlap == OverlapMode::Speculative
        && config.spec_depth < 1)
        fatal("speculative overlap needs a positive spec depth");
    if (config_.overlap == OverlapMode::Speculative
        && config_.spec_depth > std::max(1, config_.crypto_workers)) {
        // The seal pool is silently widened (cryptoPoolWidth) past
        // the configured worker count so the requested depth is
        // reachable.  Warn once per process and count the condition
        // per channel, so ablation dumps show which cells depended
        // on the implicit widening rather than on --crypto-workers.
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn("speculative spec_depth %d exceeds the %d "
                 "configured crypto worker(s); widening the seal "
                 "pool to the depth",
                 config_.spec_depth,
                 std::max(1, config_.crypto_workers));
        if (obs)
            obs->counter("tee.channel.spec_depth_clamped").add(1);
    }
    if (obs) {
        crypto_workers_.attachObs(obs, "sim.timeline.cc_crypto");
        gpu_crypto_.attachObs(obs, "sim.timeline.cc_gpu_crypto");
        obs_transfers_ = &obs->counter("tee.channel.transfers");
        obs_chunks_ = &obs->counter("tee.channel.chunks");
        obs_bytes_h2d_ = &obs->counter("tee.bounce.bytes_h2d");
        obs_bytes_d2h_ = &obs->counter("tee.bounce.bytes_d2h");
        obs_gcm_blocks_ = &obs->counter("crypto.aes_gcm.blocks");
        if (config_.overlap != OverlapMode::None)
            stage_.attachObs(obs, "sim.timeline.cc_stage");
    }
    bindPipelineCounters();
}

void
SecureChannel::bindPipelineCounters()
{
    // Created only under the pipelined overlap modes, so
    // OverlapMode::None dumps carry no tee.channel.pipeline.* stats.
    const bool on = obs_ != nullptr && config_.overlap != OverlapMode::None;
    const auto bind = [&](const char *name) {
        return on ? &obs_->counter(name) : nullptr;
    };
    obs_pipe_seal_ = bind("tee.channel.pipeline.seal_busy_ps");
    obs_pipe_stage_ = bind("tee.channel.pipeline.stage_busy_ps");
    obs_pipe_dma_ = bind("tee.channel.pipeline.dma_busy_ps");
    obs_pipe_open_ = bind("tee.channel.pipeline.open_busy_ps");
    obs_pipe_hidden_ = bind("tee.channel.pipeline.hidden_crypto_ps");
    obs_pipe_spec_hits_ = bind("tee.channel.pipeline.spec_hits");
    obs_pipe_spec_misses_ = bind("tee.channel.pipeline.spec_misses");
}

SimTime
SecureChannel::stageCopyCost(Bytes bytes, pcie::Direction dir) const
{
    // Step c: a streaming copy of the ciphertext into (or out of)
    // the shared slot.
    SimTime copy = transferTime(bytes, config_.bounce_copy_gbps);
    if (dir == pcie::Direction::DeviceToHost) {
        // Inbound data lands in shared bounce pages and must be
        // scrubbed into TD-private pages with per-page handling.
        const Bytes pages =
            (bytes + calib::kUvmPageBytes - 1) / calib::kUvmPageBytes;
        copy += calib::kCcInboundPerPage
            * static_cast<SimTime>(pages);
    }
    return copy;
}

SimTime
SecureChannel::workerChunkCost(Bytes bytes, pcie::Direction dir) const
{
    // Steps b + c run serially on one worker: authenticated
    // encryption at the modeled single-core rate, then the staging
    // copy.
    return cpu_model_.cost(config_.algo, bytes, 1)
        + stageCopyCost(bytes, dir);
}

TransferTiming
SecureChannel::scheduleTransfer(SimTime ready, Bytes bytes,
                                pcie::Direction dir,
                                pcie::PcieLink &link, TdxModule &tdx)
{
    TransferTiming timing;
    bytes_ += bytes;
    if (obs_transfers_) {
        obs_transfers_->add(1);
        (dir == pcie::Direction::HostToDevice ? obs_bytes_h2d_
                                              : obs_bytes_d2h_)
            ->add(bytes);
    }

    // Fixed per-transfer control path: command submission doorbell
    // plus a guest<->host round trip to program the copy engine.
    SimTime t = ready;
    t += tdx.mmioDoorbell();
    t += tdx.guestHostRoundTrips(1);
    timing.fixed_overhead = t - ready;

    if (bytes == 0) {
        timing.total = {ready, t};
        return timing;
    }

    if (config_.tee_io) {
        // Hardware link encryption: DMA straight from private memory
        // at a small bandwidth tax, no software stages.
        const double gbps =
            link.config().effective_gbps * calib::kTeeIoEfficiency;
        const auto iv = link.dma(t, bytes, dir, gbps);
        timing.dma_busy = iv.duration();
        timing.chunks = 1;
        timing.total = {ready, iv.end};
        return timing;
    }

    timing.total = {ready, scheduleChunks(timing, t, bytes, dir, link)};
    return timing;
}

SimTime
SecureChannel::scheduleChunks(TransferTiming &timing, SimTime t,
                              Bytes bytes, pcie::Direction dir,
                              pcie::PcieLink &link)
{
    // Chunked pipeline: seal -> bounce-stage -> DMA -> GPU open, each
    // stage on its own timeline so successive chunks overlap per
    // stage.  D2H runs the stages in the reverse order with the same
    // bottleneck structure; one chain models both, since only the
    // bottleneck and fill time matter.  The tier decides three
    // things: None fuses the staging copy into the seal (steps b+c on
    // one worker) and reserves nothing on stage_; DoubleBuffer makes
    // each seal wait for the previous one (seal_tail_); Speculative
    // seals at chunk readiness under predicted IVs, so up to the
    // widened worker-pool depth run ahead of the link, and draws
    // spec.miss on a chunk's first attempt.
    const OverlapMode mode = config_.overlap;
    const bool fused = mode == OverlapMode::None;
    SimTime done = t;
    sim::Interval prev_dma{0, 0};
    Bytes remaining = bytes;
    while (remaining > 0) {
        const Bytes chunk =
            std::min<Bytes>(remaining, config_.chunk_bytes);
        remaining -= chunk;
        ++timing.chunks;
        const SimTime seal_cost = fused
            ? workerChunkCost(chunk, dir)
            : cpu_model_.cost(config_.algo, chunk, 1);

        // A chunk whose tag fails authentication on the GPU is
        // re-sealed (fresh IV), re-staged and re-sent, so every
        // attempt re-occupies every stage; retries start after an
        // exponential backoff, and exhaustion tears the session down
        // for a full re-attestation before the channel moves on.
        SimTime chunk_ready = t;
        SimTime first_try_end = 0;
        for (int attempt = 1;; ++attempt) {
            if (obs_chunks_) {
                obs_chunks_->add(1);
                // One 16-byte AES block per 16 ciphertext bytes,
                // rounded up -- the work both the CPU and GPU crypto
                // stages do.
                obs_gcm_blocks_->add((chunk + 15) / 16);
            }

            // Step b (with step c when fused): seal on a crypto worker.
            const SimTime seal_ready = mode == OverlapMode::DoubleBuffer
                ? std::max(chunk_ready, seal_tail_)
                : chunk_ready;
            auto seal = crypto_workers_.reserve(seal_ready, seal_cost);
            if (mode == OverlapMode::Speculative && attempt == 1) {
                if (fault_
                    && fault_->shouldInject(fault::Site::SpecMiss)) {
                    // The predicted IV/sequence number was wrong: the
                    // speculatively sealed ciphertext is useless and
                    // the chunk re-seals under the real IV.  The
                    // wasted pass stays charged to the worker pool.
                    const auto reseal =
                        crypto_workers_.reserve(seal.end, seal_cost);
                    fault_->recordRecoverySpan(fault::Site::SpecMiss,
                                               seal.end, reseal.end);
                    timing.encrypt_busy += seal.duration();
                    if (obs_pipe_spec_misses_)
                        obs_pipe_spec_misses_->add(1);
                    seal = reseal;
                } else if (obs_pipe_spec_hits_) {
                    obs_pipe_spec_hits_->add(1);
                }
            }
            timing.encrypt_busy += seal.duration();
            if (!fused) {
                seal_tail_ = std::max(seal_tail_, seal.end);
                // Seal time hidden behind the wire: the part of this
                // seal overlapping the previous chunk's DMA interval.
                const SimTime lo = std::max(seal.start, prev_dma.start);
                const SimTime hi = std::min(seal.end, prev_dma.end);
                if (hi > lo)
                    timing.hidden_crypto += hi - lo;
            }

            // Step c: the ciphertext needs a bounce slot from the
            // moment the copy starts until the DMA drains it.
            auto slot = pool_.acquire(seal.end);
            if (fault_
                && fault_->shouldInject(fault::Site::BounceExhausted)) {
                // Slot exhaustion: the swiotlb allocator found no
                // slot and the channel stalls until the whole pool
                // has drained before retrying the mapping.
                const SimTime drained = std::max(
                    slot.acquired_at, pool_.latestRelease());
                if (drained > slot.acquired_at) {
                    fault_->recordRecoverySpan(
                        fault::Site::BounceExhausted,
                        slot.acquired_at, drained);
                    slot.acquired_at = drained;
                }
            }
            SimTime dma_ready = slot.acquired_at;
            if (!fused) {
                const auto stg = stage_.reserve(
                    slot.acquired_at, stageCopyCost(chunk, dir));
                timing.stage_busy += stg.duration();
                dma_ready = stg.end;
            }

            // Step d: DMA out of the slot.
            const auto dma = link.dma(dma_ready, chunk, dir);
            timing.dma_busy += dma.duration();
            pool_.release(slot, dma.end);

            // Step e: the GPU engine authenticates and decrypts.
            const auto gpu = gpu_crypto_.reserve(
                dma.end, transferTime(chunk, config_.gpu_crypto_gbps));
            timing.gpu_crypto_busy += gpu.duration();

            const bool tag_failed = fault_
                && fault_->shouldInject(fault::Site::ChannelTagMismatch);
            if (!tag_failed) {
                if (attempt > 1)
                    fault_->recordRecoverySpan(
                        fault::Site::ChannelTagMismatch,
                        first_try_end, gpu.end);
                prev_dma = dma;
                done = std::max(done, gpu.end);
                break;
            }
            if (attempt == 1)
                first_try_end = gpu.end;
            if (attempt >= fault::kMaxTransferAttempts) {
                // Give up on the session key: full re-attestation
                // blocks the channel before any further chunk.
                const SimTime resume =
                    gpu.end + SpdmSession::kHandshakeCost;
                fault_->recordRecoverySpan(
                    fault::Site::ChannelTagMismatch,
                    first_try_end, resume);
                t = resume;
                done = std::max(done, resume);
                break;
            }
            chunk_ready = gpu.end + fault::retryBackoff(attempt);
        }
    }

    if (obs_pipe_seal_) {
        obs_pipe_seal_->add(
            static_cast<std::uint64_t>(timing.encrypt_busy));
        obs_pipe_stage_->add(
            static_cast<std::uint64_t>(timing.stage_busy));
        obs_pipe_dma_->add(
            static_cast<std::uint64_t>(timing.dma_busy));
        obs_pipe_open_->add(
            static_cast<std::uint64_t>(timing.gpu_crypto_busy));
        obs_pipe_hidden_->add(
            static_cast<std::uint64_t>(timing.hidden_crypto));
    }
    return done;
}

double
SecureChannel::steadyStateGbps(const pcie::PcieLink &link,
                               pcie::Direction dir) const
{
    if (config_.tee_io)
        return link.config().effective_gbps * calib::kTeeIoEfficiency;
    // The bottleneck stage of scheduleChunks.  Seals run one per
    // worker-pool lane, except that DoubleBuffer serializes them; the
    // staging copy is a stage of its own unless None fuses it into
    // the seal.
    const bool fused = config_.overlap == OverlapMode::None;
    const Bytes chunk = config_.chunk_bytes;
    const auto rate = [&](SimTime cost) {
        return static_cast<double>(chunk)
            / (static_cast<double>(cost) * 1e-3);
    };
    const SimTime seal_cost = fused
        ? workerChunkCost(chunk, dir)
        : cpu_model_.cost(config_.algo, chunk, 1);
    const double lanes = config_.overlap == OverlapMode::DoubleBuffer
        ? 1.0
        : static_cast<double>(crypto_workers_.size());
    double gbps = std::min({rate(seal_cost) * lanes,
                            link.config().effective_gbps,
                            config_.gpu_crypto_gbps});
    if (!fused)
        gbps = std::min(gbps, rate(stageCopyCost(chunk, dir)));
    return gbps;
}

SimTime
SecureChannel::transferDuration(Bytes bytes, const pcie::PcieLink &link,
                                pcie::Direction dir) const
{
    if (bytes == 0)
        return 0;
    if (config_.tee_io) {
        return link.dmaDuration(
            bytes,
            link.config().effective_gbps * calib::kTeeIoEfficiency);
    }
    SimTime total = 0;
    Bytes remaining = bytes;
    while (remaining > 0) {
        const Bytes chunk =
            std::min<Bytes>(remaining, config_.chunk_bytes);
        remaining -= chunk;
        total += workerChunkCost(chunk, dir);
        total += link.dmaDuration(chunk);
        total += transferTime(chunk, config_.gpu_crypto_gbps);
    }
    return total;
}

Status
SecureChannel::transferFunctional(std::span<const std::uint8_t> src,
                                  std::span<std::uint8_t> dst)
{
    HCC_ASSERT(dst.size() >= src.size(),
               "functional transfer destination too small");

    obs::ProfileScope profile(obs_, "channel_functional");
    if (config_.crypto_workers > 1
        && src.size() > config_.chunk_bytes)
        return transferFunctionalParallel(src, dst);
    return transferFunctionalSequential(src, dst);
}

void
SecureChannel::stageFaults(std::vector<std::uint8_t> &stage)
{
    // Step c/d: the ciphertext sits in untrusted shared memory; a
    // malicious hypervisor may do anything to it here.  The injector
    // models that adversary: an injected tag mismatch flips a bit,
    // and the stage hook lets tests and campaigns observe or tamper
    // with the exact wire bytes.
    if (!fault_)
        return;
    if (fault_->shouldInject(fault::Site::ChannelTagMismatch))
        fault_->corrupt(stage);
    if (fault_->stageHook())
        fault_->stageHook()(stage);
}

Status
SecureChannel::transferChunk(std::span<const std::uint8_t> src,
                             std::span<std::uint8_t> dst,
                             std::size_t off,
                             const crypto::GcmIv &primary,
                             int first_attempt)
{
    for (int attempt = first_attempt;
         attempt <= fault::kMaxTransferAttempts; ++attempt) {
        // Step b: seal the chunk.  Retries re-seal under the
        // attempt-derived IV (never the failed one — that ciphertext
        // is torn down, never re-sent) without consuming further
        // sequence positions, so the IV stream advances identically
        // whether or not faults fired and on which functional path.
        const auto iv = ivForAttempt(primary, attempt);
        auto slot = pool_.acquire(0);
        auto &stage = pool_.storage(slot);
        // Exactly ciphertext || tag: the fault layer (corruption and
        // the stage hook) must see only live wire bytes, never a
        // stale slot tail.  Shrinking keeps the slot's capacity.
        stage.resize(src.size() + crypto::kGcmTagLen);
        std::uint8_t tag[crypto::kGcmTagLen];
        gcm_.seal(iv, {}, src,
                  std::span<std::uint8_t>(stage.data(), src.size()),
                  tag);
        std::copy(tag, tag + crypto::kGcmTagLen,
                  stage.begin()
                      + static_cast<std::ptrdiff_t>(src.size()));

        stageFaults(stage);

        // Step e: the far side authenticates and decrypts.
        const bool chunk_ok = gcm_.open(
            iv, {},
            std::span<const std::uint8_t>(stage.data(), src.size()),
            stage.data() + src.size(), dst);
        pool_.release(slot, 0);

        if (chunk_ok) {
            if (attempt > 1 && fault_
                && fault_->armed(fault::Site::ChannelTagMismatch))
                fault_->recordRecovery(
                    fault::Site::ChannelTagMismatch, 0);
            return Status();
        }
    }
    return errorf(ErrorCode::IntegrityError,
                  "chunk at offset %zu failed authentication after "
                  "%d attempts",
                  off, fault::kMaxTransferAttempts);
}

Status
SecureChannel::transferFunctionalSequential(
    std::span<const std::uint8_t> src, std::span<std::uint8_t> dst)
{
    std::size_t off = 0;
    while (off < src.size()) {
        const std::size_t chunk = std::min<std::size_t>(
            config_.chunk_bytes, src.size() - off);
        const auto primary = iv_seq_.next();
        Status st = transferChunk(src.subspan(off, chunk),
                                  dst.subspan(off, chunk), off,
                                  primary, 1);
        if (!st.ok())
            return st;
        off += chunk;
    }
    return Status();
}

Status
SecureChannel::transferFunctionalParallel(
    std::span<const std::uint8_t> src, std::span<std::uint8_t> dst)
{
    // Chunk layout and IVs are fixed up front, in chunk order, so
    // the wire bytes are identical to the sequential path no matter
    // how the workers interleave.
    struct Chunk
    {
        std::size_t off = 0;
        std::size_t len = 0;
        crypto::GcmIv iv{};
    };
    std::vector<Chunk> chunks;
    for (std::size_t off = 0; off < src.size();) {
        const std::size_t len = std::min<std::size_t>(
            config_.chunk_bytes, src.size() - off);
        chunks.push_back({off, len, iv_seq_.next()});
        off += len;
    }

    const auto runParallel = [&](auto &&work) {
        const std::size_t nworkers = std::min<std::size_t>(
            static_cast<std::size_t>(config_.crypto_workers),
            chunks.size());
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> threads;
        threads.reserve(nworkers);
        for (std::size_t w = 0; w < nworkers; ++w) {
            threads.emplace_back([&] {
                for (std::size_t i = next.fetch_add(1);
                     i < chunks.size(); i = next.fetch_add(1))
                    work(i);
            });
        }
        for (auto &t : threads)
            t.join();
    };

    // Phase 1 (parallel): seal each chunk into its own staging
    // buffer as ciphertext || tag.  gcm_ is shared read-only; its
    // obs counters are atomic.
    std::vector<std::vector<std::uint8_t>> staging(chunks.size());
    runParallel([&](std::size_t i) {
        const Chunk &c = chunks[i];
        auto &buf = staging[i];
        buf.resize(c.len + crypto::kGcmTagLen);
        std::uint8_t tag[crypto::kGcmTagLen];
        gcm_.seal(c.iv, {}, src.subspan(c.off, c.len),
                  std::span<std::uint8_t>(buf.data(), c.len), tag);
        std::copy(tag, tag + crypto::kGcmTagLen,
                  buf.begin() + static_cast<std::ptrdiff_t>(c.len));
    });

    // Phase 2 (sequential, chunk order): stage through the bounce
    // pool and expose each ciphertext to the fault layer exactly as
    // the single-worker path does.
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        auto slot = pool_.acquire(0);
        auto &stage = pool_.storage(slot);
        stage.swap(staging[i]);
        stageFaults(stage);
        stage.swap(staging[i]);
        pool_.release(slot, 0);
    }

    // Phase 3 (parallel): authenticate and decrypt into disjoint
    // destination ranges.
    std::vector<std::uint8_t> chunk_ok(chunks.size(), 0);
    runParallel([&](std::size_t i) {
        const Chunk &c = chunks[i];
        const auto &buf = staging[i];
        chunk_ok[i] = gcm_.open(
                          c.iv, {},
                          std::span<const std::uint8_t>(buf.data(),
                                                        c.len),
                          buf.data() + c.len,
                          dst.subspan(c.off, c.len))
            ? 1
            : 0;
    });

    // Chunks that failed authentication retry through the sequential
    // per-chunk path (attempt-derived IVs off the chunk's original
    // draw, same bounce slots); the parallel phases above already
    // consumed attempt 1, so retries resume at attempt 2 — exactly
    // the IVs the sequential path would have used.
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        if (chunk_ok[i])
            continue;
        const Chunk &c = chunks[i];
        Status st = transferChunk(src.subspan(c.off, c.len),
                                  dst.subspan(c.off, c.len), c.off,
                                  c.iv, 2);
        if (!st.ok())
            return st;
    }
    return Status();
}

} // namespace hcc::tee
