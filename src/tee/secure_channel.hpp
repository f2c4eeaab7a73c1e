/**
 * @file
 * The CC transfer path: software AES-GCM through the bounce buffer.
 *
 * Under CC every CPU<->GPU copy follows the five steps of Sec. VI-A:
 *   a) prepare data in TD-private memory,
 *   b) encrypt with software AES-GCM (AES-NI, single worker thread
 *      unless the PipeLLM-style ablation raises the worker count),
 *   c) copy ciphertext into the hypervisor-managed bounce buffer,
 *   d) DMA from the bounce buffer to the GPU,
 *   e) decrypt on the GPU into HBM.
 * Steps b+c run serially on one CPU worker per chunk; successive
 * chunks pipeline across the worker, the PCIe link and the GPU
 * crypto engine.  The resulting steady-state throughput is
 * 1/(1/GCM + 1/bounce-copy) ~ 3.03 GB/s, the paper's measured CC
 * peak, and small transfers are dominated by the fixed hypercall and
 * setup costs — reproducing both ends of Fig. 4a.
 *
 * The class also implements the path *functionally*: real bytes are
 * sealed with the from-scratch AES-GCM, staged through real bounce
 * slots, and opened on the other side.  The fault::Injector's stage
 * hook exposes every staged ciphertext chunk while it sits in
 * untrusted shared memory, so integrity tests and fault campaigns
 * prove the guarantee through one mechanism; authentication failures
 * surface as recoverable Status values after bounded retry.
 */

#ifndef HCC_TEE_SECURE_CHANNEL_HPP
#define HCC_TEE_SECURE_CHANNEL_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/calibration.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "crypto/cpu_crypto_model.hpp"
#include "crypto/gcm.hpp"
#include "pcie/link.hpp"
#include "sim/timeline.hpp"
#include "tee/bounce_buffer.hpp"
#include "tee/spdm.hpp"
#include "tee/tdx.hpp"

namespace hcc::tee {

/**
 * Transfer/compute overlap tier of the channel scheduler.
 *
 * Every tier pipelines chunks across the crypto workers, the PCIe
 * link and the GPU crypto engine; the tiers differ in what a chunk
 * reserves on the CPU side.
 *
 *  - None: the stock CC path of Sec. VI-A — steps b+c (seal, then the
 *    bounce copy) are fused on one worker per chunk, so the CPU-side
 *    stage runs at the fused rate, ~3.03 GB/s per worker.
 *  - DoubleBuffer: the paper's coarse mitigation — the bounce copy
 *    becomes a stage of its own, so the next chunk may seal while
 *    the previous one is staged or on the wire, but seals stay
 *    serialized (one staging buffer ahead).
 *  - Speculative: PipeLLM-style IV/sequence-number prediction — up to
 *    spec_depth chunks seal concurrently ahead of the link; a missed
 *    prediction (fault::Site::SpecMiss) re-seals the chunk under the
 *    real IV and is charged as a recovery span.
 */
enum class OverlapMode
{
    None,
    DoubleBuffer,
    Speculative,
};

/** Canonical flag spelling: "none", "double-buffer", "speculative". */
const char *overlapModeName(OverlapMode mode);

/** Parse a canonical overlap-mode name; nullopt when unknown. */
std::optional<OverlapMode> parseOverlapMode(const std::string &name);

/** Tunables of the secure transfer path. */
struct ChannelConfig
{
    /** Bulk cipher used for PCIe traffic. */
    crypto::CipherAlgo algo = crypto::CipherAlgo::AesGcm128;
    /** Parallel CPU encryption workers (1 = stock driver). */
    int crypto_workers = 1;
    /** Staging chunk size. */
    Bytes chunk_bytes = calib::kBounceChunkBytes;
    /** Bounce pool slot count. */
    int bounce_slots = calib::kBounceSlots;
    /** Streaming copy bandwidth into the bounce buffer, GB/s. */
    double bounce_copy_gbps = calib::kBounceCopyGBs;
    /** GPU-side crypto engine bandwidth, GB/s. */
    double gpu_crypto_gbps = calib::kGpuCryptoGBs;
    /**
     * Ablation: hypothetical TEE-IO / IDE hardware path — skips the
     * software crypto and bounce staging entirely and runs DMA at a
     * slightly taxed line rate.
     */
    bool tee_io = false;
    /** CPU whose crypto throughput is modeled. */
    crypto::CpuKind cpu = crypto::CpuKind::IntelEmr;
    /** Scheduler overlap tier (see OverlapMode). */
    OverlapMode overlap = OverlapMode::None;
    /**
     * Speculation depth: chunks sealed ahead under predicted IVs
     * (Speculative mode only; the crypto-worker pool is widened to at
     * least this many lanes so the depth is actually reachable).
     */
    int spec_depth = 4;
};

/**
 * Timing breakdown of one scheduled secure transfer.
 *
 * Under OverlapMode::None, encrypt_busy carries the fused steps b+c
 * (encrypt + bounce copy) and stage_busy stays 0; the pipelined
 * modes split them: encrypt_busy is the seal stage alone (including
 * wasted speculative passes) and stage_busy the bounce-copy stage.
 */
struct TransferTiming
{
    sim::Interval total;
    SimTime encrypt_busy = 0;   //!< CPU worker busy time (step b [+c])
    SimTime stage_busy = 0;     //!< bounce-copy stage busy (step c)
    SimTime dma_busy = 0;       //!< link occupancy (step d)
    SimTime gpu_crypto_busy = 0;//!< GPU engine busy time (step e)
    SimTime fixed_overhead = 0; //!< hypercalls, doorbell, setup
    /** Seal time hidden behind the previous chunk's DMA interval
     *  (pipelined modes only; 0 under OverlapMode::None). */
    SimTime hidden_crypto = 0;
    int chunks = 0;
};

/**
 * One CC-mode transfer channel between a TD and its GPU.
 */
class SecureChannel
{
  public:
    /**
     * @param obs optional stats sink; publishes
     *        "tee.channel.{transfers,chunks}",
     *        "tee.bounce.bytes_{h2d,d2h}",
     *        "crypto.aes_gcm.blocks" and, via the owned pool/GCM,
     *        the "tee.bounce.*" and "crypto.aes_gcm.*" stats.  The
     *        internal timelines attach as
     *        "sim.timeline.cc_{crypto,gpu_crypto}.*"; the pipelined
     *        overlap modes additionally attach the bounce-copy stage
     *        as "sim.timeline.cc_stage.*" and publish the per-stage
     *        "tee.channel.pipeline.{seal_busy_ps,stage_busy_ps,
     *        dma_busy_ps,open_busy_ps,hidden_crypto_ps,spec_hits,
     *        spec_misses}" counters (absent under OverlapMode::None
     *        so serial stats dumps stay byte-identical).
     * @param fault optional injector arming the
     *        "channel.tag_mismatch", "bounce.exhausted" and (in
     *        Speculative mode) "spec.miss" sites and carrying the
     *        stage hook of the functional path.
     */
    SecureChannel(const ChannelConfig &config,
                  const SpdmSession &session,
                  obs::Registry *obs = nullptr,
                  fault::Injector *fault = nullptr);

    /**
     * Schedule a transfer of @p bytes in direction @p dir, ready at
     * @p ready, through @p link, charging TDX costs to @p tdx.
     */
    TransferTiming scheduleTransfer(SimTime ready, Bytes bytes,
                                    pcie::Direction dir,
                                    pcie::PcieLink &link,
                                    TdxModule &tdx);

    /**
     * Asymptotic throughput of the path in GB/s (ignoring fixed
     * costs): the bottleneck pipeline stage.
     */
    double steadyStateGbps(const pcie::PcieLink &link,
                           pcie::Direction dir
                               = pcie::Direction::HostToDevice) const;

    /**
     * Unpipelined duration of pushing @p bytes through the path once
     * (encrypt + copy + DMA + GPU decrypt back-to-back), with no
     * fixed control-path costs and no resource reservations.  Used
     * for UVM fault-batch migration, whose batches are far below the
     * pipelining granularity.
     */
    SimTime transferDuration(Bytes bytes, const pcie::PcieLink &link,
                             pcie::Direction dir
                                 = pcie::Direction::HostToDevice)
        const;

    /**
     * Functionally move bytes through the encrypted path (the data
     * plane is direction-agnostic: both directions seal, stage and
     * open the same way).
     *
     * With crypto_workers > 1 the seal and open phases run on a real
     * std::thread worker pool (chunks are independent: each gets its
     * own pre-assigned IV and disjoint src/dst ranges), so the
     * PipeLLM-style ablation parallelizes actual byte work, not just
     * the timing model.  The injector's stage hook always runs
     * sequentially in chunk order, between the phases.  Results are
     * bit-identical to the single-worker path.
     *
     * A chunk that fails authentication (a tampered stage or an
     * injected tag mismatch) is retried under an attempt-derived IV
     * up to fault::kMaxTransferAttempts times; persistent failure
     * returns an IntegrityError Status identifying the chunk.  Each
     * chunk consumes exactly one IV-sequence draw no matter how many
     * retries it takes, so subsequent transfers emit identical wire
     * bytes regardless of crypto_workers.
     *
     * @param src plaintext source.
     * @param dst destination, same size.
     * @return Ok iff every chunk authenticated on the far side.
     */
    [[nodiscard]] Status transferFunctional(
        std::span<const std::uint8_t> src,
        std::span<std::uint8_t> dst);

    const ChannelConfig &config() const { return config_; }
    const BounceBufferPool &bouncePool() const { return pool_; }

    /** Total bytes scheduled through the channel so far. */
    Bytes bytesTransferred() const { return bytes_; }

    /**
     * Snapshot support: worker/engine timeline positions, the bounce
     * pool, the IV sequence counter and the byte total.  The AES-GCM
     * context is keyed at construction from the SPDM session and is
     * immutable afterwards, so it is not captured.
     */
    template <class Ar>
    void
    snapState(Ar &ar)
    {
        crypto_workers_.snapState(ar);
        gpu_crypto_.snapState(ar);
        stage_.snapState(ar);
        ar.pod(seal_tail_);
        pool_.snapState(ar);
        iv_seq_.snapState(ar);
        ar.pod(bytes_);
        // Re-acquire the pipeline counter handles after a restore:
        // the constructor registers them eagerly for the pipelined
        // overlap modes, so they pre-date every capture and survive
        // the registry's restore (which only erases entries that
        // post-date it).  The registry's "obs" section loads before
        // this "channel" section (Context::restoreSnapshot order),
        // so counter() resolves against restored state.  Dropping
        // the handles instead would silently lose the replayed
        // suffix's pipeline accounting in fork/replay campaigns.
        if constexpr (Ar::kLoading)
            bindPipelineCounters();
    }

  private:
    /** Worker time for encrypt + bounce copy of @p bytes. */
    SimTime workerChunkCost(Bytes bytes, pcie::Direction dir) const;

    /** Bounce-copy (+ D2H scrub) time for @p bytes: step c alone. */
    SimTime stageCopyCost(Bytes bytes, pcie::Direction dir) const;

    /** The chunk pipeline of every overlap tier; returns done time. */
    SimTime scheduleChunks(TransferTiming &timing, SimTime t,
                           Bytes bytes, pcie::Direction dir,
                           pcie::PcieLink &link);

    /** Bind the tee.channel.pipeline.* handles: the seven counters
     *  under the pipelined overlap modes with a registry, null
     *  otherwise. */
    void bindPipelineCounters();

    /**
     * Seal/stage/open one chunk, starting at @p first_attempt of the
     * fault::kMaxTransferAttempts budget.  Every attempt derives its
     * IV from the chunk's single @p primary sequence draw, so retries
     * never consume extra IV-stream positions.
     */
    Status transferChunk(std::span<const std::uint8_t> src,
                         std::span<std::uint8_t> dst,
                         std::size_t off,
                         const crypto::GcmIv &primary,
                         int first_attempt);

    /** Expose a staged chunk to the fault layer (corrupt + hook). */
    void stageFaults(std::vector<std::uint8_t> &stage);

    /** Single-worker functional path (chunk-at-a-time). */
    Status transferFunctionalSequential(
        std::span<const std::uint8_t> src,
        std::span<std::uint8_t> dst);

    /** Multi-worker functional path (parallel seal/open phases). */
    Status transferFunctionalParallel(
        std::span<const std::uint8_t> src,
        std::span<std::uint8_t> dst);

    ChannelConfig config_;
    crypto::CpuCryptoModel cpu_model_;
    sim::TimelinePool crypto_workers_;
    sim::Timeline gpu_crypto_;
    /** Bounce-copy stage timeline (pipelined overlap modes only). */
    sim::Timeline stage_;
    /** End of the latest seal; serializes DoubleBuffer seals. */
    SimTime seal_tail_ = 0;
    BounceBufferPool pool_;
    crypto::AesGcm gcm_;
    crypto::GcmIvSequence iv_seq_;
    Bytes bytes_ = 0;
    obs::Registry *obs_ = nullptr;
    fault::Injector *fault_ = nullptr;
    obs::Counter *obs_transfers_ = nullptr;
    obs::Counter *obs_chunks_ = nullptr;
    obs::Counter *obs_bytes_h2d_ = nullptr;
    obs::Counter *obs_bytes_d2h_ = nullptr;
    obs::Counter *obs_gcm_blocks_ = nullptr;
    // Per-stage pipeline counters; created only under the pipelined
    // overlap modes so OverlapMode::None dumps stay byte-identical.
    obs::Counter *obs_pipe_seal_ = nullptr;
    obs::Counter *obs_pipe_stage_ = nullptr;
    obs::Counter *obs_pipe_dma_ = nullptr;
    obs::Counter *obs_pipe_open_ = nullptr;
    obs::Counter *obs_pipe_hidden_ = nullptr;
    obs::Counter *obs_pipe_spec_hits_ = nullptr;
    obs::Counter *obs_pipe_spec_misses_ = nullptr;
};

} // namespace hcc::tee

#endif // HCC_TEE_SECURE_CHANNEL_HPP
