/**
 * @file
 * Bounce-buffer (swiotlb-style) pool model.
 *
 * Under TDX the GPU's DMA engines cannot reach the TD's private
 * memory, so every transfer stages through hypervisor-managed shared
 * memory — the bounce buffer (Sec. II-A).  This pool models a fixed
 * carve-out of shared slots: acquisition is cheap while slots are
 * free, and when the pool is exhausted callers must wait for the
 * earliest release (back-pressure that throttles deep async
 * pipelines).  The pool also carries real byte storage so the
 * functional SecureChannel path can stage actual ciphertext.
 */

#ifndef HCC_TEE_BOUNCE_BUFFER_HPP
#define HCC_TEE_BOUNCE_BUFFER_HPP

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "common/units.hpp"
#include "obs/registry.hpp"

namespace hcc::tee {

/** Handle to an acquired bounce slot. */
struct BounceSlot
{
    int index = -1;
    /** Time at which the slot became usable by the caller. */
    SimTime acquired_at = 0;
};

/**
 * Fixed pool of equally-sized shared-memory slots.
 */
class BounceBufferPool
{
  public:
    /**
     * @param slot_bytes size of each slot (the staging chunk size).
     * @param slots number of slots (pool capacity / slot size).
     * @param obs optional stats sink; publishes
     *        "tee.bounce.{acquires,contention_events,
     *        contention_wait_ps}" counters and the
     *        "tee.bounce.occupancy" gauge.
     */
    BounceBufferPool(Bytes slot_bytes, int slots,
                     obs::Registry *obs = nullptr);

    /**
     * Acquire a slot at time @p ready; if all slots are busy, the
     * acquisition time is pushed to the earliest outstanding release.
     * When every slot is *held* (acquired, release not yet recorded —
     * a deep pipeline with bounce_slots transfers genuinely in
     * flight), the acquisition queues behind the oldest hold and is
     * pushed to the latest release recorded so far (the earliest
     * deterministic bound for a future release).
     */
    BounceSlot acquire(SimTime ready);

    /** Release a slot at time @p when. */
    void release(const BounceSlot &slot, SimTime when);

    /** Mutable access to a slot's backing storage (functional path). */
    std::vector<std::uint8_t> &storage(const BounceSlot &slot);

    Bytes slotBytes() const { return slot_bytes_; }
    int slotCount() const { return static_cast<int>(buffers_.size()); }
    int freeSlots() const { return static_cast<int>(free_.size()); }

    /** Holds outstanding right now (acquired, not yet released). */
    int heldSlots() const { return static_cast<int>(held_.size()); }

    /** Total times a caller had to wait for a slot. */
    std::uint64_t contentionEvents() const { return contention_; }
    /** Total time callers spent waiting for slots. */
    SimTime contentionTime() const { return contention_time_; }

    /**
     * Latest release time seen so far (0 before any release) — the
     * point at which the whole pool has drained.  The fault layer's
     * bounce.exhausted recovery stalls an acquisition to here.
     */
    SimTime latestRelease() const { return latest_release_; }

    /**
     * Snapshot support: free list, busy heap (re-pushed in sorted
     * order on restore — heap layout is not observable, only pop
     * order is), the outstanding-hold FIFO and the contention
     * totals.  Slot byte storage is per-transfer scratch, fully
     * rewritten before each use, so its content is not captured.
     */
    template <class Ar>
    void
    snapState(Ar &ar)
    {
        ar.podVec(free_);
        std::vector<int> held(held_.begin(), held_.end());
        ar.podVec(held);
        if constexpr (Ar::kLoading)
            held_.assign(held.begin(), held.end());
        // (release time, slot), the slot widened to 8 bytes so the
        // pairs carry no padding bytes into the snapshot.
        std::vector<std::pair<SimTime, std::int64_t>> busy;
        if constexpr (Ar::kLoading) {
            ar.podVec(busy);
            busy_until_heap_ = {};
            for (const auto &[when, slot] : busy)
                busy_until_heap_.emplace(when, static_cast<int>(slot));
        } else {
            auto copy = busy_until_heap_;
            while (!copy.empty()) {
                busy.emplace_back(copy.top());
                copy.pop();
            }
            ar.podVec(busy);
        }
        ar.pod(contention_);
        ar.pod(contention_time_);
        ar.pod(latest_release_);
        ar.pod(in_use_);
    }

  private:
    Bytes slot_bytes_;
    std::vector<std::vector<std::uint8_t>> buffers_;
    std::vector<int> free_;
    // Outstanding holds in acquisition order (may repeat an index
    // when acquisitions queue behind a held slot).  A slot is in
    // exactly one place: free list, busy heap, or here.
    std::deque<int> held_;
    // Min-heap of (release_time, slot) for busy slots.
    std::priority_queue<std::pair<SimTime, int>,
                        std::vector<std::pair<SimTime, int>>,
                        std::greater<>> busy_until_heap_;
    std::uint64_t contention_ = 0;
    SimTime contention_time_ = 0;
    SimTime latest_release_ = 0;
    int in_use_ = 0;
    obs::Counter *obs_acquires_ = nullptr;
    obs::Counter *obs_contention_events_ = nullptr;
    obs::Counter *obs_contention_wait_ps_ = nullptr;
    obs::Gauge *obs_occupancy_ = nullptr;
};

} // namespace hcc::tee

#endif // HCC_TEE_BOUNCE_BUFFER_HPP
