/**
 * @file
 * hcc::obs — the simulator-wide metrics registry (gem5-flavoured
 * hierarchical statistics).
 *
 * Every instrumented component publishes named stats under a dotted
 * path ("tee.bounce.bytes_h2d", "gpu.uvm.bytes_migrated", ...).  A
 * Registry is owned per simulated guest (rt::Context) so that base
 * and CC runs of a compare never mix, and the whole inventory can be
 * dumped deterministically after a run (stats_io.hpp), diffed against
 * a baseline (`hccsim stats-diff`), or rendered as Perfetto counter
 * tracks alongside the event timeline (trace/export.hpp).
 *
 * Three stat kinds:
 *  - Counter: monotonically increasing unsigned count (events, bytes,
 *    simulated picoseconds).
 *  - Gauge: signed instantaneous level (queue depth, pool occupancy)
 *    with min/max watermarks; when a simulated timestamp accompanies
 *    an update, the (time, value) pair is retained as a sample so the
 *    trace exporter can draw a counter track.
 *  - Distribution: running summary (count/sum/min/max/mean) of a
 *    stream of values.
 *
 * Stats whose path starts with "host." hold *wall-clock* host
 * measurements (ProfileScope) and are excluded from deterministic
 * dumps: they profile the simulator itself, not the simulation.
 *
 * Thread safety: stat *creation* (counter()/gauge()/...) is not
 * thread-safe — components grab their handles up front on the main
 * thread.  Counter *updates* are atomic (relaxed), because the
 * SecureChannel crypto worker pool bumps seal/open counters from
 * multiple threads; Gauge and Distribution updates remain
 * main-thread-only.
 */

#ifndef HCC_OBS_REGISTRY_HPP
#define HCC_OBS_REGISTRY_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace hcc::obs {

/**
 * Monotonically increasing event/byte/time-sum counter.  Updates are
 * relaxed-atomic so parallel crypto workers can share one counter;
 * reads on the main thread after joining the workers see the total.
 */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    /**
     * Single-writer fast path: plain load + store instead of an
     * atomic read-modify-write (which is a full bus-locked operation
     * on x86 and dominates tight simulation loops).  Only valid for
     * counters updated from one thread at a time — the rule all
     * stats except the crypto worker-pool counters already follow
     * (see file header).
     */
    void bump(std::uint64_t n = 1)
    {
        value_.store(value_.load(std::memory_order_relaxed) + n,
                     std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Snapshot support: the count (atomics archive by value). */
    template <class Ar>
    void
    snapState(Ar &ar)
    {
        std::uint64_t v = value();
        ar.pod(v);
        if constexpr (Ar::kLoading)
            value_.store(v, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * Instantaneous signed level with watermarks and optional timed
 * samples for counter-track rendering.
 */
class Gauge
{
  public:
    /** One retained (simulated time, level) observation. */
    struct Sample
    {
        SimTime ts = 0;
        std::int64_t value = 0;
    };

    /**
     * Retention bound.  Below it every accepted change is kept; on
     * reaching it the series is decimated in place (every other
     * sample kept) and the retention stride doubles, so memory stays
     * bounded while coverage of the whole run is preserved.  The
     * process is a pure function of the change sequence, hence
     * deterministic.
     */
    static constexpr std::size_t kMaxSamples = 1 << 16;

    /**
     * Set the level; @p when >= 0 additionally records a sample at
     * that simulated time (consecutive equal levels are coalesced).
     */
    void
    set(std::int64_t v, SimTime when = -1)
    {
        const bool changed = !touched_ || v != value_;
        value_ = v;
        if (!touched_) {
            min_ = max_ = v;
            touched_ = true;
        } else {
            min_ = std::min(min_, v);
            max_ = std::max(max_, v);
        }
        if (when < 0 || !changed)
            return;
        if (stride_ > 1 && ++skip_ < stride_) {
            ++dropped_;
            return;
        }
        skip_ = 0;
        samples_.push_back({when, v});
        if (samples_.size() >= kMaxSamples)
            decimate();
    }

    /** Relative update, same sampling semantics as set(). */
    void adjust(std::int64_t delta, SimTime when = -1)
    {
        set(value_ + delta, when);
    }

    std::int64_t value() const { return value_; }
    std::int64_t min() const { return min_; }
    std::int64_t max() const { return max_; }

    const std::vector<Sample> &samples() const { return samples_; }
    /** Retained samples: samples().size(), or for a valueCopy() the
     *  count its source retained. */
    std::size_t
    sampleCount() const
    {
        return samples_.size() + copied_samples_;
    }
    /** Accepted changes not retained (decimated or strided out). */
    std::uint64_t droppedSamples() const { return dropped_; }
    /** Current retention stride (1 until kMaxSamples is first hit). */
    std::uint64_t sampleStride() const { return stride_; }

    /**
     * The level, watermarks and decimator state, with the retained
     * series reduced to its count: samples() of the copy is empty,
     * sampleCount() equals this gauge's.  Everything a stats dump
     * prints, without the series only a counter track draws
     * (Registry::clone).
     */
    Gauge
    valueCopy() const
    {
        Gauge g;
        g.value_ = value_;
        g.min_ = min_;
        g.max_ = max_;
        g.touched_ = touched_;
        g.copied_samples_ = sampleCount();
        g.dropped_ = dropped_;
        g.stride_ = stride_;
        g.skip_ = skip_;
        return g;
    }

    /** Snapshot support: level, watermarks, and the whole decimator
     *  state (retained samples, stride, skip phase) — a restored
     *  gauge continues the identical deterministic sample series.
     *  Live gauges only: a valueCopy()'s sample count is not kept. */
    template <class Ar>
    void
    snapState(Ar &ar)
    {
        ar.pod(value_);
        ar.pod(min_);
        ar.pod(max_);
        ar.pod(touched_);
        ar.podVec(samples_);
        ar.pod(dropped_);
        ar.pod(stride_);
        ar.pod(skip_);
    }

  private:
    /** Halve the retained series in place and double the stride. */
    void decimate();

    std::int64_t value_ = 0;
    std::int64_t min_ = 0;
    std::int64_t max_ = 0;
    bool touched_ = false;
    std::vector<Sample> samples_;
    std::uint64_t dropped_ = 0;
    std::uint64_t stride_ = 1;
    /** Accepted changes since the last retained sample. */
    std::uint64_t skip_ = 0;
    /** Retained samples a valueCopy() counts but does not hold. */
    std::size_t copied_samples_ = 0;
};

/** Running summary of a value stream (count/sum/min/max/mean). */
class Distribution
{
  public:
    void add(double x) { stats_.add(x); }

    std::size_t count() const { return stats_.count(); }
    double sum() const { return stats_.sum(); }
    double mean() const { return stats_.mean(); }
    double min() const { return stats_.min(); }
    double max() const { return stats_.max(); }

    /** Snapshot support. */
    template <class Ar>
    void
    snapState(Ar &ar)
    {
        stats_.snapState(ar);
    }

  private:
    RunningStats stats_;
};

/**
 * Name -> stat map with gem5-style dotted paths.  Stats are created
 * on first access and live as long as the registry; handles returned
 * by counter()/gauge()/distribution() are stable.
 */
class Registry
{
  public:
    /** Stat kinds, as stored and as serialized ("type" field). */
    enum class Kind { Counter, Gauge, Distribution };

    /** Get or create; fatal if @p name exists with another kind. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Distribution &distribution(const std::string &name);

    /** Whether any stat named @p name exists. */
    bool contains(const std::string &name) const;

    std::size_t size() const { return stats_.size(); }

    /** One registered stat (exactly one pointer is non-null). */
    struct Entry
    {
        Kind kind = Kind::Counter;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Distribution> distribution;
    };

    /** Stats in name order (std::map iteration is sorted). */
    const std::map<std::string, Entry> &entries() const
    {
        return stats_;
    }

    /**
     * Per-thread sink for components constructed without a registry:
     * updates land here and are never dumped.  Keeps instrumentation
     * branch-free (see orDiscard()) and race-free when contexts are
     * constructed on parallel sweep workers.
     */
    static Registry &discard();

    /**
     * Snapshot support.  Saving records every entry's name, kind and
     * value state.  Restoring writes the captured values back into
     * the *same* entries — handles returned before the capture stay
     * valid — and erases entries created after the capture (lazily
     * registered fault.* or critpath.* stats from a replayed
     * suffix), so a restored run can never see or dump a stat its
     * prefix did not create.  Holders of handles to post-capture
     * entries must drop them on restore (fault::Injector does).
     */
    template <class Ar>
    void
    snapState(Ar &ar)
    {
        if constexpr (Ar::kLoading) {
            const std::size_t n = ar.size(0);
            // Names arrive in map (sorted) order; walk both sorted
            // sequences and drop live entries the archive lacks.
            auto it = stats_.begin();
            for (std::size_t i = 0; i < n; ++i) {
                std::string name;
                std::uint32_t kind = 0;
                ar.str(name);
                ar.pod(kind);
                while (it != stats_.end() && it->first < name)
                    it = stats_.erase(it);
                Entry &e = entry(name, static_cast<Kind>(kind));
                if (it == stats_.end() || it->first != name)
                    it = stats_.find(name);
                ++it;
                switch (e.kind) {
                  case Kind::Counter: e.counter->snapState(ar); break;
                  case Kind::Gauge: e.gauge->snapState(ar); break;
                  case Kind::Distribution:
                    e.distribution->snapState(ar);
                    break;
                }
            }
            while (it != stats_.end())
                it = stats_.erase(it);
        } else {
            ar.size(stats_.size());
            for (auto &[name, e] : stats_) {
                std::string n = name;
                ar.str(n);
                std::uint32_t kind = static_cast<std::uint32_t>(e.kind);
                ar.pod(kind);
                switch (e.kind) {
                  case Kind::Counter: e.counter->snapState(ar); break;
                  case Kind::Gauge: e.gauge->snapState(ar); break;
                  case Kind::Distribution:
                    e.distribution->snapState(ar);
                    break;
                }
            }
        }
    }

    /**
     * Value copy (fresh Counter/Gauge/Distribution objects) for a
     * campaign cell's result: every value a stats dump prints, with
     * each gauge reduced to its Gauge::valueCopy() (no sample series,
     * so no counter track can be drawn from a clone).  Forked cells
     * share one live registry that the next cell's restore rewinds,
     * and cold cells' registries die with their Context, so the cell
     * engine clones into every WorkloadResult; a campaign of 10k
     * cells then holds values, not 10k copies of per-launch series.
     */
    std::unique_ptr<Registry> clone() const;

  private:
    Entry &entry(const std::string &name, Kind kind);

    std::map<std::string, Entry> stats_;
};

/** Resolve an optional registry to a usable one. */
inline Registry &
orDiscard(Registry *reg)
{
    return reg ? *reg : Registry::discard();
}

/**
 * RAII wall-clock timer over one of the *simulator's* hot paths
 * (crypto, event processing, a whole workload run).  Records elapsed
 * microseconds into the distribution "host.profile.<name>_us" — a
 * host.* path, so profiles never pollute deterministic stat dumps.
 */
class ProfileScope
{
  public:
    /** @param reg may be null: the scope then measures nothing. */
    ProfileScope(Registry *reg, const std::string &name);
    ~ProfileScope();

    ProfileScope(const ProfileScope &) = delete;
    ProfileScope &operator=(const ProfileScope &) = delete;

  private:
    Distribution *dist_ = nullptr;
    std::chrono::steady_clock::time_point start_;
};

} // namespace hcc::obs

#endif // HCC_OBS_REGISTRY_HPP
