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
 * thread-safe within one registry — components grab their handles up
 * front on the main thread.  Registries on different threads may
 * create stats at once: the stat-name pool they share is locked.
 * Counter *updates* are atomic (relaxed), because the
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
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace hcc::snap {
class Saver;
class Loader;
} // namespace hcc::snap

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
 * Name -> stat table with gem5-style dotted paths.  Stats are created
 * on first access and live until a restore erases them or the
 * registry dies; handles returned by counter()/gauge()/distribution()
 * are stable across every other call.
 *
 * Storage: one name-sorted vector of rows, each a name and an Entry
 * pointing at the stat, with the stat objects themselves in one
 * std::deque per kind that the registry owns (a deque never moves
 * its elements).  Names are interned: one copy per process, in a
 * pool behind a mutex, and a row's name is a view of that copy,
 * valid for the life of the process.  Stat names are built by code
 * (component paths, fault sites, path categories), so the pool is
 * bounded.  A clone() copies the rows and fills three fresh deques,
 * a restore in place rewrites the rows it shares with the snapshot,
 * and destroying a registry frees a few blocks instead of one node,
 * one name and one stat per entry.
 */
class Registry
{
  public:
    /** Stat kinds, as stored and as serialized ("type" field). */
    enum class Kind { Counter, Gauge, Distribution };

    Registry() = default;
    /** Rows point into this registry's storage: copy with clone(). */
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Get or create; fatal if @p name exists with another kind. */
    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Distribution &distribution(std::string_view name);

    /** Whether any stat named @p name exists. */
    bool contains(std::string_view name) const;

    /** The value of counter @p name, or 0 when no counter has that
     *  name.  Never creates the stat, so reading a finished run
     *  leaves its dump unchanged. */
    std::uint64_t counterValue(std::string_view name) const;

    std::size_t size() const { return table_.size(); }

    /** Non-owning pointer to a stat stored by the registry. */
    template <class T>
    class Handle
    {
      public:
        Handle() = default;
        explicit Handle(T *p) : p_(p) {}

        T *get() const { return p_; }
        T *operator->() const { return p_; }
        T &operator*() const { return *p_; }
        explicit operator bool() const { return p_ != nullptr; }

      private:
        T *p_ = nullptr;
    };

    /** One registered stat (exactly one handle is non-null). */
    struct Entry
    {
        Kind kind = Kind::Counter;
        Handle<Counter> counter;
        Handle<Gauge> gauge;
        Handle<Distribution> distribution;
    };

    /** One table row: the interned name (valid for the life of the
     *  process) and its stat. */
    using Row = std::pair<std::string_view, Entry>;

    /** The rows in name order (std::string byte order). */
    class Table
    {
      public:
        using const_iterator = std::vector<Row>::const_iterator;

        const_iterator begin() const { return rows_.begin(); }
        const_iterator end() const { return rows_.end(); }
        std::size_t size() const { return rows_.size(); }
        bool empty() const { return rows_.empty(); }
        /** The row named @p name, or end(). */
        const_iterator find(std::string_view name) const;
        std::size_t count(std::string_view name) const
        {
            return find(name) == end() ? 0 : 1;
        }

      private:
        friend class Registry;
        std::vector<Row> rows_;
    };

    /** Stats in name order. */
    const Table &entries() const { return table_; }

    /**
     * Per-thread sink for components constructed without a registry:
     * updates land here and are never dumped.  Keeps instrumentation
     * branch-free (see orDiscard()) and race-free when contexts are
     * constructed on parallel sweep workers.
     */
    static Registry &discard();

    /**
     * Snapshot support.  Saving records every entry's name, kind and
     * value state, in name order.  Restoring writes the captured
     * values back into the *same* stats — handles returned before
     * the capture stay valid — and erases entries created after the
     * capture (lazily registered fault.* or critpath.* stats from a
     * replayed suffix), so a restored run can never see or dump a
     * stat its prefix did not create.  An erased stat's slot is
     * reset and reused by the next stat of its kind, so holders of
     * handles to post-capture entries must drop them on restore
     * (fault::Injector does).  When the registry already holds the
     * snapshot's names, a restore allocates nothing.
     */
    void snapState(snap::Saver &ar);
    void snapState(snap::Loader &ar);

    /**
     * Value copy (fresh Counter/Gauge/Distribution objects) for a
     * campaign cell's result: every value a stats dump prints, with
     * each gauge reduced to its Gauge::valueCopy() (no sample series,
     * so no counter track can be drawn from a clone).  Forked cells
     * share one live registry that the next cell's restore rewinds,
     * and cold cells' registries die with their Context, so the cell
     * engine clones into every WorkloadResult; a campaign of 10k
     * cells then holds values, not 10k copies of per-launch series.
     * The copy is independent of this registry: either may die first.
     */
    std::unique_ptr<Registry> clone() const;

  private:
    /** One kind's stats at stable addresses, plus the slots a
     *  restore released (reset to a fresh stat) for reuse. */
    template <class T>
    struct Store
    {
        std::deque<T> items;
        std::vector<T *> free;

        T *make();
        void release(T *stat);
    };

    Entry &entry(std::string_view name, Kind kind);
    /** A fresh stat of @p kind in this registry's storage. */
    Entry makeEntry(Kind kind);
    void release(const Entry &e);

    Table table_;
    Store<Counter> counters_;
    Store<Gauge> gauges_;
    Store<Distribution> distributions_;
};

/** Resolve an optional registry to a usable one. */
inline Registry &
orDiscard(Registry *reg)
{
    return reg ? *reg : Registry::discard();
}

/**
 * RAII wall-clock timer over one of the *simulator's* hot paths
 * (crypto, a fork prefix, a whole workload run).  Records elapsed
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
