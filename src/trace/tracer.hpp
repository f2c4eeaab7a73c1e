/**
 * @file
 * Event tracer: the simulator's Nsight Systems.
 *
 * Every runtime API call and device activity is recorded as a timed
 * event.  The analysis layer (analysis.hpp) extracts the paper's
 * metrics — KLO, LQT, KQT, KET, copy/alloc breakdowns and CDFs —
 * from these traces, exactly as the paper derives them from Nsight
 * reports.
 *
 * Hot-path design (docs/PERF.md): a large cell records millions of
 * events, so TraceEvent is a trivially copyable record carrying a
 * 32-bit interned label id instead of an owning std::string, and the
 * Tracer stores events in fixed-size chunk pages instead of one
 * reallocating vector.  Label strings live in a per-run intern table
 * owned by the Tracer; resolve ids with labelName().
 */

#ifndef HCC_TRACE_TRACER_HPP
#define HCC_TRACE_TRACER_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/log.hpp"
#include "common/units.hpp"

namespace hcc::trace {

/** Categories of traced events. */
enum class EventKind : std::uint8_t
{
    Launch,        //!< host-side cudaLaunchKernel (duration = KLO)
    Kernel,        //!< device-side execution (duration = KET)
    MemcpyH2D,
    MemcpyD2H,
    MemcpyD2D,
    MallocDevice,  //!< cudaMalloc
    MallocHost,    //!< cudaMallocHost
    MallocManaged, //!< cudaMallocManaged
    Free,          //!< cudaFree
    Sync,          //!< host blocked in a synchronize call
    GraphLaunch,   //!< cudaGraphLaunch batch submission
    Fault,         //!< injected-fault recovery span (hcc::fault)
};

/** Printable kind name (view into static storage). */
std::string_view eventKindName(EventKind kind);

/** Id of an interned label string (see Tracer::intern). */
using LabelId = std::uint32_t;

/**
 * One traced event.  Trivially copyable; labels are interned.  The
 * fields are ordered by size so the record packs into 48 bytes with
 * no padding: every byte is a value byte, so copies, hashes and
 * snapshot files of equal events are equal byte for byte.
 */
struct TraceEvent
{
    SimTime start = 0;
    SimTime end = 0;
    /** Payload size for memory events. */
    Bytes bytes = 0;
    /**
     * Queue wait attributed to the event: for Kernel events the KQT;
     * for Launch events the LQT that preceded this launch.
     */
    SimTime queue_wait = 0;
    /** Kernel or API label, interned in the owning Tracer (0: ""). */
    LabelId label = 0;
    /** Links a Launch to its Kernel event. */
    std::uint32_t correlation = 0;
    /** Stream the event belongs to (-1: none). */
    std::int32_t stream = -1;
    EventKind kind = EventKind::Launch;
    /** Copy reclassified as encrypted paging (Fig. 5 "managed"). */
    bool encrypted_paging = false;
    /** Always 0: the tail bytes a compiler would leave as padding. */
    std::uint16_t reserved = 0;

    SimTime duration() const { return end - start; }
};

static_assert(sizeof(TraceEvent) == 48);
static_assert(std::has_unique_object_representations_v<TraceEvent>,
              "TraceEvent must have no padding bytes");

/**
 * Append-only event sink for one application run.
 *
 * Events are stored in pages of kChunkEvents so recording never
 * relocates previously recorded events; events() returns a
 * lightweight forward view over the pages (random access via
 * operator[] stays O(1) because every page except the last is full).
 */
class Tracer
{
  public:
    /** Events per storage page. */
    static constexpr std::size_t kChunkEvents = 4096;

    Tracer();
    Tracer(const Tracer &other);
    Tracer &operator=(const Tracer &other);
    Tracer(Tracer &&other) noexcept = default;
    Tracer &operator=(Tracer &&other) noexcept = default;

    /**
     * Intern @p name, returning its stable id.  The same string
     * always maps to the same id within one Tracer; "" is id 0.
     * Re-interning the most recently queried label (the common case:
     * one kernel launched in a loop) skips the hash lookup.
     */
    LabelId
    intern(std::string_view name)
    {
        if (name == std::string_view(names_[last_interned_]))
            return last_interned_;
        return internSlow(name);
    }

    /** The string for an interned id (fatal on unknown ids). */
    std::string_view labelName(LabelId id) const;

    /** Convenience: the label string of @p event. */
    std::string_view name(const TraceEvent &event) const
    {
        return labelName(event.label);
    }

    /**
     * Record an event (label pre-set); returns its correlation id.
     * Ids are handed out at most one per recorded event, so they fit
     * the event's 32-bit field for any trace that fits in memory.
     */
    std::uint64_t
    record(TraceEvent event)
    {
        HCC_ASSERT(event.end >= event.start,
                   "event ends before it starts");
        if (event.correlation == 0) {
            HCC_ASSERT(next_correlation_
                           <= std::numeric_limits<std::uint32_t>::max(),
                       "trace correlation ids exhausted");
            event.correlation =
                static_cast<std::uint32_t>(next_correlation_++);
        } else {
            next_correlation_ =
                std::max(next_correlation_,
                         std::uint64_t{event.correlation} + 1);
        }
        if (chunks_.empty()
            || chunks_.back().size() == kChunkEvents)
            addChunk();
        if (size_ == 0) {
            min_start_ = event.start;
            max_end_ = event.end;
        } else {
            min_start_ = std::min(min_start_, event.start);
            max_end_ = std::max(max_end_, event.end);
        }
        ++size_;
        chunks_.back().push_back(event);
        return event.correlation;
    }

    /** Record an event, interning @p name as its label. */
    std::uint64_t
    record(TraceEvent event, std::string_view name)
    {
        event.label = intern(name);
        return record(event);
    }

    /** Forward iterator over the chunked event pages. */
    class EventIterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = TraceEvent;
        using difference_type = std::ptrdiff_t;
        using pointer = const TraceEvent *;
        using reference = const TraceEvent &;

        EventIterator() = default;
        EventIterator(const std::vector<std::vector<TraceEvent>> *chunks,
                      std::size_t chunk, std::size_t pos)
            : chunks_(chunks), chunk_(chunk), pos_(pos)
        {
        }

        reference operator*() const { return (*chunks_)[chunk_][pos_]; }
        pointer operator->() const { return &**this; }

        EventIterator &
        operator++()
        {
            if (++pos_ == (*chunks_)[chunk_].size()) {
                ++chunk_;
                pos_ = 0;
            }
            return *this;
        }

        EventIterator
        operator++(int)
        {
            EventIterator tmp = *this;
            ++*this;
            return tmp;
        }

        bool
        operator==(const EventIterator &other) const
        {
            return chunk_ == other.chunk_ && pos_ == other.pos_;
        }
        bool
        operator!=(const EventIterator &other) const
        {
            return !(*this == other);
        }

      private:
        const std::vector<std::vector<TraceEvent>> *chunks_ = nullptr;
        std::size_t chunk_ = 0;
        std::size_t pos_ = 0;
    };

    /** Non-owning view over all recorded events, in record order. */
    class EventView
    {
      public:
        explicit EventView(const Tracer &tracer) : tracer_(&tracer) {}

        EventIterator
        begin() const
        {
            return {&tracer_->chunks_, 0, 0};
        }
        EventIterator
        end() const
        {
            return {&tracer_->chunks_, tracer_->chunks_.size(), 0};
        }

        std::size_t size() const { return tracer_->size(); }
        bool empty() const { return tracer_->empty(); }

        const TraceEvent &
        operator[](std::size_t i) const
        {
            return tracer_->chunks_[i / kChunkEvents][i % kChunkEvents];
        }

      private:
        const Tracer *tracer_;
    };

    EventView events() const { return EventView(*this); }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** All events of one kind, in record order (materialized). */
    std::vector<TraceEvent> ofKind(EventKind kind) const;

    /** Earliest start over all events (0 if empty). */
    SimTime firstStart() const { return size_ ? min_start_ : 0; }
    /** Latest end over all events (0 if empty). */
    SimTime lastEnd() const { return size_ ? max_end_ : 0; }
    /** lastEnd - firstStart. */
    SimTime span() const { return lastEnd() - firstStart(); }

    /** Drop all events (interned labels stay valid). */
    void clear();

    /**
     * A watermark of the append-only state: everything truncateTo()
     * needs to rewind this tracer to an earlier point.  Only valid
     * for the tracer it was taken from, while the marked events are
     * still an unchanged prefix (recording only appends, so that
     * holds until a restore from a *different* capture rewrites the
     * pages).
     */
    struct Mark
    {
        std::size_t events = 0;
        std::size_t labels = 0;
        SimTime min_start = 0;
        SimTime max_end = 0;
        std::uint64_t next_correlation = 1;
        LabelId last_interned = 0;
    };

    Mark mark() const
    {
        return {size_,          names_.size(),     min_start_,
                max_end_,       next_correlation_, last_interned_};
    }

    /**
     * Rewind to @p m by truncating the chunk pages and the intern
     * table — the restore-in-place fast path (snapState's byte load
     * rebuilds the same state from a full copy).  The caller owns
     * the prefix-unchanged guarantee; see Mark.
     */
    void truncateTo(const Mark &m);

    /**
     * Snapshot support: event chunk pages, the intern table (ids are
     * table positions, so they remain valid across a restore), span
     * watermarks and the correlation counter.  Restoring into the
     * tracer that was captured amounts to truncating the append-only
     * chunk pages and intern table back to the capture point; the
     * self-contained byte form also restores into a fresh Tracer.
     */
    template <class Ar>
    void
    snapState(Ar &ar)
    {
        ar.pod(size_);
        ar.pod(min_start_);
        ar.pod(max_end_);
        ar.pod(next_correlation_);
        ar.pod(last_interned_);
        const std::size_t n_names = ar.size(names_.size());
        if constexpr (Ar::kLoading) {
            names_.clear();
            index_.clear();
            for (std::size_t i = 0; i < n_names; ++i) {
                std::string s;
                ar.str(s);
                names_.push_back(std::move(s));
                index_.emplace(std::string_view(names_.back()),
                               static_cast<LabelId>(i));
            }
        } else {
            for (auto &s : names_)
                ar.str(s);
        }
        const std::size_t n_chunks = ar.size(chunks_.size());
        if constexpr (Ar::kLoading)
            chunks_.resize(n_chunks);
        for (auto &chunk : chunks_)
            ar.podVec(chunk);
    }

  private:
    LabelId internSlow(std::string_view name);
    void addChunk();

    std::vector<std::vector<TraceEvent>> chunks_;
    std::size_t size_ = 0;
    SimTime min_start_ = 0;
    SimTime max_end_ = 0;
    std::uint64_t next_correlation_ = 1;
    /** Label storage; deque keeps element addresses stable. */
    std::deque<std::string> names_;
    /** Views into names_ -> id.  Rebuilt on copy. */
    std::unordered_map<std::string_view, LabelId> index_;
    /** Id whose name matched the last intern() query. */
    LabelId last_interned_ = 0;
};

} // namespace hcc::trace

#endif // HCC_TRACE_TRACER_HPP
