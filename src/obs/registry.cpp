#include "obs/registry.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>

#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "snap/archive.hpp"

namespace hcc::obs {

void
Gauge::decimate()
{
    // Keep every other retained sample, in place.
    const std::size_t kept = (samples_.size() + 1) / 2;
    for (std::size_t i = 1; i < kept; ++i)
        samples_[i] = samples_[2 * i];
    dropped_ += samples_.size() - kept;
    samples_.resize(kept);
    stride_ *= 2;
    skip_ = 0;
}

namespace {

const char *
kindName(Registry::Kind kind)
{
    switch (kind) {
      case Registry::Kind::Counter: return "counter";
      case Registry::Kind::Gauge: return "gauge";
      case Registry::Kind::Distribution: return "distribution";
    }
    return "?";
}

[[noreturn]] void
kindConflict(std::string_view name, Registry::Kind have,
             Registry::Kind want)
{
    fatal("stat '%s' already registered as a %s, requested as %s",
          std::string(name).c_str(), kindName(have), kindName(want));
}

/** First row whose name is not less than @p name. */
template <class It>
It
lowerBound(It first, It last, std::string_view name)
{
    return std::lower_bound(first, last, name,
                            [](const Registry::Row &row,
                               std::string_view n) {
                                return row.first < n;
                            });
}

/** Archive one stat's value state (either direction). */
template <class Ar>
void
snapValues(Ar &ar, const Registry::Entry &e)
{
    switch (e.kind) {
      case Registry::Kind::Counter: e.counter->snapState(ar); break;
      case Registry::Kind::Gauge: e.gauge->snapState(ar); break;
      case Registry::Kind::Distribution:
        e.distribution->snapState(ar);
        break;
    }
}

/**
 * The process-wide copy of stat name @p name, as a view valid for the
 * life of the process.  The only state registries on different
 * threads share, hence the lock.
 */
std::string_view
internStatName(std::string_view name)
{
    // Node-based, so a name's bytes never move once inserted (short
    // names live inside their node).  Never freed: views handed out
    // must outlive every registry, including thread-local ones.
    static std::mutex mu;
    static auto *pool = new std::set<std::string, std::less<>>;
    const std::lock_guard<std::mutex> lock(mu);
    auto it = pool->find(name);
    if (it == pool->end())
        it = pool->emplace(name).first;
    return *it;
}

} // namespace

template <class T>
T *
Registry::Store<T>::make()
{
    if (free.empty())
        return &items.emplace_back();
    T *stat = free.back();
    free.pop_back();
    return stat;
}

template <class T>
void
Registry::Store<T>::release(T *stat)
{
    // Reset now, so a stat created later in this slot starts from
    // zero and the slot holds no memory (a gauge's series) meanwhile.
    std::destroy_at(stat);
    std::construct_at(stat);
    free.push_back(stat);
}

Registry::Table::const_iterator
Registry::Table::find(std::string_view name) const
{
    const auto it = lowerBound(rows_.begin(), rows_.end(), name);
    return it != rows_.end() && it->first == name ? it : rows_.end();
}

Registry::Entry
Registry::makeEntry(Kind kind)
{
    Entry e;
    e.kind = kind;
    switch (kind) {
      case Kind::Counter:
        e.counter = Handle<Counter>(counters_.make());
        break;
      case Kind::Gauge:
        e.gauge = Handle<Gauge>(gauges_.make());
        break;
      case Kind::Distribution:
        e.distribution = Handle<Distribution>(distributions_.make());
        break;
    }
    return e;
}

void
Registry::release(const Entry &e)
{
    switch (e.kind) {
      case Kind::Counter: counters_.release(e.counter.get()); break;
      case Kind::Gauge: gauges_.release(e.gauge.get()); break;
      case Kind::Distribution:
        distributions_.release(e.distribution.get());
        break;
    }
}

Registry::Entry &
Registry::entry(std::string_view name, Kind kind)
{
    auto &rows = table_.rows_;
    auto it = lowerBound(rows.begin(), rows.end(), name);
    if (it != rows.end() && it->first == name) {
        if (it->second.kind != kind)
            kindConflict(name, it->second.kind, kind);
        return it->second;
    }
    if (name.empty())
        fatal("stat name must not be empty");
    return rows.insert(it, Row{internStatName(name), makeEntry(kind)})
        ->second;
}

Counter &
Registry::counter(std::string_view name)
{
    return *entry(name, Kind::Counter).counter;
}

Gauge &
Registry::gauge(std::string_view name)
{
    return *entry(name, Kind::Gauge).gauge;
}

Distribution &
Registry::distribution(std::string_view name)
{
    return *entry(name, Kind::Distribution).distribution;
}

bool
Registry::contains(std::string_view name) const
{
    return table_.count(name) != 0;
}

std::uint64_t
Registry::counterValue(std::string_view name) const
{
    const auto it = table_.find(name);
    if (it == table_.end() || !it->second.counter)
        return 0;
    return it->second.counter->value();
}

void
Registry::snapState(snap::Saver &ar)
{
    ar.size(table_.size());
    for (const auto &[name, e] : table_) {
        ar.str(name);
        std::uint32_t kind = static_cast<std::uint32_t>(e.kind);
        ar.pod(kind);
        snapValues(ar, e);
    }
}

void
Registry::snapState(snap::Loader &ar)
{
    // Merge two name-sorted sequences in one pass.  rows[0, kept) is
    // the restored table so far, rows[next, end) the live rows not yet
    // reached; the rows between were erased and are free to overwrite.
    // Archived names are views into the snapshot bytes: a row whose
    // name matches is loaded in place, and only a name the live table
    // lacks is interned.
    auto &rows = table_.rows_;
    const std::size_t n = ar.size(0);
    std::size_t kept = 0;
    std::size_t next = 0;
    std::string_view prev;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string_view name = ar.strView();
        std::uint32_t raw_kind = 0;
        ar.pod(raw_kind);
        HCC_ASSERT(i == 0 || prev < name,
                   "snapshot stats are not in name order");
        HCC_ASSERT(raw_kind <= static_cast<std::uint32_t>(
                                   Kind::Distribution),
                   "snapshot stat has an unknown kind");
        prev = name;
        const auto kind = static_cast<Kind>(raw_kind);
        while (next < rows.size() && rows[next].first < name)
            release(rows[next++].second);
        if (next < rows.size() && rows[next].first == name) {
            if (rows[next].second.kind != kind)
                kindConflict(name, rows[next].second.kind, kind);
            rows[kept++] = rows[next++];
        } else if (kept < next) {
            rows[kept++] = Row{internStatName(name), makeEntry(kind)};
        } else {
            rows.insert(rows.begin() + static_cast<std::ptrdiff_t>(next),
                        Row{internStatName(name), makeEntry(kind)});
            ++kept;
            ++next;
        }
        snapValues(ar, rows[kept - 1].second);
    }
    while (next < rows.size())
        release(rows[next++].second);
    rows.resize(kept);
}

std::unique_ptr<Registry>
Registry::clone() const
{
    // Direct copy (the cell engine clones once per campaign cell, so
    // this skips the archive round-trip): the rows keep their names'
    // views, the stats go into the copy's own storage.
    auto out = std::make_unique<Registry>();
    out->table_.rows_.reserve(table_.size());
    for (const auto &[name, e] : table_) {
        Entry copy = out->makeEntry(e.kind);
        switch (e.kind) {
          case Kind::Counter:
            copy.counter->bump(e.counter->value());
            break;
          case Kind::Gauge:
            *copy.gauge = e.gauge->valueCopy();
            break;
          case Kind::Distribution:
            *copy.distribution = *e.distribution;
            break;
        }
        out->table_.rows_.emplace_back(name, copy);
    }
    return out;
}

Registry &
Registry::discard()
{
    // Thread-local rather than process-global: components built
    // without a registry (tests, ad-hoc benches) route updates here,
    // and two rt::Contexts constructing on different sweep workers
    // must not race on one shared map.  Discarded stats are never
    // read back, so per-thread sinks are indistinguishable.
    thread_local Registry sink;
    return sink;
}

ProfileScope::ProfileScope(Registry *reg, const std::string &name)
{
    if (!reg)
        return;
    dist_ = &reg->distribution("host.profile." + name + "_us");
    start_ = std::chrono::steady_clock::now();
}

ProfileScope::~ProfileScope()
{
    if (!dist_)
        return;
    dist_->add(elapsedUs(start_));
}

} // namespace hcc::obs
