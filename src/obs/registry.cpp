#include "obs/registry.hpp"

#include <algorithm>

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

} // namespace

Registry::Entry &
Registry::entry(const std::string &name, Kind kind)
{
    if (name.empty())
        fatal("stat name must not be empty");
    auto [it, inserted] = stats_.try_emplace(name);
    Entry &e = it->second;
    if (inserted) {
        e.kind = kind;
        switch (kind) {
          case Kind::Counter:
            e.counter = std::make_unique<Counter>();
            break;
          case Kind::Gauge:
            e.gauge = std::make_unique<Gauge>();
            break;
          case Kind::Distribution:
            e.distribution = std::make_unique<Distribution>();
            break;
        }
    } else if (e.kind != kind) {
        fatal("stat '%s' already registered as a %s, requested as %s",
              name.c_str(), kindName(e.kind), kindName(kind));
    }
    return e;
}

Counter &
Registry::counter(const std::string &name)
{
    return *entry(name, Kind::Counter).counter;
}

Gauge &
Registry::gauge(const std::string &name)
{
    return *entry(name, Kind::Gauge).gauge;
}

Distribution &
Registry::distribution(const std::string &name)
{
    return *entry(name, Kind::Distribution).distribution;
}

bool
Registry::contains(const std::string &name) const
{
    return stats_.find(name) != stats_.end();
}

std::unique_ptr<Registry>
Registry::clone() const
{
    // Direct copy (the cell engine clones once per campaign cell,
    // so this skips the archive round-trip).  Entries arrive in map
    // order, so inserting with an end() hint is O(1) each.
    auto out = std::make_unique<Registry>();
    for (const auto &[name, e] : stats_) {
        Entry copy;
        copy.kind = e.kind;
        switch (e.kind) {
          case Kind::Counter:
            copy.counter = std::make_unique<Counter>();
            copy.counter->bump(e.counter->value());
            break;
          case Kind::Gauge:
            copy.gauge = std::make_unique<Gauge>(e.gauge->valueCopy());
            break;
          case Kind::Distribution:
            copy.distribution =
                std::make_unique<Distribution>(*e.distribution);
            break;
        }
        out->stats_.emplace_hint(out->stats_.end(), name,
                                 std::move(copy));
    }
    return out;
}

Registry &
Registry::discard()
{
    // Thread-local rather than process-global: components built
    // without a registry (tests, ad-hoc benches) route updates here,
    // and two SimContexts constructing on different sweep workers
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
