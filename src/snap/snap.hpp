/**
 * @file
 * Simulator snapshots: named-section state captures of one Context.
 *
 * A Snapshot is the unit the campaign fork engine passes around: the
 * full deterministic state of one rt::Context at a declared fork
 * point, split into per-subsystem sections ("runtime", "obs",
 * "fault", "gpu", "trace", ...).  Capture and restore happen on the
 * *same* Context instance (restore-in-place, see snap/archive.hpp),
 * which is what lets N campaign cells branch from one warmed-up
 * prefix: run the prefix once, capture, then for each cell restore,
 * arm the cell's faults and replay only the suffix.
 *
 * Snapshots can also be written to disk for inspection
 * (`hccsim snapshot`).  The file format is versioned and
 * self-describing, but a file is *not* a portable resume point: the
 * archives serialize values positionally against the current build's
 * layout, so only the build that wrote a file can read it.  The
 * supported production path is in-memory fork/replay.
 */

#ifndef HCC_SNAP_SNAP_HPP
#define HCC_SNAP_SNAP_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"

namespace hcc::snap {

/** Provenance of a capture, carried in the file header. */
struct SnapshotMeta
{
    bool cc = false;            //!< captured Context ran in CC mode
    bool uvm = false;           //!< workload used managed memory
    std::uint64_t seed = 0;     //!< master seed of the captured run
    SimTime sim_time = 0;       //!< host clock at the fork point
    std::string app;            //!< workload name (empty: library use)
    std::string fork_point;     //!< fork-point spec that placed the cut
    /**
     * Parent link for snapshot-tree nodes: the fork-point path of
     * the capture this one chains from (the cut path minus its last
     * component), empty for a root capture.  Purely provenance — the
     * in-memory tree holds real pointers; this records the tree
     * shape for `hccsim snapshot` inspection.
     */
    std::string parent;
};

/** One named state blob (a subsystem's snapState output). */
struct Section
{
    std::string name;
    std::vector<std::uint8_t> bytes;
};

/** A full capture: meta plus ordered per-subsystem sections. */
struct Snapshot
{
    SnapshotMeta meta;
    std::vector<Section> sections;

    /**
     * Runtime-only provenance: the capturing Context and its capture
     * token, set by Context::captureSnapshot.  They let a restore on
     * the same Context rewind the append-only trace by truncation
     * instead of replaying the section bytes.  Never serialized — a
     * file round-trip clears them, and a restore on a different
     * Context (or after a newer capture on the same one) falls back
     * to the byte load, so the fast path can never change results.
     */
    const void *origin = nullptr;
    std::uint64_t origin_token = 0;

    /** Append an empty section and return its byte vector to fill. */
    std::vector<std::uint8_t> &
    add(std::string name)
    {
        sections.push_back({std::move(name), {}});
        return sections.back().bytes;
    }

    /** Find a section by name; nullptr when absent. */
    const Section *
    find(std::string_view name) const
    {
        for (const auto &s : sections)
            if (s.name == name)
                return &s;
        return nullptr;
    }

    /** Total payload bytes across all sections. */
    std::size_t
    totalBytes() const
    {
        std::size_t n = 0;
        for (const auto &s : sections)
            n += s.bytes.size();
        return n;
    }
};

/**
 * Write @p snap to @p path.  Format: magic "HCCSNAP1", a version
 * word, the meta block, a section table of (name, size, SHA-256 of
 * the payload), the SHA-256 of everything before it, then the
 * payloads.
 */
[[nodiscard]] Status writeSnapshotFile(const std::string &path,
                                       const Snapshot &snap);

/**
 * Read a snapshot file written by writeSnapshotFile.  A truncated
 * file, or one whose header or section bytes do not match their
 * digests, is a ParseError naming the file (and the section).
 */
Result<Snapshot> readSnapshotFile(const std::string &path);

/**
 * Human-readable dump of a snapshot's meta and section table (the
 * body of `hccsim snapshot --inspect`).
 */
void printSnapshot(std::ostream &os, const Snapshot &snap);

} // namespace hcc::snap

#endif // HCC_SNAP_SNAP_HPP
