#include "snap/snap.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ostream>

#include "crypto/sha256.hpp"
#include "snap/archive.hpp"

namespace hcc::snap {

namespace {

constexpr char kMagic[8] = {'H', 'C', 'C', 'S', 'N', 'A', 'P', '1'};
// v2: meta gained the parent link (chained-fork tree provenance).
// v3: SHA-256 digests, one per section plus one over the header.
// v4: 48-byte trace events with no padding; files are deterministic.
constexpr std::uint32_t kVersion = 4;

void
saveMeta(Saver &ar, const SnapshotMeta &meta)
{
    ar.pod(meta.cc);
    ar.pod(meta.uvm);
    ar.pod(meta.seed);
    ar.pod(meta.sim_time);
    ar.str(meta.app);
    ar.str(meta.fork_point);
    ar.str(meta.parent);
}

/**
 * Bounds-checked reads over a snapshot file.  Loader asserts on an
 * underrun because restores read trusted in-memory snapshots; a file
 * may be cut short, so every length is checked against the bytes
 * that remain before it is read, and a short read returns false.
 */
class FileReader
{
  public:
    explicit FileReader(const std::vector<std::uint8_t> &bytes)
        : ar_(bytes), len_(bytes.size())
    {
    }

    std::size_t left() const { return len_ - ar_.consumed(); }
    bool fits(std::uint64_t n) const { return n <= left(); }

    template <typename T>
    bool
    pod(T &v)
    {
        if (!fits(sizeof(T)))
            return false;
        ar_.pod(v);
        return true;
    }

    bool
    raw(void *p, std::uint64_t n)
    {
        if (!fits(n))
            return false;
        ar_.raw(p, static_cast<std::size_t>(n));
        return true;
    }

    /** A bool is one byte; any value but 0 or 1 is corrupt (and
     *  loading it into a bool would be undefined behaviour). */
    bool
    flag(bool &b)
    {
        std::uint8_t v = 0;
        if (!pod(v) || v > 1)
            return false;
        b = v != 0;
        return true;
    }

    bool
    str(std::string &s)
    {
        std::uint64_t n = 0;
        if (!pod(n) || !fits(n))
            return false;
        s.resize(static_cast<std::size_t>(n));
        return raw(s.data(), n);
    }

  private:
    Loader ar_;
    std::size_t len_;
};

bool
loadMeta(FileReader &ar, SnapshotMeta &meta)
{
    return ar.flag(meta.cc) && ar.flag(meta.uvm) && ar.pod(meta.seed)
        && ar.pod(meta.sim_time) && ar.str(meta.app)
        && ar.str(meta.fork_point) && ar.str(meta.parent);
}

} // namespace

Status
writeSnapshotFile(const std::string &path, const Snapshot &snap)
{
    Saver ar;
    ar.raw(kMagic, sizeof(kMagic));
    ar.pod(kVersion);
    saveMeta(ar, snap.meta);
    ar.pod(static_cast<std::uint64_t>(snap.sections.size()));
    for (const auto &s : snap.sections) {
        ar.str(s.name);
        ar.pod(static_cast<std::uint64_t>(s.bytes.size()));
        ar.pod(crypto::Sha256::digest(s.bytes));
    }
    ar.pod(crypto::Sha256::digest(ar.bytes()));
    for (const auto &s : snap.sections)
        ar.raw(s.bytes.data(), s.bytes.size());

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return errorf(ErrorCode::IoError,
                      "cannot open '%s' for writing", path.c_str());
    const auto &bytes = ar.bytes();
    const std::size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    const int rc = std::fclose(f);
    if (written != bytes.size() || rc != 0)
        return errorf(ErrorCode::IoError,
                      "short write to '%s'", path.c_str());
    return Status{};
}

Result<Snapshot>
readSnapshotFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return errorf(ErrorCode::IoError, "cannot open '%s'",
                      path.c_str());
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);

    FileReader ar(bytes);
    const auto truncated = [&] {
        return errorf(ErrorCode::ParseError,
                      "'%s' is truncated or corrupt at byte %zu of %zu",
                      path.c_str(), bytes.size() - ar.left(),
                      bytes.size());
    };
    char magic[sizeof(kMagic)];
    std::uint32_t version = 0;
    if (!ar.raw(magic, sizeof(magic)) || !ar.pod(version))
        return errorf(ErrorCode::ParseError,
                      "'%s' is too short to be a snapshot",
                      path.c_str());
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return errorf(ErrorCode::ParseError,
                      "'%s' has no HCCSNAP1 magic", path.c_str());
    if (version != kVersion)
        return errorf(ErrorCode::ParseError,
                      "'%s' is snapshot version %u, expected %u",
                      path.c_str(), version, kVersion);

    Snapshot snap;
    std::uint64_t count = 0;
    if (!loadMeta(ar, snap.meta) || !ar.pod(count))
        return truncated();
    // Sanity bound: each table entry needs at least its two length
    // words and its digest, so a corrupt count cannot drive a huge
    // allocation.
    constexpr std::size_t kMinEntry =
        2 * sizeof(std::uint64_t) + crypto::kSha256DigestLen;
    if (count > ar.left() / kMinEntry)
        return errorf(ErrorCode::ParseError,
                      "'%s' section count %llu is implausible",
                      path.c_str(),
                      static_cast<unsigned long long>(count));
    std::vector<std::uint64_t> sizes;
    std::vector<crypto::Sha256Digest> digests;
    sizes.reserve(static_cast<std::size_t>(count));
    digests.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        Section s;
        std::uint64_t sz = 0;
        crypto::Sha256Digest digest{};
        if (!ar.str(s.name) || !ar.pod(sz) || !ar.pod(digest))
            return truncated();
        sizes.push_back(sz);
        digests.push_back(digest);
        snap.sections.push_back(std::move(s));
    }
    const std::size_t header_len = bytes.size() - ar.left();
    crypto::Sha256Digest header{};
    if (!ar.pod(header))
        return truncated();
    if (header != crypto::Sha256::digest({bytes.data(), header_len}))
        return errorf(ErrorCode::ParseError,
                      "'%s' header digest mismatch: the meta or the "
                      "section table is corrupt",
                      path.c_str());
    for (std::uint64_t i = 0; i < count; ++i) {
        auto &s = snap.sections[static_cast<std::size_t>(i)];
        const std::uint64_t sz = sizes[static_cast<std::size_t>(i)];
        if (!ar.fits(sz))
            return errorf(ErrorCode::ParseError,
                          "'%s' section '%s' size %llu exceeds the "
                          "%zu bytes left",
                          path.c_str(), s.name.c_str(),
                          static_cast<unsigned long long>(sz),
                          ar.left());
        s.bytes.resize(static_cast<std::size_t>(sz));
        ar.raw(s.bytes.data(), sz);
        if (crypto::Sha256::digest(s.bytes)
            != digests[static_cast<std::size_t>(i)])
            return errorf(ErrorCode::ParseError,
                          "'%s' section '%s' digest mismatch",
                          path.c_str(), s.name.c_str());
    }
    if (ar.left() != 0)
        return errorf(ErrorCode::ParseError,
                      "'%s' has trailing bytes after the sections",
                      path.c_str());
    return snap;
}

void
printSnapshot(std::ostream &os, const Snapshot &snap)
{
    const auto &m = snap.meta;
    os << "snapshot v" << kVersion << "\n"
       << "  app:        " << (m.app.empty() ? "(library)" : m.app)
       << "\n"
       << "  mode:       " << (m.cc ? "cc" : "base")
       << (m.uvm ? "+uvm" : "") << "\n"
       << "  seed:       " << m.seed << "\n"
       << "  fork point: "
       << (m.fork_point.empty() ? "(none)" : m.fork_point) << "\n";
    if (!m.parent.empty())
        os << "  parent:     " << m.parent
           << " (chained tree node)\n";
    os << "  sim time:   " << formatTime(m.sim_time) << "\n"
       << "  sections:   " << snap.sections.size() << " ("
       << snap.totalBytes() << " bytes)\n";
    // Per-section size table with each section's share of the
    // archive payload — where tree-node memory goes at a glance.
    std::size_t name_w = 0;
    for (const auto &s : snap.sections)
        name_w = std::max(name_w, s.name.size());
    const double total =
        static_cast<double>(std::max<std::size_t>(
            snap.totalBytes(), 1));
    for (const auto &s : snap.sections) {
        char pct[16];
        std::snprintf(pct, sizeof(pct), "%5.1f%%",
                      100.0 * static_cast<double>(s.bytes.size())
                          / total);
        os << "    " << s.name << ": "
           << std::string(name_w - s.name.size(), ' ')
           << s.bytes.size() << " bytes " << pct << "\n";
    }
}

} // namespace hcc::snap
