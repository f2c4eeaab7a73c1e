/**
 * @file
 * Byte-stream archives for simulator snapshots.
 *
 * A snapshot is an in-process, restore-in-place capture: state is
 * saved from and restored into the *same* objects, so pointers cached
 * elsewhere (obs::Counter handles, interned trace labels) stay valid
 * across a restore.  The archives therefore serialize only values —
 * never addresses — and every class that participates implements one
 * symmetric method:
 *
 * @code
 * template <class Ar> void snapState(Ar &ar)
 * {
 *     ar.pod(x_);
 *     ar.str(name_);
 *     ar.podVec(samples_);
 * }
 * @endcode
 *
 * called with a Saver (serializing into a byte vector) or a Loader
 * (restoring from one).  Method order must match exactly between the
 * two directions — the format is positional, with no field tags —
 * which the single-method idiom guarantees by construction.
 *
 * Kept dependency-light on purpose: this header is included from hot
 * simulator headers (timeline, rng, tracer) that must not grow heavy
 * transitive includes.
 */

#ifndef HCC_SNAP_ARCHIVE_HPP
#define HCC_SNAP_ARCHIVE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace hcc::snap {

/**
 * Bit-copyable for snapshot purposes, and free of padding: every byte
 * of the value is a value byte, so equal states write equal files
 * (padding is never initialized and would copy garbage).  Floating-
 * point scalars and arrays of them have no padding either and are
 * admitted, although -0.0 and NaN payloads keep the trait from
 * calling their bytes unique.  A std::pair is admitted when its
 * members are and it has no padding between them: its assignment
 * operators are formally non-trivial, but a pair of bit-copyable
 * members has no invariants a byte copy could break, and interval
 * maps snapshot as (key, value) pairs.  A type with padding needs an
 * explicit layout (a named zero field, or a wider member) first.
 */
template <typename T>
struct IsSnapPod
    : std::bool_constant<std::is_trivially_copyable_v<T>
                         && (std::has_unique_object_representations_v<T>
                             || std::is_floating_point_v<T>)>
{
};

template <typename T, std::size_t N>
struct IsSnapPod<T[N]> : IsSnapPod<T>
{
};

template <typename T, std::size_t N>
struct IsSnapPod<std::array<T, N>>
    : std::bool_constant<IsSnapPod<T>::value
                         && sizeof(std::array<T, N>) == N * sizeof(T)>
{
};

template <typename A, typename B>
struct IsSnapPod<std::pair<A, B>>
    : std::bool_constant<IsSnapPod<A>::value && IsSnapPod<B>::value
                         && sizeof(std::pair<A, B>)
                                == sizeof(A) + sizeof(B)>
{
};

template <typename T>
inline constexpr bool kIsSnapPod = IsSnapPod<T>::value;

/** Serializes snapState() fields into a growing byte vector. */
class Saver
{
  public:
    static constexpr bool kLoading = false;

    /** Fixed-width copy of a trivially copyable value. */
    template <typename T>
    void
    pod(const T &v)
    {
        static_assert(kIsSnapPod<T>,
                      "snapshot pod() needs a bit-copyable type");
        const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
        bytes_.insert(bytes_.end(), p, p + sizeof(T));
    }

    void
    str(std::string_view s)
    {
        pod(static_cast<std::uint64_t>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    /** Length-prefixed vector of trivially copyable elements. */
    template <typename T>
    void
    podVec(const std::vector<T> &v)
    {
        static_assert(kIsSnapPod<T>);
        pod(static_cast<std::uint64_t>(v.size()));
        if (!v.empty()) {
            const auto *p =
                reinterpret_cast<const std::uint8_t *>(v.data());
            bytes_.insert(bytes_.end(), p, p + v.size() * sizeof(T));
        }
    }

    /** Raw bytes with no length prefix (caller knows the size). */
    void
    raw(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        bytes_.insert(bytes_.end(), b, b + n);
    }

    /** Element count of a container about to be written.
     *  @return the same count (symmetric with Loader::size()). */
    std::size_t
    size(std::size_t n)
    {
        pod(static_cast<std::uint64_t>(n));
        return n;
    }

    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Restores snapState() fields from a byte vector written by Saver. */
class Loader
{
  public:
    static constexpr bool kLoading = true;

    explicit Loader(const std::vector<std::uint8_t> &bytes)
        : bytes_(bytes.data()), len_(bytes.size())
    {
    }
    Loader(const std::uint8_t *bytes, std::size_t len)
        : bytes_(bytes), len_(len)
    {
    }

    template <typename T>
    void
    pod(T &v)
    {
        static_assert(kIsSnapPod<T>,
                      "snapshot pod() needs a bit-copyable type");
        HCC_ASSERT(pos_ + sizeof(T) <= len_,
                   "snapshot archive underrun");
        // Through void *: kIsSnapPod admits std::pair on purpose.
        std::memcpy(static_cast<void *>(&v), bytes_ + pos_, sizeof(T));
        pos_ += sizeof(T);
    }

    void
    str(std::string &s)
    {
        std::uint64_t n = 0;
        pod(n);
        HCC_ASSERT(pos_ + n <= len_, "snapshot archive underrun");
        s.assign(reinterpret_cast<const char *>(bytes_ + pos_),
                 static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
    }

    /** A str() field as a view into the archive bytes, valid while
     *  they are: reading it copies and allocates nothing. */
    std::string_view
    strView()
    {
        std::uint64_t n = 0;
        pod(n);
        HCC_ASSERT(n <= len_ - pos_, "snapshot archive underrun");
        const std::string_view s(
            reinterpret_cast<const char *>(bytes_ + pos_),
            static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    template <typename T>
    void
    podVec(std::vector<T> &v)
    {
        static_assert(kIsSnapPod<T>);
        std::uint64_t n = 0;
        pod(n);
        HCC_ASSERT(pos_ + n * sizeof(T) <= len_,
                   "snapshot archive underrun");
        v.resize(static_cast<std::size_t>(n));
        if (n)
            std::memcpy(static_cast<void *>(v.data()), bytes_ + pos_,
                        static_cast<std::size_t>(n) * sizeof(T));
        pos_ += static_cast<std::size_t>(n) * sizeof(T);
    }

    void
    raw(void *p, std::size_t n)
    {
        HCC_ASSERT(pos_ + n <= len_, "snapshot archive underrun");
        std::memcpy(p, bytes_ + pos_, n);
        pos_ += n;
    }

    /** Element count of the container being restored; the @p n
     *  argument (the current live count) is ignored on load. */
    std::size_t
    size(std::size_t)
    {
        std::uint64_t n = 0;
        pod(n);
        return static_cast<std::size_t>(n);
    }

    std::size_t consumed() const { return pos_; }
    bool exhausted() const { return pos_ == len_; }

  private:
    const std::uint8_t *bytes_;
    std::size_t len_;
    std::size_t pos_ = 0;
};

} // namespace hcc::snap

#endif // HCC_SNAP_ARCHIVE_HPP
