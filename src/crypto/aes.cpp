#include "crypto/aes.hpp"

#include <cstring>

#include "common/log.hpp"
#include "crypto/accel.hpp"
#include "crypto/endian.hpp"

namespace hcc::crypto {

namespace {

// FIPS-197 S-box.
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5,
    0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc,
    0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a,
    0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85,
    0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17,
    0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88,
    0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9,
    0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6,
    0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94,
    0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68,
    0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
};

// Inverse S-box, generated as the inverse permutation of kSbox.
struct InvSbox
{
    std::uint8_t t[256];

    constexpr InvSbox() : t{}
    {
        for (int i = 0; i < 256; ++i)
            t[kSbox[i]] = static_cast<std::uint8_t>(i);
    }
};

constexpr InvSbox kInvSbox{};

constexpr std::uint8_t
xtime(std::uint8_t x)
{
    return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// GF(2^8) multiply, used by InvMixColumns.
constexpr std::uint8_t
gmul(std::uint8_t a, std::uint8_t b)
{
    std::uint8_t p = 0;
    for (int i = 0; i < 8; ++i) {
        if (b & 1)
            p ^= a;
        a = xtime(a);
        b >>= 1;
    }
    return p;
}

// ------------------------------------------------------------- T tables
//
// Te0[x] packs one S-box substitution and one MixColumns column:
// Te0[x] = (2*S[x], S[x], S[x], 3*S[x]) as a big-endian word; Te1..3
// are byte rotations of Te0, so one round of SubBytes + ShiftRows +
// MixColumns + AddRoundKey becomes four table lookups and four XORs
// per output word.

constexpr std::uint32_t
rotr8(std::uint32_t w)
{
    return (w >> 8) | (w << 24);
}

struct TeTables
{
    std::uint32_t t0[256];
    std::uint32_t t1[256];
    std::uint32_t t2[256];
    std::uint32_t t3[256];

    constexpr TeTables() : t0{}, t1{}, t2{}, t3{}
    {
        for (int i = 0; i < 256; ++i) {
            const std::uint8_t s = kSbox[i];
            const std::uint8_t s2 = xtime(s);
            const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
            t0[i] = (static_cast<std::uint32_t>(s2) << 24)
                | (static_cast<std::uint32_t>(s) << 16)
                | (static_cast<std::uint32_t>(s) << 8)
                | static_cast<std::uint32_t>(s3);
            t1[i] = rotr8(t0[i]);
            t2[i] = rotr8(t1[i]);
            t3[i] = rotr8(t2[i]);
        }
    }
};

constexpr TeTables kTe{};

/**
 * N blocks interleaved through the T-table rounds.  Each round's
 * four table reductions form one serial XOR chain per state word, so
 * a single block exposes only four independent chains to the
 * out-of-order core; interleaving multiplies that and hides most of
 * the L1 load latency.  N is a compile-time constant so the state
 * arrays scalarize into registers.
 */
template <int N>
inline void
ttableTailRounds(const std::uint32_t *rk, int nfull,
                 std::uint32_t (&s)[N][4], std::uint8_t *out)
{
    for (int r = 0; r < nfull; ++r, rk += 4) {
        std::uint32_t t[N][4];
        for (int n = 0; n < N; ++n) {
            t[n][0] = kTe.t0[s[n][0] >> 24]
                ^ kTe.t1[(s[n][1] >> 16) & 0xff]
                ^ kTe.t2[(s[n][2] >> 8) & 0xff] ^ kTe.t3[s[n][3] & 0xff]
                ^ rk[0];
            t[n][1] = kTe.t0[s[n][1] >> 24]
                ^ kTe.t1[(s[n][2] >> 16) & 0xff]
                ^ kTe.t2[(s[n][3] >> 8) & 0xff] ^ kTe.t3[s[n][0] & 0xff]
                ^ rk[1];
            t[n][2] = kTe.t0[s[n][2] >> 24]
                ^ kTe.t1[(s[n][3] >> 16) & 0xff]
                ^ kTe.t2[(s[n][0] >> 8) & 0xff] ^ kTe.t3[s[n][1] & 0xff]
                ^ rk[2];
            t[n][3] = kTe.t0[s[n][3] >> 24]
                ^ kTe.t1[(s[n][0] >> 16) & 0xff]
                ^ kTe.t2[(s[n][1] >> 8) & 0xff] ^ kTe.t3[s[n][2] & 0xff]
                ^ rk[3];
        }
        for (int n = 0; n < N; ++n)
            for (int j = 0; j < 4; ++j)
                s[n][j] = t[n][j];
    }

    // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
    auto fin = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                  std::uint32_t d) {
        return (static_cast<std::uint32_t>(kSbox[a >> 24]) << 24)
            | (static_cast<std::uint32_t>(kSbox[(b >> 16) & 0xff])
               << 16)
            | (static_cast<std::uint32_t>(kSbox[(c >> 8) & 0xff]) << 8)
            | static_cast<std::uint32_t>(kSbox[d & 0xff]);
    };
    for (int n = 0; n < N; ++n) {
        storeBe32(fin(s[n][0], s[n][1], s[n][2], s[n][3]) ^ rk[0],
                  out + 16 * n);
        storeBe32(fin(s[n][1], s[n][2], s[n][3], s[n][0]) ^ rk[1],
                  out + 16 * n + 4);
        storeBe32(fin(s[n][2], s[n][3], s[n][0], s[n][1]) ^ rk[2],
                  out + 16 * n + 8);
        storeBe32(fin(s[n][3], s[n][0], s[n][1], s[n][2]) ^ rk[3],
                  out + 16 * n + 12);
    }
}

template <int N>
inline void
ttableEncryptWide(const std::uint32_t *ek, int rounds,
                  const std::uint8_t *in, std::uint8_t *out)
{
    std::uint32_t s[N][4];
    for (int n = 0; n < N; ++n)
        for (int j = 0; j < 4; ++j)
            s[n][j] = loadBe32(in + 16 * n + 4 * j) ^ ek[j];
    ttableTailRounds<N>(ek + 4, rounds - 1, s, out);
}

/**
 * CTR-specialized variant: the N counter blocks share their first 12
 * bytes, so round 0 and three of the four table terms in every
 * round-1 word depend only on the shared prefix and are computed once
 * per call.  Per block, round 1 shrinks from 16 table loads to 4, and
 * the counter blocks are never materialized in memory — the low word
 * is just c + n.
 */
template <int N>
inline void
ttableCtrWide(const std::uint32_t *ek, int rounds, std::uint32_t w0,
              std::uint32_t w1, std::uint32_t w2, std::uint32_t c,
              std::uint8_t *ks)
{
    const std::uint32_t s0 = w0 ^ ek[0];
    const std::uint32_t s1 = w1 ^ ek[1];
    const std::uint32_t s2 = w2 ^ ek[2];
    const std::uint32_t *rk = ek + 4;
    const std::uint32_t k0 = kTe.t0[s0 >> 24]
        ^ kTe.t1[(s1 >> 16) & 0xff] ^ kTe.t2[(s2 >> 8) & 0xff] ^ rk[0];
    const std::uint32_t k1 = kTe.t0[s1 >> 24]
        ^ kTe.t1[(s2 >> 16) & 0xff] ^ kTe.t3[s0 & 0xff] ^ rk[1];
    const std::uint32_t k2 = kTe.t0[s2 >> 24]
        ^ kTe.t2[(s0 >> 8) & 0xff] ^ kTe.t3[s1 & 0xff] ^ rk[2];
    const std::uint32_t k3 = kTe.t1[(s0 >> 16) & 0xff]
        ^ kTe.t2[(s1 >> 8) & 0xff] ^ kTe.t3[s2 & 0xff] ^ rk[3];

    std::uint32_t s[N][4];
    for (int n = 0; n < N; ++n) {
        const std::uint32_t s3 =
            (c + static_cast<std::uint32_t>(n)) ^ ek[3];
        s[n][0] = k0 ^ kTe.t3[s3 & 0xff];
        s[n][1] = k1 ^ kTe.t2[(s3 >> 8) & 0xff];
        s[n][2] = k2 ^ kTe.t1[(s3 >> 16) & 0xff];
        s[n][3] = k3 ^ kTe.t0[s3 >> 24];
    }
    ttableTailRounds<N>(ek + 8, rounds - 2, s, ks);
}

// ------------------------------------------------------ scalar rounds

void
subBytes(std::uint8_t s[16])
{
    for (int i = 0; i < 16; ++i)
        s[i] = kSbox[s[i]];
}

void
invSubBytes(std::uint8_t s[16])
{
    for (int i = 0; i < 16; ++i)
        s[i] = kInvSbox.t[s[i]];
}

// State layout: s[r + 4*c] (column-major, FIPS-197 convention when the
// input block is copied column by column).
void
shiftRows(std::uint8_t s[16])
{
    std::uint8_t t;
    // Row 1: rotate left by 1.
    t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    // Row 2: rotate left by 2.
    std::swap(s[2], s[10]);
    std::swap(s[6], s[14]);
    // Row 3: rotate left by 3 (== right by 1).
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
}

void
invShiftRows(std::uint8_t s[16])
{
    std::uint8_t t;
    // Row 1: rotate right by 1.
    t = s[13]; s[13] = s[9]; s[9] = s[5]; s[5] = s[1]; s[1] = t;
    // Row 2: rotate right by 2.
    std::swap(s[2], s[10]);
    std::swap(s[6], s[14]);
    // Row 3: rotate right by 3 (== left by 1).
    t = s[3]; s[3] = s[7]; s[7] = s[11]; s[11] = s[15]; s[15] = t;
}

void
mixColumns(std::uint8_t s[16])
{
    for (int c = 0; c < 4; ++c) {
        std::uint8_t *col = s + 4 * c;
        const std::uint8_t a0 = col[0], a1 = col[1];
        const std::uint8_t a2 = col[2], a3 = col[3];
        const std::uint8_t all = a0 ^ a1 ^ a2 ^ a3;
        col[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(a0 ^ a1));
        col[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(a1 ^ a2));
        col[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(a2 ^ a3));
        col[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(a3 ^ a0));
    }
}

void
invMixColumns(std::uint8_t s[16])
{
    for (int c = 0; c < 4; ++c) {
        std::uint8_t *col = s + 4 * c;
        const std::uint8_t a0 = col[0], a1 = col[1];
        const std::uint8_t a2 = col[2], a3 = col[3];
        col[0] = static_cast<std::uint8_t>(
            gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d)
            ^ gmul(a3, 0x09));
        col[1] = static_cast<std::uint8_t>(
            gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b)
            ^ gmul(a3, 0x0d));
        col[2] = static_cast<std::uint8_t>(
            gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e)
            ^ gmul(a3, 0x0b));
        col[3] = static_cast<std::uint8_t>(
            gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09)
            ^ gmul(a3, 0x0e));
    }
}

void
addRoundKey(std::uint8_t s[16], const std::uint8_t *rk)
{
    for (int i = 0; i < 16; ++i)
        s[i] ^= rk[i];
}

} // namespace

Aes::Aes(std::span<const std::uint8_t> key)
    : Aes(key, activeCryptoImpl())
{}

Aes::Aes(std::span<const std::uint8_t> key, CryptoImpl impl)
    : impl_(impl)
{
    key_bytes_ = key.size();
    switch (key.size()) {
      case 16: rounds_ = 10; break;
      case 24: rounds_ = 12; break;
      case 32: rounds_ = 14; break;
      default:
        fatal("AES key must be 16, 24 or 32 bytes, got %zu", key.size());
    }
    if (!cryptoImplSupported(impl_))
        fatal("crypto implementation '%s' is not supported here",
              cryptoImplName(impl_).c_str());

    // FIPS-197 key expansion over 4-byte words.
    const std::size_t nk = key.size() / 4;
    const std::size_t total_words =
        4 * (static_cast<std::size_t>(rounds_) + 1);
    std::memcpy(rk_.data(), key.data(), key.size());

    std::uint8_t rcon = 0x01;
    for (std::size_t w = nk; w < total_words; ++w) {
        std::uint8_t tmp[4];
        std::memcpy(tmp, rk_.data() + 4 * (w - 1), 4);
        if (w % nk == 0) {
            // RotWord + SubWord + Rcon.
            const std::uint8_t t0 = tmp[0];
            tmp[0] = static_cast<std::uint8_t>(kSbox[tmp[1]] ^ rcon);
            tmp[1] = kSbox[tmp[2]];
            tmp[2] = kSbox[tmp[3]];
            tmp[3] = kSbox[t0];
            rcon = xtime(rcon);
        } else if (nk > 6 && w % nk == 4) {
            // AES-256 extra SubWord.
            for (auto &b : tmp)
                b = kSbox[b];
        }
        for (int i = 0; i < 4; ++i) {
            rk_[4 * w + static_cast<std::size_t>(i)] =
                rk_[4 * (w - nk) + static_cast<std::size_t>(i)]
                ^ tmp[i];
        }
    }

    // Word view of the same schedule for the T-table path.
    for (std::size_t w = 0; w < total_words; ++w)
        ek_[w] = loadBe32(rk_.data() + 4 * w);
}

void
Aes::encryptBlockScalar(const std::uint8_t in[kAesBlock],
                        std::uint8_t out[kAesBlock]) const
{
    std::uint8_t s[16];
    std::memcpy(s, in, 16);
    addRoundKey(s, rk_.data());
    for (int r = 1; r < rounds_; ++r) {
        subBytes(s);
        shiftRows(s);
        mixColumns(s);
        addRoundKey(s, rk_.data() + 16 * r);
    }
    subBytes(s);
    shiftRows(s);
    addRoundKey(s, rk_.data() + 16 * rounds_);
    std::memcpy(out, s, 16);
}

void
Aes::encryptBlockTTable(const std::uint8_t in[kAesBlock],
                        std::uint8_t out[kAesBlock]) const
{
    ttableEncryptWide<1>(ek_.data(), rounds_, in, out);
}

void
Aes::encryptBlock(const std::uint8_t in[kAesBlock],
                  std::uint8_t out[kAesBlock]) const
{
    switch (impl_) {
      case CryptoImpl::Scalar:
        encryptBlockScalar(in, out);
        return;
      case CryptoImpl::TTable:
        encryptBlockTTable(in, out);
        return;
      case CryptoImpl::Aesni:
        accel::aesniEncryptBlocks(rk_.data(), rounds_, in, out, 1);
        return;
    }
}

void
Aes::encryptBlocks(const std::uint8_t *in, std::uint8_t *out,
                   std::size_t nblocks) const
{
    switch (impl_) {
      case CryptoImpl::Scalar:
        for (std::size_t i = 0; i < nblocks; ++i)
            encryptBlockScalar(in + 16 * i, out + 16 * i);
        return;
      case CryptoImpl::TTable: {
        std::size_t i = 0;
        for (; i + 4 <= nblocks; i += 4)
            ttableEncryptWide<4>(ek_.data(), rounds_, in + 16 * i,
                                 out + 16 * i);
        for (; i + 2 <= nblocks; i += 2)
            ttableEncryptWide<2>(ek_.data(), rounds_, in + 16 * i,
                                 out + 16 * i);
        if (i < nblocks)
            ttableEncryptWide<1>(ek_.data(), rounds_, in + 16 * i,
                                 out + 16 * i);
        return;
      }
      case CryptoImpl::Aesni:
        accel::aesniEncryptBlocks(rk_.data(), rounds_, in, out,
                                  nblocks);
        return;
    }
}

void
Aes::ctrKeystream(const std::uint8_t counter0[kAesBlock],
                  std::uint8_t *ks, std::size_t nblocks) const
{
    if (impl_ == CryptoImpl::TTable) {
        const std::uint32_t w0 = loadBe32(counter0);
        const std::uint32_t w1 = loadBe32(counter0 + 4);
        const std::uint32_t w2 = loadBe32(counter0 + 8);
        const std::uint32_t c = loadBe32(counter0 + 12);
        std::size_t i = 0;
        for (; i + 4 <= nblocks; i += 4)
            ttableCtrWide<4>(ek_.data(), rounds_, w0, w1, w2,
                             c + static_cast<std::uint32_t>(i),
                             ks + 16 * i);
        for (; i < nblocks; ++i)
            ttableCtrWide<1>(ek_.data(), rounds_, w0, w1, w2,
                             c + static_cast<std::uint32_t>(i),
                             ks + 16 * i);
        return;
    }

    // Generic tiers: materialize the counter blocks in the output
    // buffer and bulk-encrypt in place (in == out aliasing is
    // explicitly supported by encryptBlocks).
    const std::uint32_t c = loadBe32(counter0 + 12);
    for (std::size_t i = 0; i < nblocks; ++i) {
        std::memcpy(ks + 16 * i, counter0, 12);
        storeBe32(c + static_cast<std::uint32_t>(i), ks + 16 * i + 12);
    }
    encryptBlocks(ks, ks, nblocks);
}

void
Aes::decryptBlockScalar(const std::uint8_t in[kAesBlock],
                        std::uint8_t out[kAesBlock]) const
{
    std::uint8_t s[16];
    std::memcpy(s, in, 16);
    addRoundKey(s, rk_.data() + 16 * rounds_);
    for (int r = rounds_ - 1; r >= 1; --r) {
        invShiftRows(s);
        invSubBytes(s);
        addRoundKey(s, rk_.data() + 16 * r);
        invMixColumns(s);
    }
    invShiftRows(s);
    invSubBytes(s);
    addRoundKey(s, rk_.data());
    std::memcpy(out, s, 16);
}

void
Aes::decryptBlock(const std::uint8_t in[kAesBlock],
                  std::uint8_t out[kAesBlock]) const
{
    // Decryption is off the bulk path (CTR/GCM only ever encrypt;
    // XTS decrypts per data unit), so only AES-NI specializes it.
    if (impl_ == CryptoImpl::Aesni) {
        accel::aesniDecryptBlock(rk_.data(), rounds_, in, out);
        return;
    }
    decryptBlockScalar(in, out);
}

} // namespace hcc::crypto
