/**
 * @file
 * AES-XTS (IEEE 1619 / NIST SP 800-38E): the counter-less tweakable
 * block cipher Intel TME-MK uses for transparent DRAM encryption.
 * `hccsim crypto-calibrate` and microbench_crypto time it for the
 * aes-xts-128 row of the CPU crypto model (Fig. 4b).  No simulated
 * run charges it: the paper treats TME-MK as free (Table I's auto
 * bypass).
 *
 * Restriction: data unit length must be a positive multiple of the
 * AES block size (TME-MK operates on 64-byte cache lines, which
 * always satisfies this), so ciphertext stealing is not implemented.
 */

#ifndef HCC_CRYPTO_XTS_HPP
#define HCC_CRYPTO_XTS_HPP

#include <cstdint>
#include <span>

#include "crypto/aes.hpp"

namespace hcc::crypto {

/**
 * AES-XTS context holding the data key (K1) and tweak key (K2).
 */
class AesXts
{
  public:
    /**
     * @param key Concatenated K1 || K2: 32 bytes (XTS-AES-128) or
     *            64 bytes (XTS-AES-256).
     */
    explicit AesXts(std::span<const std::uint8_t> key);

    /** Same, pinned to an implementation tier (tests/benchmarks). */
    AesXts(std::span<const std::uint8_t> key, CryptoImpl impl);

    /**
     * Encrypt one data unit.
     * @param data_unit logical unit number (e.g. cache-line or
     *        sector index), encoded little-endian into the tweak.
     * @param in plaintext; length must be a positive multiple of 16.
     * @param out ciphertext (may alias @p in).
     */
    void encrypt(std::uint64_t data_unit,
                 std::span<const std::uint8_t> in,
                 std::span<std::uint8_t> out) const;

    /** Decrypt one data unit (inverse of encrypt). */
    void decrypt(std::uint64_t data_unit,
                 std::span<const std::uint8_t> in,
                 std::span<std::uint8_t> out) const;

  private:
    enum class Dir { Encrypt, Decrypt };

    void crypt(std::uint64_t data_unit,
               std::span<const std::uint8_t> in,
               std::span<std::uint8_t> out, Dir dir) const;

    Aes dataAes_;
    Aes tweakAes_;
};

/** Multiply a 128-bit tweak by alpha in the XTS field (in place). */
void xtsMulAlpha(std::uint8_t tweak[16]);

} // namespace hcc::crypto

#endif // HCC_CRYPTO_XTS_HPP
