// The SHA-256 compression function, in two implementations.
//
// Private to the crypto layer: only sha256.cpp, the tests and bench_crypto
// include this header. Sha256 runs the routine compress() picks once per
// process; the tests hold the hardware routine against the portable one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace zendoo::crypto::sha256_detail {

using CompressFn = void (*)(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* blocks, std::size_t count);

/// Folds `count` consecutive 64-byte blocks into `state` (FIPS 180-4
/// §6.2.2). Plain C++; the only routine on hosts without SHA extensions.
void compress_portable(std::array<std::uint32_t, 8>& state,
                       const std::uint8_t* blocks, std::size_t count);

#if defined(__x86_64__)
/// The same function on the x86 SHA extensions (sha256rnds2/msg1/msg2).
/// Call it only where shani_available() is true.
void compress_shani(std::array<std::uint32_t, 8>& state,
                    const std::uint8_t* blocks, std::size_t count);
#endif

/// True when the CPU reports SHA, SSSE3 and SSE4.1 (CPUID leaf 7 EBX bit
/// 29, leaf 1 ECX bits 9 and 19). Always false off x86-64.
bool shani_available();

/// The routine Sha256 runs: compress_shani where shani_available(), else
/// compress_portable. Chosen on the first call; a function-local static, so
/// a hash taken during another translation unit's static initialisation, or
/// by racing first callers, still sees an initialised choice.
CompressFn compress();

}  // namespace zendoo::crypto::sha256_detail
