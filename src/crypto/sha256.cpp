#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "crypto/sha256_compress.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace zendoo::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return std::rotr(x, static_cast<int>(n));
}

void process_block(std::array<std::uint32_t, 8>& state,
                   const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    std::uint32_t ch = (e & f) ^ (~e & g);
    std::uint32_t temp1 = h + s1 + ch + kRoundConstants[static_cast<std::size_t>(i)] + w[i];
    std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)
#define ZENDOO_SHANI __attribute__((target("sha,sse4.1")))

// Four message words; they are big-endian, so each 32-bit lane is
// byte-swapped.
ZENDOO_SHANI inline __m128i load_words(const std::uint8_t* p) {
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL));
}

// Four rounds: each sha256rnds2 consumes two words of w + K, taken from the
// low half of its third operand. The state lives in two registers in the
// order the instruction wants, {A,B,E,F} and {C,D,G,H} (high lane first).
ZENDOO_SHANI inline void quad_round(__m128i& abef, __m128i& cdgh, __m128i w,
                                    std::size_t group) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(
             reinterpret_cast<const __m128i*>(&kRoundConstants[group * 4])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// The next four schedule words from the previous sixteen, w0 the oldest:
// w[t] = sigma1(w[t-2]) + w[t-7] + sigma0(w[t-15]) + w[t-16].
ZENDOO_SHANI inline __m128i next_words(__m128i w0, __m128i w1, __m128i w2,
                                       __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                  _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}
#endif

}  // namespace

namespace sha256_detail {

void compress_portable(std::array<std::uint32_t, 8>& state,
                       const std::uint8_t* blocks, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) process_block(state, blocks + i * 64);
}

#if defined(__x86_64__)
// The instruction sequence of Intel's SHA extensions white paper (also
// Bitcoin Core's sha256_x86_shani.cpp), with the sixteen quad rounds rolled
// into a loop over rotating schedule registers.
ZENDOO_SHANI void compress_shani(std::array<std::uint32_t, 8>& state,
                                 const std::uint8_t* blocks,
                                 std::size_t count) {
  // {A,B,C,D},{E,F,G,H} -> {A,B,E,F},{C,D,G,H}.
  __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0])), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4])), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, dcba, 0xF0);

  for (std::size_t b = 0; b < count; ++b) {
    const std::uint8_t* block = blocks + b * 64;
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i w0 = load_words(block), w1 = load_words(block + 16);
    __m128i w2 = load_words(block + 32), w3 = load_words(block + 48);
    quad_round(abef, cdgh, w0, 0);
    quad_round(abef, cdgh, w1, 1);
    quad_round(abef, cdgh, w2, 2);
    quad_round(abef, cdgh, w3, 3);
    for (std::size_t group = 4; group < 16; group += 4) {
      w0 = next_words(w0, w1, w2, w3);
      quad_round(abef, cdgh, w0, group);
      w1 = next_words(w1, w2, w3, w0);
      quad_round(abef, cdgh, w1, group + 1);
      w2 = next_words(w2, w3, w0, w1);
      quad_round(abef, cdgh, w2, group + 2);
      w3 = next_words(w3, w0, w1, w2);
      quad_round(abef, cdgh, w3, group + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // Back to {A,B,C,D},{E,F,G,H}.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool shani_available() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool ssse3 = (c & bit_SSSE3) != 0, sse41 = (c & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return ssse3 && sse41 && (b & bit_SHA) != 0;
}
#else
bool shani_available() { return false; }
#endif

CompressFn compress() {
  static const CompressFn selected = [] {
#if defined(__x86_64__)
    if (shani_available()) return &compress_shani;
#endif
    return &compress_portable;
  }();
  return selected;
}

}  // namespace sha256_detail

Sha256::Sha256() : state_(kInitState) {}

void Sha256::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;  // empty spans may carry a null data()
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ != 0) {
    std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      sha256_detail::compress()(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t blocks = (data.size() - offset) / 64; blocks != 0) {
    sha256_detail::compress()(state_, data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

std::array<std::uint8_t, 32> Sha256::finalize() {
  // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit bit length. The
  // buffer always has room for the 0x80 (buffer_len_ < 64 after update()).
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    sha256_detail::compress()(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
  }
  sha256_detail::compress()(state_, buffer_.data(), 1);

  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i * 4)] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[static_cast<std::size_t>(i * 4 + 1)] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[static_cast<std::size_t>(i * 4 + 2)] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[static_cast<std::size_t>(i * 4 + 3)] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::array<std::uint8_t, 32> Sha256::digest(
    std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

}  // namespace zendoo::crypto
