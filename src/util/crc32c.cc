#include "util/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CAMAL_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace camal::util {

namespace {

/// 256-entry lookup table for the reflected Castagnoli polynomial,
/// generated once at first use (trivially race-free: C++11 static-local
/// initialization).
struct Crc32cTable {
  uint32_t entries[256];

  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
      }
      entries[i] = crc;
    }
  }
};

const Crc32cTable& Table() {
  static const Crc32cTable table;
  return table;
}

#ifdef CAMAL_CRC32C_X86
/// SSE4.2 path: eight bytes per `crc32q` once the pointer is aligned, the
/// head and tail a byte at a time. Compiled for SSE4.2 regardless of the
/// build's baseline flags; only called when the CPU reports the feature.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t n,
                                                       uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  uint64_t crc64 = crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; --n) crc = _mm_crc32_u8(crc, *p++);
  return ~crc;
}
#endif

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

Crc32cFn ChooseCrc32c() {
#ifdef CAMAL_CRC32C_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cPortable;
}

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const Crc32cTable& table = Table();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = table.entries[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  static const Crc32cFn fn = ChooseCrc32c();
  return fn(data, n, seed);
}

uint32_t MaskedCrc32c(const void* data, size_t n) {
  // Rotate-and-add masking (the LevelDB constant): invertible, cheap, and
  // guarantees a stored masked CRC never equals the raw CRC of the bytes
  // that contain it.
  const uint32_t crc = Crc32c(data, n);
  return ((crc >> 15) | (crc << 17)) + 0xA282EAD8u;
}

}  // namespace camal::util
