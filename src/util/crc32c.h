#ifndef CAMAL_UTIL_CRC32C_H_
#define CAMAL_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace camal::util {

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) over
/// `n` bytes, continuing from `seed` (pass the previous call's return value
/// to checksum discontiguous spans as one stream; 0 starts a fresh CRC).
/// Dispatches once, at first call, to the SSE4.2 `crc32` instruction when
/// the CPU has it (~20x the table's throughput: recovery checksums every
/// manifest byte and every run's Bloom filter file), and to
/// `Crc32cPortable` otherwise. Both paths return identical values.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// The portable slice-by-one table implementation `Crc32c` falls back to.
/// Callable on its own so the two paths can be checked against each other
/// on any host.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0);

/// `Crc32c` xor-folded with a fixed mask, in the spirit of the
/// LevelDB/RocksDB masked CRC: a log record whose payload itself embeds
/// CRCs (e.g. a manifest run record carrying its filter file's CRC) never
/// accidentally frames a valid-looking record at a misaligned offset.
uint32_t MaskedCrc32c(const void* data, size_t n);

}  // namespace camal::util

#endif  // CAMAL_UTIL_CRC32C_H_
