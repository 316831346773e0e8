#ifndef CAMAL_UTIL_SEARCH_H_
#define CAMAL_UTIL_SEARCH_H_

#include <cstddef>
#include <cstdint>

namespace camal::util {

// Branch-free binary searches over a sorted array. Each step only picks
// which half the next step looks at, which compiles to a conditional move,
// so the loop never mispredicts; a branching search mispredicts about
// every other step, and on the lookup paths that is most of its cost.
// `key_of` projects an element to its 64-bit key.

/// Index of the first of the `n` elements of `a` whose key is >= `key`,
/// or `n` when there is none.
template <typename T, typename KeyOf>
size_t LowerBound(const T* a, size_t n, uint64_t key, KeyOf key_of) {
  if (n == 0) return 0;
  const T* base = a;
  while (n > 1) {
    const size_t half = n / 2;
    base = key_of(base[half]) < key ? base + half : base;
    n -= half;
  }
  return static_cast<size_t>(base - a) + (key_of(*base) < key ? 1 : 0);
}

/// Index of the first of the `n` elements of `a` whose key is > `key`,
/// or `n` when there is none.
template <typename T, typename KeyOf>
size_t UpperBound(const T* a, size_t n, uint64_t key, KeyOf key_of) {
  if (n == 0) return 0;
  const T* base = a;
  while (n > 1) {
    const size_t half = n / 2;
    base = key_of(base[half]) <= key ? base + half : base;
    n -= half;
  }
  return static_cast<size_t>(base - a) + (key_of(*base) <= key ? 1 : 0);
}

/// `UpperBound` over plain keys.
inline size_t UpperBound(const uint64_t* a, size_t n, uint64_t key) {
  return UpperBound(a, n, key, [](uint64_t k) { return k; });
}

}  // namespace camal::util

#endif  // CAMAL_UTIL_SEARCH_H_
