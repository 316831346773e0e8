#ifndef CAMAL_PERFBENCH_INPUTS_H_
#define CAMAL_PERFBENCH_INPUTS_H_

// Benchmark-side input generation and oracle. Everything here is computed
// from the --seed before any timing starts; the library only ever receives
// the finished `engine::Op` arrays. The generator is deliberately separate
// from the library's own workload generator, so a change to the library
// cannot change the inputs it is measured on.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "engine/storage_engine.h"

namespace camal::perfbench {

/// SplitMix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Zipfian ranks over [0, n) with exponent theta < 1 (the YCSB generator of
/// Gray et al.): O(n) set-up, O(1) per draw. Rank 0 is the hottest.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(i, theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(Rng* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto rank = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(rank, n_ - 1);
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

/// Counts occupied slots of a fixed key domain (Fenwick tree), so the oracle
/// answers "how many live keys are >= k" in O(log n) while keys arrive in
/// random order.
class SlotCounter {
 public:
  explicit SlotCounter(uint64_t slots) : tree_(slots + 1, 0) {}

  void Add(uint64_t slot) {
    for (uint64_t i = slot + 1; i < tree_.size(); i += i & (~i + 1)) {
      ++tree_[i];
    }
    ++total_;
  }
  /// Occupied slots in [0, slot).
  uint64_t Below(uint64_t slot) const {
    uint64_t sum = 0;
    for (uint64_t i = slot; i > 0; i -= i & (~i + 1)) sum += tree_[i];
    return sum;
  }
  uint64_t AtOrAbove(uint64_t slot) const { return total_ - Below(slot); }
  uint64_t total() const { return total_; }

 private:
  std::vector<uint32_t> tree_;
  uint64_t total_ = 0;
};

/// Live keys are even (`KeyOf(slot)`); odd keys are never written, so a
/// lookup of an odd key must come back empty.
inline uint64_t KeyOf(uint64_t slot) { return 2 * slot + 2; }

/// The generator's record of what it asked for, kept beside the op array.
enum class Expect : uint8_t { kPut, kFound, kMissing, kScan };

/// One workload's generated inputs and the oracle's expected answers.
struct Inputs {
  /// Keys loaded during set-up, in load order, with their values.
  std::vector<uint64_t> load_keys;
  std::vector<uint64_t> load_values;
  /// The timed operation stream, kept compact (17 bytes an op): the kind
  /// and expected answer, the key, and for a put its value or for a scan
  /// the exact `scan_hits` the engine must report.
  std::vector<Expect> expect;
  std::vector<uint64_t> keys;
  std::vector<uint64_t> aux;
  size_t scan_len = 0;

  size_t size() const { return expect.size(); }
  engine::Op OpAt(size_t i) const {
    engine::Op op;
    op.key = keys[i];
    switch (expect[i]) {
      case Expect::kPut:
        op.kind = engine::OpKind::kPut;
        op.value = aux[i];
        break;
      case Expect::kScan:
        op.kind = engine::OpKind::kScan;
        op.scan_len = scan_len;
        break;
      case Expect::kFound:
      case Expect::kMissing:
        op.kind = engine::OpKind::kGet;
        break;
    }
    return op;
  }
  /// Final oracle state: value of every live slot (0 = empty slot).
  std::vector<uint64_t> final_values;
  uint64_t live_keys = 0;
};

/// Operation mix of a file workload, as fractions of the timed stream.
struct Mix {
  double missing_get = 0.0;
  double existing_get = 0.0;
  double scan = 0.0;
  /// The rest are writes: updates of existing keys, or inserts of new ones.
  bool writes_insert = false;
  /// Zipf exponent of existing-key choice (0 = uniform).
  double zipf_theta = 0.0;
  size_t scan_len = 16;
};

/// Generates a workload: `initial` keys loaded in random order, then
/// `num_ops` timed operations drawn from `mix` over a key domain of `slots`
/// slots. Inserted keys take random free slots, so new data interleaves
/// with old across the whole key range. The loaded data set and its load
/// order come from `data_seed`, the timed operations from `op_seed`: runs
/// with different op seeds start from the same store.
inline Inputs Generate(uint64_t data_seed, uint64_t op_seed, uint64_t slots,
                       uint64_t initial, size_t num_ops, const Mix& mix) {
  Rng rng(data_seed);
  Inputs in;
  in.final_values.assign(slots, 0);
  SlotCounter live(slots);
  std::vector<uint64_t> live_slots;
  live_slots.reserve(initial + (mix.writes_insert ? num_ops : 0));
  uint64_t next_value = 1;

  // Initial population: `initial` distinct random slots (all slots when
  // the domain is exactly the initial size), loaded in shuffled order.
  if (initial == slots) {
    for (uint64_t s = 0; s < slots; ++s) live_slots.push_back(s);
  } else {
    while (live_slots.size() < initial) {
      const uint64_t s = rng.Uniform(slots);
      if (in.final_values[s] != 0) continue;
      in.final_values[s] = 1;  // claimed; real value assigned below
      live_slots.push_back(s);
    }
  }
  for (uint64_t i = live_slots.size(); i > 1; --i) {
    std::swap(live_slots[i - 1], live_slots[rng.Uniform(i)]);
  }
  in.load_keys.reserve(initial);
  in.load_values.reserve(initial);
  for (uint64_t s : live_slots) {
    live.Add(s);
    in.final_values[s] = next_value;
    in.load_keys.push_back(KeyOf(s));
    in.load_values.push_back(next_value++);
  }

  // Hot keys are spread over the key range by a random rank -> slot map
  // (the load order is already a uniform shuffle).
  const Zipf* zipf = nullptr;
  Zipf zipf_storage(mix.zipf_theta > 0.0 ? initial : 2,
                    mix.zipf_theta > 0.0 ? mix.zipf_theta : 0.5);
  if (mix.zipf_theta > 0.0) zipf = &zipf_storage;
  auto existing_slot = [&]() {
    if (zipf != nullptr) return live_slots[zipf->Next(&rng)];
    return live_slots[rng.Uniform(live_slots.size())];
  };

  // Exact op counts per kind, in an order drawn from the op seed. Inserted
  // keys are part of the data set: which slots arrive is fixed by the data
  // seed, the order they arrive in by the op seed. Every run of a workload
  // therefore ends with the same store, whatever its op seed.
  const auto count = [&](double frac) {
    const double n = frac * static_cast<double>(num_ops);
    return static_cast<size_t>(std::llround(n));
  };
  const size_t n_missing = count(mix.missing_get);
  const size_t n_found = count(mix.existing_get);
  const size_t n_scan = count(mix.scan);
  const size_t n_put = num_ops - n_missing - n_found - n_scan;
  std::vector<uint64_t> inserts;
  if (mix.writes_insert) {
    inserts.reserve(n_put);
    while (inserts.size() < n_put) {
      const uint64_t s = rng.Uniform(slots);
      if (in.final_values[s] != 0) continue;
      in.final_values[s] = 1;  // claimed
      inserts.push_back(s);
    }
  }
  std::vector<Expect> kinds;
  kinds.reserve(num_ops);
  kinds.insert(kinds.end(), n_missing, Expect::kMissing);
  kinds.insert(kinds.end(), n_found, Expect::kFound);
  kinds.insert(kinds.end(), n_scan, Expect::kScan);
  kinds.insert(kinds.end(), n_put, Expect::kPut);
  rng = Rng(op_seed);
  auto shuffle = [&](auto& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.Uniform(i)]);
    }
  };
  shuffle(kinds);
  shuffle(inserts);

  in.expect = kinds;
  in.keys.resize(num_ops);
  in.aux.assign(num_ops, 0);
  in.scan_len = mix.scan_len;
  size_t next_insert = 0;
  for (size_t i = 0; i < num_ops; ++i) {
    switch (kinds[i]) {
      case Expect::kMissing:
        in.keys[i] = 2 * rng.Uniform(slots + 1) + 1;  // odd: never written
        break;
      case Expect::kFound:
        in.keys[i] = KeyOf(existing_slot());
        break;
      case Expect::kScan: {
        const uint64_t s = live_slots[rng.Uniform(live_slots.size())];
        in.keys[i] = KeyOf(s);
        in.aux[i] = std::min<uint64_t>(mix.scan_len, live.AtOrAbove(s));
        break;
      }
      case Expect::kPut: {
        uint64_t s = 0;
        if (mix.writes_insert) {
          s = inserts[next_insert++];
          live.Add(s);
          live_slots.push_back(s);
        } else {
          s = live_slots[rng.Uniform(live_slots.size())];
        }
        in.keys[i] = KeyOf(s);
        in.aux[i] = next_value++;
        in.final_values[s] = in.aux[i];
        break;
      }
    }
  }
  in.live_keys = live.total();
  return in;
}

}  // namespace camal::perfbench

#endif  // CAMAL_PERFBENCH_INPUTS_H_
