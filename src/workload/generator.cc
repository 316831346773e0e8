#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "engine/shard_set.h"
#include "util/status.h"

namespace camal::workload {

KeySpace::KeySpace(uint64_t num_keys, uint64_t seed) {
  CAMAL_CHECK(num_keys > 0);
  keys_.resize(num_keys);
  for (uint64_t i = 0; i < num_keys; ++i) keys_[i] = 2 * (i + 1);
  next_even_ = 2 * (num_keys + 1);
  util::Random rng(seed);
  for (uint64_t i = num_keys; i > 1; --i) {
    std::swap(keys_[i - 1], keys_[rng.Uniform(i)]);
  }
}

uint64_t KeySpace::MissingKey(util::Random* rng) const {
  // Odd keys are never inserted.
  return 2 * rng->Uniform(next_even_ / 2) + 1;
}

uint64_t KeySpace::AppendKey() {
  const uint64_t key = next_even_;
  next_even_ += 2;
  keys_.push_back(key);
  return key;
}

OperationGenerator::OperationGenerator(const model::WorkloadSpec& spec,
                                       KeySpace* keys,
                                       const GeneratorConfig& config,
                                       uint64_t seed)
    : spec_(spec.Normalized()), keys_(keys), config_(config), rng_(seed) {}

double OperationGenerator::ShardAccept(size_t shard) const {
  // Zipf weights over shard index, scaled so the hottest shard always
  // accepts: shard s keeps a draw with probability (1/(s+1))^skew.
  return std::pow(1.0 / static_cast<double>(shard + 1), config_.shard_skew);
}

template <typename Redraw>
uint64_t OperationGenerator::RejectionSample(uint64_t key, Redraw redraw) {
  // Bounded rejection: even a maximally cold draw terminates after a few
  // iterations, and the bound keeps per-op generation cost O(1). The
  // acceptance test consumes one uniform per rejected draw, so the
  // sequence is a pure function of the seed.
  constexpr int kMaxRedraws = 32;
  for (int i = 0; i < kMaxRedraws; ++i) {
    const double accept =
        ShardAccept(engine::ShardOf(key, config_.num_shards));
    if (accept >= 1.0 || rng_.NextDouble() < accept) break;
    key = redraw();
  }
  return key;
}

uint64_t OperationGenerator::BiasedExistingKey() {
  const uint64_t key = keys_->KeyAt(ExistingRank());
  if (!ShardBiasActive()) return key;
  return RejectionSample(key,
                         [this] { return keys_->KeyAt(ExistingRank()); });
}

uint64_t OperationGenerator::BiasedMissingKey() {
  const uint64_t key = keys_->MissingKey(&rng_);
  if (!ShardBiasActive()) return key;
  return RejectionSample(key, [this] { return keys_->MissingKey(&rng_); });
}

void OperationGenerator::SetSpec(const model::WorkloadSpec& spec) {
  spec_ = spec.Normalized();
}

uint64_t OperationGenerator::ExistingRank() {
  const uint64_t n = keys_->num_keys();
  if (spec_.skew <= 0.0) return rng_.Uniform(n);
  // Rebuild the Zipf sampler when the domain drifts (data growth) or the
  // skew changed.
  if (zipf_ == nullptr || zipf_->theta() != spec_.skew ||
      zipf_domain_ < n * 9 / 10 || zipf_domain_ > n) {
    zipf_ = std::make_unique<util::ZipfGenerator>(n, spec_.skew);
    zipf_domain_ = n;
  }
  return std::min<uint64_t>(zipf_->Next(&rng_), n - 1);
}

Operation OperationGenerator::Next() {
  Operation op;
  const double u = rng_.NextDouble();
  if (u < spec_.v) {
    op.type = OpType::kZeroResultLookup;
    op.key = BiasedMissingKey();
  } else if (u < spec_.v + spec_.r) {
    op.type = OpType::kNonZeroResultLookup;
    op.key = BiasedExistingKey();
  } else if (u < spec_.v + spec_.r + spec_.q) {
    op.type = OpType::kRangeLookup;
    op.key = BiasedExistingKey();
    op.scan_len = config_.scan_len;
  } else {
    if (spec_.delete_frac > 0.0 && rng_.Bernoulli(spec_.delete_frac)) {
      op.type = OpType::kDelete;
      op.key = BiasedExistingKey();
    } else {
      op.type = OpType::kWrite;
      op.key = config_.insert_new_keys ? keys_->AppendKey()
                                       : BiasedExistingKey();
      op.value = next_value_++;
    }
  }
  return op;
}

}  // namespace camal::workload
