#include "lsm/monkey.h"

#include <algorithm>
#include <cmath>

namespace camal::lsm {

namespace {
constexpr double kLn2Sq = 0.4804530139182014;  // ln^2(2)

// Total bits consumed when level FPRs are min(1, mu * n_i).
double BitsForMu(double mu, const std::vector<uint64_t>& level_entries) {
  double bits = 0.0;
  for (uint64_t n : level_entries) {
    if (n == 0) continue;
    const double p = mu * static_cast<double>(n);
    if (p >= 1.0) continue;  // no filter for this level
    bits += static_cast<double>(n) * (-std::log(p)) / kLn2Sq;
  }
  return bits;
}
}  // namespace

std::vector<double> MonkeyAllocate(
    double total_bits, const std::vector<uint64_t>& level_entries) {
  std::vector<double> bpk(level_entries.size(), 0.0);
  if (total_bits <= 0.0) return bpk;
  bool any = false;
  for (uint64_t n : level_entries) any |= (n > 0);
  if (!any) return bpk;

  // BitsForMu is monotone decreasing in mu; bisect in log space. Each step
  // is a pure function of (lo, hi), so once a step leaves both unchanged
  // every later one would too: stopping there gives the same mu as running
  // all 200 steps.
  double lo = 1e-30, hi = 1e+6;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = std::sqrt(lo * hi);
    double& bound = BitsForMu(mid, level_entries) > total_bits ? lo : hi;
    if (bound == mid) break;
    bound = mid;
  }
  const double mu = std::sqrt(lo * hi);
  for (size_t i = 0; i < level_entries.size(); ++i) {
    const uint64_t n = level_entries[i];
    if (n == 0) continue;
    const double p = mu * static_cast<double>(n);
    if (p >= 1.0) continue;
    bpk[i] = -std::log(p) / kLn2Sq;
  }
  return bpk;
}

double MonkeyZeroResultIoCost(double total_bits,
                              const std::vector<uint64_t>& level_entries) {
  const std::vector<double> bpk = MonkeyAllocate(total_bits, level_entries);
  double cost = 0.0;
  for (size_t i = 0; i < level_entries.size(); ++i) {
    if (level_entries[i] == 0) continue;
    cost += bpk[i] > 0.0 ? std::exp(-bpk[i] * kLn2Sq) : 1.0;
  }
  return cost;
}

}  // namespace camal::lsm
