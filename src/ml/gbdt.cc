#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/random.h"
#include "util/status.h"

namespace camal::ml {

Gbdt::Gbdt(const GbdtParams& params) : params_(params) {}

double Gbdt::Tree::Eval(const std::vector<double>& x) const {
  int idx = 0;
  for (;;) {
    const Node& node = nodes[static_cast<size_t>(idx)];
    if (node.feature < 0) return node.value;
    idx = x[static_cast<size_t>(node.feature)] <= node.threshold ? node.left
                                                                 : node.right;
  }
}

int Gbdt::BuildNode(const Columns& x, const std::vector<double>& residual,
                    std::vector<int> rows, int depth, Tree* tree) const {
  const int node_idx = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();

  double sum = 0.0;
  for (int r : rows) sum += residual[static_cast<size_t>(r)];
  const double mean = sum / static_cast<double>(rows.size());
  tree->nodes[static_cast<size_t>(node_idx)].value = mean;

  if (depth >= params_.max_depth ||
      rows.size() < 2 * static_cast<size_t>(params_.min_samples_leaf)) {
    return node_idx;
  }

  // Exact greedy split: scan every (feature, threshold) pair.
  double base_sse = 0.0;
  for (int r : rows) {
    const double d = residual[static_cast<size_t>(r)] - mean;
    base_sse += d * d;
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_sse = base_sse - 1e-12;
  std::vector<int> sorted = rows;
  for (size_t f = 0; f < x.num_features; ++f) {
    const double* xf = x.col(f);
    std::sort(sorted.begin(), sorted.end(),
              [xf](int a, int b) { return xf[a] < xf[b]; });
    double left_sum = 0.0, left_sq = 0.0;
    double right_sum = 0.0, right_sq = 0.0;
    for (int r : sorted) {
      const double v = residual[static_cast<size_t>(r)];
      right_sum += v;
      right_sq += v * v;
    }
    const auto n = static_cast<double>(sorted.size());
    double left_n = 0.0;
    for (size_t i = 0; i + 1 < sorted.size(); ++i) {
      const double v = residual[static_cast<size_t>(sorted[i])];
      left_sum += v;
      left_sq += v * v;
      right_sum -= v;
      right_sq -= v * v;
      left_n += 1.0;
      const double xi = xf[sorted[i]];
      const double xj = xf[sorted[i + 1]];
      if (xi == xj) continue;
      if (left_n < params_.min_samples_leaf ||
          n - left_n < params_.min_samples_leaf) {
        continue;
      }
      const double sse = (left_sq - left_sum * left_sum / left_n) +
                         (right_sq - right_sum * right_sum / (n - left_n));
      if (sse < best_sse) {
        best_sse = sse;
        best_feature = static_cast<int>(f);
        best_threshold = (xi + xj) / 2.0;
      }
    }
  }

  if (best_feature < 0) return node_idx;

  std::vector<int> left_rows, right_rows;
  const double* xb = x.col(static_cast<size_t>(best_feature));
  for (int r : rows) {
    if (xb[r] <= best_threshold) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }
  if (left_rows.empty() || right_rows.empty()) return node_idx;

  const int left = BuildNode(x, residual, std::move(left_rows), depth + 1, tree);
  const int right =
      BuildNode(x, residual, std::move(right_rows), depth + 1, tree);
  Node& node = tree->nodes[static_cast<size_t>(node_idx)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_idx;
}

Gbdt::Tree Gbdt::BuildTree(const Columns& x,
                           const std::vector<double>& residual,
                           const std::vector<int>& rows) const {
  Tree tree;
  BuildNode(x, residual, rows, 0, &tree);
  return tree;
}

void Gbdt::Fit(const std::vector<std::vector<double>>& x,
               const std::vector<double>& y) {
  CAMAL_CHECK(!x.empty());
  CAMAL_CHECK(x.size() == y.size());
  trees_.clear();

  Columns cols;
  cols.num_rows = x.size();
  cols.num_features = x[0].size();
  cols.values.resize(cols.num_rows * cols.num_features);
  for (size_t r = 0; r < cols.num_rows; ++r) {
    CAMAL_CHECK(x[r].size() == cols.num_features);
    for (size_t f = 0; f < cols.num_features; ++f) {
      cols.values[f * cols.num_rows + r] = x[r][f];
    }
  }

  double sum = 0.0;
  for (double v : y) sum += v;
  base_prediction_ = sum / static_cast<double>(y.size());

  std::vector<double> prediction(y.size(), base_prediction_);
  std::vector<double> residual(y.size());
  util::Random rng(params_.seed);

  for (int t = 0; t < params_.num_trees; ++t) {
    for (size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - prediction[i];
    std::vector<int> rows;
    rows.reserve(y.size());
    for (size_t i = 0; i < y.size(); ++i) {
      if (params_.subsample >= 1.0 || rng.Bernoulli(params_.subsample)) {
        rows.push_back(static_cast<int>(i));
      }
    }
    if (rows.empty()) rows.push_back(static_cast<int>(rng.Uniform(y.size())));
    Tree tree = BuildTree(cols, residual, rows);
    for (size_t i = 0; i < y.size(); ++i) {
      prediction[i] += params_.learning_rate * tree.Eval(x[i]);
    }
    trees_.push_back(std::move(tree));
  }
  fitted_ = true;
}

double Gbdt::Predict(const std::vector<double>& x) const {
  CAMAL_CHECK(fitted_);
  double out = base_prediction_;
  for (const Tree& tree : trees_) out += params_.learning_rate * tree.Eval(x);
  return out;
}

}  // namespace camal::ml
