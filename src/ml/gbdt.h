#ifndef CAMAL_ML_GBDT_H_
#define CAMAL_ML_GBDT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/regressor.h"

namespace camal::ml {

/// Hyperparameters of the gradient-boosted tree ensemble.
struct GbdtParams {
  int num_trees = 150;
  int max_depth = 3;
  int min_samples_leaf = 2;
  double learning_rate = 0.1;
  /// Fraction of rows sampled per tree (1.0 = no subsampling).
  double subsample = 1.0;
  uint64_t seed = 7;
};

/// Gradient-boosted regression trees with squared loss and exact greedy
/// splits — the "Trees" model of the paper (XGBoost stand-in), sized for
/// the tens-to-hundreds of samples active learning produces.
class Gbdt : public Regressor {
 public:
  explicit Gbdt(const GbdtParams& params = GbdtParams());

  void Fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y) override;
  double Predict(const std::vector<double>& x) const override;
  bool fitted() const override { return fitted_; }

 private:
  struct Node {
    int feature = -1;  // -1 marks a leaf
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;
  };
  struct Tree {
    std::vector<Node> nodes;
    double Eval(const std::vector<double>& x) const;
  };
  /// Fit's feature matrix, column-major, so the split search reads one
  /// contiguous array per feature: feature f of row r is col(f)[r].
  struct Columns {
    std::vector<double> values;
    size_t num_rows = 0;
    size_t num_features = 0;
    const double* col(size_t f) const { return values.data() + f * num_rows; }
  };

  /// Builds one regression tree on residuals for the given row subset.
  Tree BuildTree(const Columns& x, const std::vector<double>& residual,
                 const std::vector<int>& rows) const;
  int BuildNode(const Columns& x, const std::vector<double>& residual,
                std::vector<int> rows, int depth, Tree* tree) const;

  GbdtParams params_;
  double base_prediction_ = 0.0;
  std::vector<Tree> trees_;
  bool fitted_ = false;
};

}  // namespace camal::ml

#endif  // CAMAL_ML_GBDT_H_
