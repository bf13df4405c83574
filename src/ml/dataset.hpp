// Labelled integer-feature dataset for the VM-transition classifier.
//
// Every sample is one hypervisor execution described by the paper's five
// features (Table I): VM exit reason, retired instructions, branches,
// memory loads, memory stores — all integers, which is what makes the
// decision-tree classifier implementable in the hypervisor "as a set of
// simple integer comparisons" (Section III-B).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace xentry::ml {

/// Binary classification labels, matching the paper's terminology.
enum class Label : std::uint8_t {
  Correct = 0,    ///< fault-free (or indistinguishable) execution
  Incorrect = 1,  ///< incorrect control flow caused by a soft error
};

class Dataset {
 public:
  explicit Dataset(std::vector<std::string> feature_names);

  std::size_t num_features() const { return feature_names_.size(); }
  std::size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  /// Appends one sample.  `features.size()` must equal num_features().
  void add(std::span<const std::int64_t> features, Label label);

  /// Appends every row of `other` in order.  The feature schemas must be
  /// identical (same names, same order).  One bulk splice per underlying
  /// buffer — this is how campaign shard results merge.
  void append(const Dataset& other);

  /// Grows the underlying buffers to hold `rows` total rows without
  /// reallocating on the way there.
  void reserve(std::size_t rows);

  std::int64_t value(std::size_t row, std::size_t col) const {
    return values_[row * num_features() + col];
  }
  std::span<const std::int64_t> row(std::size_t r) const {
    return {values_.data() + r * num_features(), num_features()};
  }
  Label label(std::size_t row) const { return labels_[row]; }

  std::size_t count(Label l) const;

  /// Deterministic shuffled split into (train, test) with `train_fraction`
  /// of rows in the first part.
  std::pair<Dataset, Dataset> split(double train_fraction,
                                    std::uint64_t seed) const;

  /// Bootstrap sample of the same size (sampling with replacement), for
  /// bagged ensembles.
  Dataset bootstrap(std::mt19937_64& rng) const;

  /// CSV round-trip: header is feature names + "label".
  void save_csv(std::ostream& os) const;
  /// Each field must parse whole as an integer and each label must be 0
  /// or 1; anything else throws std::runtime_error naming the 1-based
  /// data row (the header is not counted) and column.
  static Dataset load_csv(std::istream& is);

 private:
  std::vector<std::string> feature_names_;
  std::vector<std::int64_t> values_;  // row-major
  std::vector<Label> labels_;
};

}  // namespace xentry::ml
