#include "ml/dataset.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace xentry::ml {

Dataset::Dataset(std::vector<std::string> feature_names)
    : feature_names_(std::move(feature_names)) {
  if (feature_names_.empty()) {
    throw std::invalid_argument("Dataset: need at least one feature");
  }
}

void Dataset::add(std::span<const std::int64_t> features, Label label) {
  if (features.size() != num_features()) {
    throw std::invalid_argument("Dataset::add: feature count mismatch");
  }
  // One push_back per value: a range insert of a handful of words calls
  // the out-of-line memmove once per row.
  for (const std::int64_t v : features) values_.push_back(v);
  labels_.push_back(label);
}

void Dataset::append(const Dataset& other) {
  if (other.feature_names_ != feature_names_) {
    throw std::invalid_argument("Dataset::append: feature schema mismatch");
  }
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
}

void Dataset::reserve(std::size_t rows) {
  values_.reserve(rows * num_features());
  labels_.reserve(rows);
}

std::size_t Dataset::count(Label l) const {
  return static_cast<std::size_t>(
      std::count(labels_.begin(), labels_.end(), l));
}

std::pair<Dataset, Dataset> Dataset::split(double train_fraction,
                                           std::uint64_t seed) const {
  if (train_fraction < 0.0 || train_fraction > 1.0) {
    throw std::invalid_argument("Dataset::split: fraction out of [0,1]");
  }
  std::vector<std::size_t> order(size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);

  const auto n_train =
      static_cast<std::size_t>(train_fraction * static_cast<double>(size()));
  Dataset train(feature_names_), test(feature_names_);
  for (std::size_t i = 0; i < order.size(); ++i) {
    Dataset& dst = i < n_train ? train : test;
    dst.add(row(order[i]), label(order[i]));
  }
  return {std::move(train), std::move(test)};
}

Dataset Dataset::bootstrap(std::mt19937_64& rng) const {
  Dataset out(feature_names_);
  if (empty()) return out;
  std::uniform_int_distribution<std::size_t> pick(0, size() - 1);
  for (std::size_t i = 0; i < size(); ++i) {
    const std::size_t r = pick(rng);
    out.add(row(r), label(r));
  }
  return out;
}

void Dataset::save_csv(std::ostream& os) const {
  for (const std::string& n : feature_names_) os << n << ',';
  os << "label\n";
  for (std::size_t r = 0; r < size(); ++r) {
    for (std::size_t c = 0; c < num_features(); ++c) os << value(r, c) << ',';
    os << (label(r) == Label::Incorrect ? 1 : 0) << '\n';
  }
}

Dataset Dataset::load_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("Dataset::load_csv: empty input");
  }
  std::vector<std::string> names;
  {
    std::istringstream hs(line);
    std::string field;
    while (std::getline(hs, field, ',')) names.push_back(field);
  }
  if (names.empty() || names.back() != "label") {
    throw std::runtime_error("Dataset::load_csv: last column must be label");
  }
  names.pop_back();
  Dataset ds(names);
  std::vector<std::int64_t> fields(names.size() + 1);  // features, label
  std::size_t row = 0;
  const auto fail = [&row](std::size_t col, const std::string& what) {
    throw std::runtime_error("Dataset::load_csv: row " + std::to_string(row) +
                             ", column " + std::to_string(col) + ": " + what);
  };
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++row;
    std::istringstream ls(line);
    std::string field;
    for (std::size_t c = 0; c < fields.size(); ++c) {
      if (!std::getline(ls, field, ',')) fail(c + 1, "short row");
      const char* const end = field.data() + field.size();
      const auto [ptr, ec] = std::from_chars(field.data(), end, fields[c]);
      if (ec != std::errc{} || ptr != end) {
        fail(c + 1, "bad integer '" + field + "'");
      }
    }
    if (std::getline(ls, field, ',')) fail(fields.size() + 1, "extra field");
    const std::int64_t label = fields.back();
    if (label != 0 && label != 1) fail(fields.size(), "label is not 0 or 1");
    ds.add(std::span<const std::int64_t>(fields.data(), names.size()),
           label == 1 ? Label::Incorrect : Label::Correct);
  }
  return ds;
}

}  // namespace xentry::ml
