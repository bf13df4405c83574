#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <array>
#include <sstream>

namespace xentry::ml {
namespace {

Dataset tiny() {
  Dataset ds({"a", "b"});
  ds.add(std::array<std::int64_t, 2>{1, 10}, Label::Correct);
  ds.add(std::array<std::int64_t, 2>{2, 20}, Label::Incorrect);
  ds.add(std::array<std::int64_t, 2>{3, 30}, Label::Correct);
  return ds;
}

TEST(DatasetTest, AddAndAccess) {
  Dataset ds = tiny();
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.num_features(), 2u);
  EXPECT_EQ(ds.value(1, 1), 20);
  EXPECT_EQ(ds.label(1), Label::Incorrect);
  EXPECT_EQ(ds.count(Label::Correct), 2u);
  EXPECT_EQ(ds.count(Label::Incorrect), 1u);
  auto row = ds.row(2);
  EXPECT_EQ(row[0], 3);
  EXPECT_EQ(row[1], 30);
}

TEST(DatasetTest, FeatureCountMismatchThrows) {
  Dataset ds({"a", "b"});
  std::array<std::int64_t, 1> one{1};
  EXPECT_THROW(ds.add(one, Label::Correct), std::invalid_argument);
}

TEST(DatasetTest, NoFeaturesThrows) {
  EXPECT_THROW(Dataset({}), std::invalid_argument);
}

TEST(DatasetTest, SplitPartitionsAllRows) {
  Dataset ds({"x"});
  for (int i = 0; i < 100; ++i) {
    std::array<std::int64_t, 1> v{i};
    ds.add(v, i % 3 == 0 ? Label::Incorrect : Label::Correct);
  }
  auto [train, test] = ds.split(0.7, 42);
  EXPECT_EQ(train.size(), 70u);
  EXPECT_EQ(test.size(), 30u);
  EXPECT_EQ(train.count(Label::Incorrect) + test.count(Label::Incorrect),
            ds.count(Label::Incorrect));
}

TEST(DatasetTest, SplitIsDeterministicPerSeed) {
  Dataset ds({"x"});
  for (int i = 0; i < 50; ++i) {
    std::array<std::int64_t, 1> v{i};
    ds.add(v, Label::Correct);
  }
  auto [a1, b1] = ds.split(0.5, 7);
  auto [a2, b2] = ds.split(0.5, 7);
  ASSERT_EQ(a1.size(), a2.size());
  for (std::size_t i = 0; i < a1.size(); ++i) {
    EXPECT_EQ(a1.value(i, 0), a2.value(i, 0));
  }
}

TEST(DatasetTest, SplitRejectsBadFraction) {
  Dataset ds = tiny();
  EXPECT_THROW(ds.split(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(ds.split(1.5, 1), std::invalid_argument);
}

TEST(DatasetTest, BootstrapPreservesSizeAndDrawsFromSource) {
  Dataset ds = tiny();
  std::mt19937_64 rng(3);
  Dataset bag = ds.bootstrap(rng);
  EXPECT_EQ(bag.size(), ds.size());
  for (std::size_t i = 0; i < bag.size(); ++i) {
    const std::int64_t a = bag.value(i, 0);
    EXPECT_TRUE(a == 1 || a == 2 || a == 3);
  }
}

TEST(DatasetTest, CsvRoundTrip) {
  Dataset ds = tiny();
  std::stringstream ss;
  ds.save_csv(ss);
  Dataset back = Dataset::load_csv(ss);
  ASSERT_EQ(back.size(), ds.size());
  ASSERT_EQ(back.num_features(), ds.num_features());
  EXPECT_EQ(back.feature_names(), ds.feature_names());
  for (std::size_t r = 0; r < ds.size(); ++r) {
    EXPECT_EQ(back.label(r), ds.label(r));
    for (std::size_t c = 0; c < ds.num_features(); ++c) {
      EXPECT_EQ(back.value(r, c), ds.value(r, c));
    }
  }
}

TEST(DatasetTest, CsvRejectsMissingLabelColumn) {
  std::stringstream ss("a,b\n1,2\n");
  EXPECT_THROW(Dataset::load_csv(ss), std::runtime_error);
}

TEST(DatasetTest, CsvRejectsMalformedFields) {
  const auto message = [](const char* text) -> std::string {
    std::stringstream ss(text);
    try {
      Dataset::load_csv(ss);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "accepted";
  };
  const auto rejects_at = [&](const char* text, const char* where) {
    const std::string m = message(text);
    EXPECT_NE(m.find(where), std::string::npos) << text << " -> " << m;
  };
  rejects_at("a,b,label\n1,2,0\nabc,2,0\n", "row 2, column 1");  // junk
  rejects_at("a,b,label\n1x,2,0\n", "row 1, column 1");  // trailing junk
  rejects_at("a,b,label\n1,99999999999999999999,0\n",
             "row 1, column 2");  // int64 overflow
  rejects_at("a,b,label\n1,2,2\n", "row 1, column 3");    // bad label
  rejects_at("a,b,label\n1,2,1x\n", "row 1, column 3");   // label junk
  rejects_at("a,b,label\n1,2,0,5\n", "row 1, column 4");  // extra field
  rejects_at("a,b,label\n1\n", "row 1, column 2");        // short row
  EXPECT_EQ(message("a,b,label\n-1,2,1\n\n3,4,0\n"), "accepted");
}

TEST(DatasetTest, AppendSplicesRowsInOrder) {
  Dataset a = tiny();
  Dataset b({"a", "b"});
  b.add(std::array<std::int64_t, 2>{4, 40}, Label::Incorrect);
  b.add(std::array<std::int64_t, 2>{5, 50}, Label::Correct);

  a.reserve(a.size() + b.size());
  a.append(b);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a.value(3, 0), 4);
  EXPECT_EQ(a.value(3, 1), 40);
  EXPECT_EQ(a.label(3), Label::Incorrect);
  EXPECT_EQ(a.value(4, 0), 5);
  EXPECT_EQ(a.label(4), Label::Correct);
  // Source is untouched.
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.value(0, 0), 4);
}

TEST(DatasetTest, AppendEmptyAndToEmpty) {
  Dataset a = tiny();
  Dataset empty({"a", "b"});
  a.append(empty);
  EXPECT_EQ(a.size(), 3u);
  empty.append(a);
  EXPECT_EQ(empty.size(), 3u);
  EXPECT_EQ(empty.value(2, 1), 30);
}

TEST(DatasetTest, AppendRejectsSchemaMismatch) {
  Dataset a = tiny();
  Dataset renamed({"a", "c"});
  Dataset wider({"a", "b", "c"});
  EXPECT_THROW(a.append(renamed), std::invalid_argument);
  EXPECT_THROW(a.append(wider), std::invalid_argument);
}

}  // namespace
}  // namespace xentry::ml
