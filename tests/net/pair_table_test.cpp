#include "net/pair_table.hpp"

#include <gtest/gtest.h>

namespace zendoo::net {
namespace {

TEST(PairTable, DenseToSparseMigrationKeepsWrittenPairs) {
  PairTable<std::uint64_t> table;
  table.ensure_nodes(4);
  const std::pair<std::uint32_t, std::uint32_t> written[] = {
      {0, 1}, {1, 0}, {2, 3}, {3, 3}};
  for (auto [a, b] : written) table.slot(a, b) = 100 * a + b + 1;
  table.slot(0, 2);  // touched, left at the default value

  table.ensure_nodes(kDenseNodeLimit + 1);

  for (auto [a, b] : written) {
    const std::uint64_t* v = table.find(a, b);
    ASSERT_NE(v, nullptr) << a << "," << b;
    EXPECT_EQ(*v, 100u * a + b + 1);
    EXPECT_EQ(table.slot(a, b), 100u * a + b + 1);
  }
  const std::uint64_t* touched = table.find(0, 2);
  ASSERT_NE(touched, nullptr);
  EXPECT_EQ(*touched, 0u);

  EXPECT_EQ(table.find(0, 0), nullptr);
  EXPECT_EQ(table.find(1, 1), nullptr);
  EXPECT_EQ(table.find(3, 2), nullptr);
  EXPECT_EQ(table.find(kDenseNodeLimit, 0), nullptr);

  // Ids past the old dense limit are writable after the migration.
  table.slot(kDenseNodeLimit, 1) = 7;
  ASSERT_NE(table.find(kDenseNodeLimit, 1), nullptr);
  EXPECT_EQ(*table.find(kDenseNodeLimit, 1), 7u);
}

}  // namespace
}  // namespace zendoo::net
