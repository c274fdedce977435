// derive_seed(): per-run seeds depend only on (base, index), so a campaign's
// inputs are the same for any job count.
#include "exp/seed.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

namespace rthv::exp {
namespace {

TEST(DeriveSeedTest, DependsOnlyOnBaseAndIndex) {
  EXPECT_EQ(derive_seed(42, 3), derive_seed(42, 3));
  EXPECT_NE(derive_seed(42, 3), derive_seed(42, 4));
  EXPECT_NE(derive_seed(42, 3), derive_seed(43, 3));
  static_assert(derive_seed(1, 0) == derive_seed(1, 0));  // usable at compile time
}

TEST(DeriveSeedTest, NeighbouringIndicesAreWellSpread) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(derive_seed(7, i));
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions across a realistic sweep
}

}  // namespace
}  // namespace rthv::exp
