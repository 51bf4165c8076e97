// Tests for the heap-allocation counter (common/alloc_count.hpp) behind
// the engine's zero-allocation steady state.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/alloc_count.hpp"

namespace jigsaw {
namespace {

TEST(AllocCount, CountsOperatorNewMonotonically) {
  const std::uint64_t before = heap_allocation_count();
  {
    // jigsaw-lint: allow(bounded-alloc,hot-path-alloc): n/a in tests
    std::vector<int> v(1000);
    v[999] = 7;
  }
  const std::uint64_t after = heap_allocation_count();
  EXPECT_GE(after - before, 1u);  // the vector's buffer at minimum
  EXPECT_GE(heap_allocation_count(), after);  // never decreases
}

}  // namespace
}  // namespace jigsaw
