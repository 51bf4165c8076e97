// Clean fixture: exercises every rule's happy path, including both
// suppression forms. tests/test_lint.cpp asserts jigsaw_lint reports
// zero findings for the good/ directory.
#pragma once

#include <cstdint>
#include <vector>

namespace fixture {

inline std::uint64_t count_rows(const std::vector<int>& rows) {
  return rows.size();
}

// jigsaw-lint: allow(raw-alloc): fixture exercising the block-comment
// suppression form; real code owns memory through containers.
inline int* leak_on_purpose() { return new int(0); }

inline void free_on_purpose(int* p) {
  delete p;  // jigsaw-lint: allow(raw-alloc): trailing-comment form
}

}  // namespace fixture
