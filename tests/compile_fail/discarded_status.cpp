// Compile-fail probe for the `discarded_status_is_a_build_error` ctest
// case (tests/CMakeLists.txt): each statement below drops a Status or
// Result<T> and must be rejected with the unused-result error.
#include "common/status.hpp"
#include "core/format.hpp"

namespace jigsaw::probe {

// Declared without a per-declaration [[nodiscard]]: the class-level
// attribute on Status/Result is what the flag must enforce.
Status free_status();
Result<int> free_result();

void drop_every_kind(const core::JigsawFormat& format) {
  free_status();
  free_result();
  format.validate();
}

}  // namespace jigsaw::probe
