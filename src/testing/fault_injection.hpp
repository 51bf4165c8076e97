// Reusable fault-injection library for the format trust boundary.
//
// Grown out of the FormatSurgeon that used to live inside
// tests/test_fault_injection.cpp: a friend of JigsawFormat that can break
// one structural invariant at a time — in memory (for exercising
// JigsawFormat::validate()) or in the serialized v2 image (for exercising
// load_format_checked's checksum/truncation/allocation defenses). Every
// corruption is deterministic given its seed, so a failing case replays
// from a printed (class, seed) pair.
//
// Used by tests/test_fault_injection.cpp and the tools/fuzz_format blob
// fuzzer.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/format.hpp"
#include "core/serialize.hpp"
#include "matrix/dense.hpp"

namespace jigsaw::testing {

/// One deliberately-broken invariant. The first group mutates the
/// in-memory format (validate() must reject); the kBlob* group mutates
/// the serialized image (load_format_checked must reject).
enum class CorruptionClass : std::uint8_t {
  kColIdxOutOfRange = 0,  ///< a col_idx entry >= K
  kDuplicateColIdx,       ///< a panel lists the same column twice
  kBrokenPermutation,     ///< a block_col_idx 16-group loses bijectivity
  kMetadataViolation,     ///< a 2-bit group pair stops being increasing
  kPayloadSizeMismatch,   ///< values array disagrees with the headers
  kBlobBadChecksum,       ///< a v2 section CRC no longer matches
  kBlobTruncation,        ///< the blob is cut short
  kBlobLengthFieldEdit,   ///< a section length field is overwritten
  kBlobBitFlip,           ///< one random bit of the blob flips
};

inline constexpr CorruptionClass kAllCorruptionClasses[] = {
    CorruptionClass::kColIdxOutOfRange,
    CorruptionClass::kDuplicateColIdx,
    CorruptionClass::kBrokenPermutation,
    CorruptionClass::kMetadataViolation,
    CorruptionClass::kPayloadSizeMismatch,
    CorruptionClass::kBlobBadChecksum,
    CorruptionClass::kBlobTruncation,
    CorruptionClass::kBlobLengthFieldEdit,
    CorruptionClass::kBlobBitFlip,
};

const char* to_string(CorruptionClass c);

/// True for the classes that corrupt the serialized image rather than the
/// in-memory format.
bool is_blob_corruption(CorruptionClass c);

class FormatSurgeon {
 public:
  /// Builds a healthy format from a matrix (reorder + build), the usual
  /// starting point of an injection campaign.
  explicit FormatSurgeon(
      const DenseMatrix<fp16_t>& a, int block_tile = 32,
      core::MetadataLayout layout = core::MetadataLayout::kInterleaved);
  /// Wraps an existing format.
  explicit FormatSurgeon(core::JigsawFormat format);

  const core::JigsawFormat& format() const { return format_; }

  /// The healthy v2 serialized image.
  std::string blob() const;

  /// A copy of the format with one invariant of `c` broken (in-memory
  /// classes only; JIGSAW_CHECK otherwise).
  core::JigsawFormat corrupt(CorruptionClass c, std::uint64_t seed = 1) const;

  /// A copy of the format whose metadata word at flat `index` (into
  /// metadata()) holds `word` instead.
  core::JigsawFormat with_metadata_word(std::size_t index,
                                        std::uint32_t word) const;

  /// A copy of the format whose block_col_idx entry at flat `index` (into
  /// block_col_idx_array()) holds `pos` instead.
  core::JigsawFormat with_block_col_idx(std::size_t index,
                                        std::uint32_t pos) const;

  /// The serialized image with one corruption of `c` applied. In-memory
  /// classes are corrupted first and re-serialized (with fresh, valid
  /// checksums, so the structural validator — not the CRC — is what must
  /// catch them); blob classes mutate the healthy image directly.
  std::string corrupt_blob(CorruptionClass c, std::uint64_t seed = 1) const;

  /// Applies the corruption and reports how the checked tier rejected it:
  /// in-memory classes run validate() on the corrupted format, blob
  /// classes run load_format_checked on the corrupted image. A non-OK
  /// return is the expected outcome; OK means the defense has a hole.
  [[nodiscard]] Status probe(CorruptionClass c, std::uint64_t seed = 1) const;

 private:
  core::JigsawFormat format_;
};

// ---- Primitive blob mutators (shared with the fuzzer) ---------------------

/// Flips one bit of the blob (bit taken modulo the blob size).
std::string flip_bit(std::string blob, std::uint64_t bit);

/// Keeps the leading `new_size` bytes (clamped to the blob size).
std::string truncate_blob(std::string blob, std::uint64_t new_size);

/// Overwrites an 8-byte little-endian length field of a v2 blob with
/// `value`. `section` selects which of the six array sections (modulo the
/// count actually present); walking the healthy layout keeps the edit on
/// a real length field rather than a random offset.
std::string edit_length_field(std::string blob, int section,
                              std::uint64_t value);

/// Applies one random mutation drawn from the fuzzer's repertoire (bit
/// flips, multi-byte scrambles, truncation, length-field edits).
std::string random_mutation(const std::string& blob, Rng& rng);

}  // namespace jigsaw::testing
