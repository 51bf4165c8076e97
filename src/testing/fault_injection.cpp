#include "testing/fault_injection.hpp"

#include <cstring>
#include <sstream>

#include "common/error.hpp"

namespace jigsaw::testing {

namespace {

/// Byte offset of the first array section in a serialized blob: magic(4) +
/// version(4) + rows(8) + cols(8) + block_tile(4) + layout(1) + header
/// CRC(4 in v2).
constexpr std::uint64_t kV2FirstSectionOffset = 4 + 4 + 8 + 8 + 4 + 1 + 4;

/// Per-section element sizes, in the order save_format writes them.
constexpr std::uint64_t kSectionElementSize[] = {
    16,  // PanelHeader
    8,   // TileHeader
    4,   // col_idx
    4,   // block_col_idx
    2,   // values (fp16)
    4,   // metadata
};
constexpr int kSectionCount = 6;

std::uint64_t read_u64_le(const std::string& blob, std::uint64_t offset) {
  std::uint64_t v = 0;
  JIGSAW_CHECK(offset + 8 <= blob.size());
  std::memcpy(&v, blob.data() + offset, 8);
  return v;
}

/// Offset of section `section`'s length field in a healthy v2 blob.
std::uint64_t section_offset(const std::string& blob, int section) {
  std::uint64_t off = kV2FirstSectionOffset;
  for (int s = 0; s < section; ++s) {
    const std::uint64_t count = read_u64_le(blob, off);
    off += 8 + count * kSectionElementSize[s] + 4;  // count + payload + crc
  }
  JIGSAW_CHECK_MSG(off + 8 <= blob.size(), "blob shorter than its layout");
  return off;
}

}  // namespace

const char* to_string(CorruptionClass c) {
  switch (c) {
    case CorruptionClass::kColIdxOutOfRange: return "col-idx-out-of-range";
    case CorruptionClass::kDuplicateColIdx: return "duplicate-col-idx";
    case CorruptionClass::kBrokenPermutation: return "broken-permutation";
    case CorruptionClass::kMetadataViolation: return "metadata-violation";
    case CorruptionClass::kPayloadSizeMismatch:
      return "payload-size-mismatch";
    case CorruptionClass::kBlobBadChecksum: return "blob-bad-checksum";
    case CorruptionClass::kBlobTruncation: return "blob-truncation";
    case CorruptionClass::kBlobLengthFieldEdit:
      return "blob-length-field-edit";
    case CorruptionClass::kBlobBitFlip: return "blob-bit-flip";
  }
  return "?";
}

bool is_blob_corruption(CorruptionClass c) {
  switch (c) {
    case CorruptionClass::kBlobBadChecksum:
    case CorruptionClass::kBlobTruncation:
    case CorruptionClass::kBlobLengthFieldEdit:
    case CorruptionClass::kBlobBitFlip:
      return true;
    default:
      return false;
  }
}

FormatSurgeon::FormatSurgeon(const DenseMatrix<fp16_t>& a, int block_tile,
                             core::MetadataLayout layout) {
  core::ReorderOptions opts;
  opts.tile.block_tile_m = block_tile;
  format_ = core::JigsawFormat::build(
      a, core::multi_granularity_reorder(a, opts), layout);
}

FormatSurgeon::FormatSurgeon(core::JigsawFormat format)
    : format_(std::move(format)) {}

core::JigsawFormat FormatSurgeon::with_metadata_word(
    std::size_t index, std::uint32_t word) const {
  JIGSAW_CHECK_MSG(index < format_.metadata_.size(),
                   "metadata word " << index << " out of range");
  core::JigsawFormat f = format_;
  f.metadata_[index] = word;
  return f;
}

std::string FormatSurgeon::blob() const {
  std::ostringstream os(std::ios::binary);
  core::save_format(format_, os);
  return os.str();
}

core::JigsawFormat FormatSurgeon::corrupt(CorruptionClass c,
                                          std::uint64_t seed) const {
  JIGSAW_CHECK_MSG(!is_blob_corruption(c),
                   to_string(c) << " corrupts the blob, not the format");
  Rng rng(mix_seed(seed, static_cast<std::uint64_t>(c)));
  core::JigsawFormat f = format_;
  switch (c) {
    case CorruptionClass::kColIdxOutOfRange: {
      JIGSAW_CHECK_MSG(!f.col_idx_.empty(), "format has no live columns");
      const std::size_t i = rng.next_below(f.col_idx_.size());
      f.col_idx_[i] = static_cast<std::uint32_t>(
          f.cols_ + rng.next_below(1000));
      break;
    }
    case CorruptionClass::kDuplicateColIdx: {
      const core::JigsawFormat::PanelHeader* victim = nullptr;
      for (const auto& p : f.panels_) {
        if (p.col_count >= 2) {
          victim = &p;
          break;
        }
      }
      JIGSAW_CHECK_MSG(victim != nullptr,
                       "no panel with two live columns to duplicate");
      const std::uint32_t i =
          1 + static_cast<std::uint32_t>(
                  rng.next_below(victim->col_count - 1));
      f.col_idx_[victim->col_idx_offset + i] =
          f.col_idx_[victim->col_idx_offset];
      break;
    }
    case CorruptionClass::kBrokenPermutation: {
      JIGSAW_CHECK_MSG(!f.block_col_idx_.empty(), "no permutations");
      const std::size_t group =
          rng.next_below(f.block_col_idx_.size() / core::kMmaTile);
      const std::size_t j = rng.next_below(core::kMmaTile);
      // Copying a neighbouring entry leaves all values in range but
      // destroys bijectivity — the subtlest breakage of this array.
      f.block_col_idx_[group * core::kMmaTile + j] =
          f.block_col_idx_[group * core::kMmaTile +
                           (j + 1) % core::kMmaTile];
      break;
    }
    case CorruptionClass::kMetadataViolation: {
      JIGSAW_CHECK_MSG(!f.metadata_.empty(), "no metadata");
      const std::size_t i = rng.next_below(f.metadata_.size());
      // An all-zero word decodes every group as (0, 0): not strictly
      // increasing, an encoding mma.sp would never receive.
      f.metadata_[i] = 0;
      break;
    }
    case CorruptionClass::kPayloadSizeMismatch: {
      JIGSAW_CHECK_MSG(!f.values_.empty(), "no payload");
      if (rng.bernoulli(0.5)) {
        f.values_.pop_back();
      } else {
        f.values_.push_back(fp16_t{});
      }
      break;
    }
    default:
      JIGSAW_CHECK_MSG(false, "unhandled corruption class");
  }
  return f;
}

std::string FormatSurgeon::corrupt_blob(CorruptionClass c,
                                        std::uint64_t seed) const {
  if (!is_blob_corruption(c)) {
    // Structural corruption, serialized with fresh (valid) checksums: the
    // loader's CRC pass must NOT be what rejects it — validate() must.
    std::ostringstream os(std::ios::binary);
    core::save_format(corrupt(c, seed), os);
    return os.str();
  }
  Rng rng(mix_seed(seed, static_cast<std::uint64_t>(c)));
  std::string blob = this->blob();
  switch (c) {
    case CorruptionClass::kBlobBadChecksum: {
      // Flip one bit of the final section's CRC field (the last 4 bytes).
      const std::uint64_t bit =
          (blob.size() - 4) * 8 + rng.next_below(32);
      return flip_bit(std::move(blob), bit);
    }
    case CorruptionClass::kBlobTruncation:
      return truncate_blob(std::move(blob), rng.next_below(blob.size()));
    case CorruptionClass::kBlobLengthFieldEdit: {
      const int section = static_cast<int>(rng.next_below(kSectionCount));
      // Either a hostile huge count (would allocate gigabytes if the
      // loader trusted it) or an off-by-one that desynchronizes the
      // section framing.
      const std::uint64_t current =
          read_u64_le(blob, section_offset(blob, section));
      const std::uint64_t value =
          rng.bernoulli(0.5) ? (1ull << 62) : current + 1;
      return edit_length_field(std::move(blob), section, value);
    }
    case CorruptionClass::kBlobBitFlip:
      return flip_bit(std::move(blob), rng.next_below(blob.size() * 8));
    default:
      JIGSAW_CHECK_MSG(false, "unhandled corruption class");
  }
  return blob;
}

Status FormatSurgeon::probe(CorruptionClass c, std::uint64_t seed) const {
  if (is_blob_corruption(c)) {
    std::istringstream is(corrupt_blob(c, seed), std::ios::binary);
    return core::load_format_checked(is).status();
  }
  return corrupt(c, seed).validate();
}

std::string flip_bit(std::string blob, std::uint64_t bit) {
  JIGSAW_CHECK(!blob.empty());
  bit %= blob.size() * 8;
  blob[bit / 8] = static_cast<char>(
      static_cast<unsigned char>(blob[bit / 8]) ^ (1u << (bit % 8)));
  return blob;
}

std::string truncate_blob(std::string blob, std::uint64_t new_size) {
  if (new_size < blob.size()) blob.resize(new_size);
  return blob;
}

std::string edit_length_field(std::string blob, int section,
                              std::uint64_t value) {
  const std::uint64_t off =
      section_offset(blob, section % kSectionCount);
  std::memcpy(blob.data() + off, &value, 8);
  return blob;
}

std::string random_mutation(const std::string& blob, Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:  // single bit flip
      return flip_bit(blob, rng.next_below(blob.size() * 8));
    case 1: {  // short byte scramble
      std::string m = blob;
      const std::uint64_t len = 1 + rng.next_below(16);
      const std::uint64_t at = rng.next_below(m.size());
      for (std::uint64_t i = 0; i < len && at + i < m.size(); ++i) {
        m[at + i] = static_cast<char>(rng.next_below(256));
      }
      return m;
    }
    case 2:  // truncation
      return truncate_blob(blob, rng.next_below(blob.size() + 1));
    default:  // length-field edit
      return edit_length_field(
          blob, static_cast<int>(rng.next_below(kSectionCount)),
          rng.bernoulli(0.5) ? rng.next_below(1ull << 40)
                             : (1ull << 62) + rng.next_below(1024));
  }
}

}  // namespace jigsaw::testing
