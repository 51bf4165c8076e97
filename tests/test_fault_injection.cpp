// Fault-injection tests: corrupt each component of the pipeline and
// verify the damage is observable. These tests prove the functional paths
// really consume every array of the reorder-aware format — a simulator
// that ignored the metadata or the permutations would pass the plain
// correctness tests by accident and fail these.
//
// The corruption machinery itself lives in src/testing/fault_injection.*;
// this file covers both its corruption classes (every class must be
// rejected by the checked tier) and the load-bearing-ness of the arrays.
#include <gtest/gtest.h>

#include <sstream>

#include "core/format.hpp"
#include "core/kernel.hpp"
#include "core/serialize.hpp"
#include "matrix/reference.hpp"
#include "matrix/vector_sparse.hpp"
#include "sptc/mma_sp.hpp"
#include "testing/fault_injection.hpp"

namespace jigsaw::core {
namespace {

using jigsaw::testing::FormatSurgeon;

struct Fixture {
  DenseMatrix<fp16_t> a;
  DenseMatrix<fp16_t> b;
  DenseMatrix<float> ref;

  static Fixture make(std::uint64_t seed = 3) {
    VectorSparseOptions o;
    o.rows = 64;
    o.cols = 128;
    o.vector_width = 4;
    o.sparsity = 0.85;
    o.seed = seed;
    Fixture f{VectorSparseGenerator::generate(o).values(),
              DenseMatrix<fp16_t>(128, 24), DenseMatrix<float>()};
    Rng rng(seed + 1);
    for (std::size_t i = 0; i < f.b.size(); ++i) {
      f.b.data()[i] = fp16_t(rng.uniform(-1.0f, 1.0f));
    }
    f.ref = reference_gemm(f.a, f.b);
    return f;
  }
};

TEST(FaultInjection, HealthyFormatValidatesAndLoads) {
  const auto f = Fixture::make();
  const FormatSurgeon surgeon(f.a);
  EXPECT_TRUE(surgeon.format().validate().ok());
  std::istringstream is(surgeon.blob());
  auto loaded = load_format_checked(is);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_TRUE(allclose(jigsaw_compute(loaded.value(), f.b), f.ref,
                       f.a.cols()));
}

// Every corruption class, over several seeds, must be rejected — in
// memory by validate(), on the wire by load_format_checked. This is the
// acceptance gate of the checked tier.
TEST(FaultInjection, EveryCorruptionClassIsRejected) {
  const auto f = Fixture::make();
  const FormatSurgeon surgeon(f.a);
  for (const auto c : jigsaw::testing::kAllCorruptionClasses) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const Status s = surgeon.probe(c, seed);
      EXPECT_FALSE(s.ok()) << "undetected corruption: "
                           << jigsaw::testing::to_string(c) << " seed "
                           << seed;
    }
  }
}

TEST(FaultInjection, InMemoryClassesFailValidateWithInvalidFormat) {
  // The in-memory classes survive (re-)serialization with fresh checksums,
  // so the structural validator — not the CRC — is what rejects them.
  const auto f = Fixture::make();
  const FormatSurgeon surgeon(f.a);
  for (const auto c : jigsaw::testing::kAllCorruptionClasses) {
    if (jigsaw::testing::is_blob_corruption(c)) continue;
    const Status s = surgeon.probe(c, 2);
    EXPECT_EQ(s.code(), StatusCode::kInvalidFormat)
        << jigsaw::testing::to_string(c) << ": " << s.to_string();
    // And through the wire: corrupt, re-serialize, reload.
    std::istringstream is(surgeon.corrupt_blob(c, 2));
    EXPECT_FALSE(load_format_checked(is).ok())
        << jigsaw::testing::to_string(c) << " slipped through the loader";
  }
}

// validate() accepts through branch-free sweeps and reports through the
// walks behind them. Each rejection below keeps the status code and the
// message text it had before the sweeps, captured on this fixture.
TEST(FaultInjection, RejectionsKeepTheirCodeAndMessage) {
  const auto f = Fixture::make();
  const FormatSurgeon surgeon(f.a);
  const JigsawFormat& healthy = surgeon.format();
  ASSERT_EQ(healthy.metadata().size(), 192u);
  ASSERT_EQ(healthy.block_col_idx_array().size(), 384u);
  const auto expect = [](const Status& s, StatusCode code,
                         const std::string& message) {
    EXPECT_EQ(s.code(), code) << s.to_string();
    EXPECT_EQ(s.message(), message);
  };
  const std::string kEncoding =
      "indices not strictly increasing (%): violates the 2-per-4 group "
      "encoding";
  const auto metadata_message = [&](std::size_t word, int group,
                                    const char* indices) {
    std::string tail = kEncoding;
    tail.replace(tail.find('%'), 1, indices);
    return "metadata word " + std::to_string(word) + " group " +
           std::to_string(group) + " " + tail;
  };

  const struct {
    jigsaw::testing::CorruptionClass c;
    StatusCode code;
    std::string message;
  } classes[] = {
      {jigsaw::testing::CorruptionClass::kColIdxOutOfRange,
       StatusCode::kInvalidFormat,
       "panel 1 col_idx entry 64 = 878 out of range (K=128)"},
      {jigsaw::testing::CorruptionClass::kDuplicateColIdx,
       StatusCode::kInvalidFormat, "panel 0 lists column 0 twice"},
      {jigsaw::testing::CorruptionClass::kBrokenPermutation,
       StatusCode::kInvalidFormat,
       "block_col_idx group 23 is not a permutation of 0..15"},
      {jigsaw::testing::CorruptionClass::kMetadataViolation,
       StatusCode::kInvalidFormat, metadata_message(189, 0, "0, 0")},
      {jigsaw::testing::CorruptionClass::kPayloadSizeMismatch,
       StatusCode::kInvalidFormat,
       "values array holds 3073 halves, headers imply 3072"},
      {jigsaw::testing::CorruptionClass::kBlobBadChecksum,
       StatusCode::kChecksumMismatch,
       "metadata section CRC32 mismatch (stored f73f526, computed "
       "f737526)"},
      {jigsaw::testing::CorruptionClass::kBlobTruncation,
       StatusCode::kTruncatedStream,
       "values declares 6144 payload bytes, stream has 3348"},
      {jigsaw::testing::CorruptionClass::kBlobLengthFieldEdit,
       StatusCode::kInvalidFormat,
       "panel headers declares 4611686018427387904 elements, limit "
       "1073741824"},
      {jigsaw::testing::CorruptionClass::kBlobBitFlip,
       StatusCode::kChecksumMismatch,
       "values section CRC32 mismatch (stored dbc783cd, computed "
       "53c9297c)"},
  };
  for (const auto& k : classes) {
    SCOPED_TRACE(jigsaw::testing::to_string(k.c));
    expect(surgeon.probe(k.c, 1), k.code, k.message);
  }

  // Stored word 5 is row 3 of pair 0 under the §3.4.3 interleave. Break
  // each of its eight groups in turn, with equal and with descending
  // indices; then check every nibble value at every group: a word is
  // accepted exactly when each group's low index is below its high one.
  const std::uint32_t word = healthy.metadata()[5];
  const std::uint32_t broken[8] = {0x0, 0x5, 0xA, 0xF, 0x1, 0x6, 0xB, 0x3};
  const char* indices[8] = {"0, 0", "1, 1", "2, 2", "3, 3",
                            "1, 0", "2, 1", "3, 2", "3, 0"};
  for (int g = 0; g < 8; ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    const std::uint32_t keep = word & ~(0xFu << (4 * g));
    expect(surgeon.with_metadata_word(5, keep | (broken[g] << (4 * g)))
               .validate(),
           StatusCode::kInvalidFormat, metadata_message(3, g, indices[g]));
    for (std::uint32_t n = 0; n < 16; ++n) {
      const bool ok =
          surgeon.with_metadata_word(5, keep | (n << (4 * g))).validate().ok();
      EXPECT_EQ(ok, (n & 3u) < (n >> 2)) << "nibble " << n;
    }
  }
  // The last word of the array, and entries that leave their group's bit
  // set whole but lie out of range, in the first and the last group.
  expect(surgeon.with_metadata_word(191, 0).validate(),
         StatusCode::kInvalidFormat, metadata_message(191, 0, "0, 0"));
  const auto& perm = healthy.block_col_idx_array();
  expect(surgeon.with_block_col_idx(383, perm[383] + 16).validate(),
         StatusCode::kInvalidFormat,
         "block_col_idx group 23 entry 15 = 31 out of range");
  expect(surgeon.with_block_col_idx(3, perm[3] + 16).validate(),
         StatusCode::kInvalidFormat,
         "block_col_idx group 0 entry 3 = 19 out of range");
}

TEST(FaultInjection, BlobMutatorsAreDeterministic) {
  const auto f = Fixture::make();
  const FormatSurgeon surgeon(f.a);
  for (const auto c : jigsaw::testing::kAllCorruptionClasses) {
    EXPECT_EQ(surgeon.corrupt_blob(c, 42), surgeon.corrupt_blob(c, 42))
        << jigsaw::testing::to_string(c);
  }
}

TEST(FaultInjection, MetadataBitsAreLoadBearing) {
  // Flip one 2-bit selector inside a compressed tile: the mma.sp result
  // must change (the selector picks a different B row).
  const auto f = Fixture::make();
  const FormatSurgeon surgeon(f.a);
  const auto& format = surgeon.format();
  ASSERT_GT(format.metadata().size(), 0u);

  // Locate a pair with a nonzero value whose in-group index we can flip.
  auto tile = format.load_compressed_tile(0, 0, 0);
  int row = -1, col = -1;
  for (int r = 0; r < sptc::kTileRows && row < 0; ++r) {
    for (int c = 0; c < sptc::kTileCompressedCols; ++c) {
      if (!tile.value(r, c).is_zero()) {
        row = r;
        col = c;
        break;
      }
    }
  }
  ASSERT_GE(row, 0) << "no nonzero in the first tile";

  DenseMatrix<fp16_t> btile(sptc::kTileLogicalCols, 8);
  Rng rng(9);
  for (std::size_t i = 0; i < btile.size(); ++i) {
    btile.data()[i] = fp16_t(rng.uniform(0.5f, 1.0f));  // all-distinct rows
  }
  DenseMatrix<float> d_ok(sptc::kTileRows, 8);
  sptc::mma_sp_m16n8k32(tile, btile.view(), d_ok.view());

  // Flip the low bit of that element's index.
  const int group = col / 2, slot = col % 2;
  tile.metadata[static_cast<std::size_t>(row)] ^=
      1u << (4 * group + 2 * slot);
  DenseMatrix<float> d_bad(sptc::kTileRows, 8);
  sptc::mma_sp_m16n8k32(tile, btile.view(), d_bad.view());
  EXPECT_GT(max_abs_diff(d_ok, d_bad), 1e-3);
}

TEST(FaultInjection, ZeroingValuesChangesResult) {
  const auto f = Fixture::make();
  ReorderOptions opts;
  opts.tile.block_tile_m = 32;
  const auto reorder = multi_granularity_reorder(f.a, opts);
  const auto format = JigsawFormat::build(f.a, reorder);
  const auto good = jigsaw_compute(format, f.b);
  EXPECT_TRUE(allclose(good, f.ref, f.a.cols()));

  // Rebuild from a corrupted matrix: one nonzero removed. The kernel must
  // notice (proves values flow from the payload, not from `a`).
  DenseMatrix<fp16_t> broken = f.a;
  bool zapped = false;
  for (std::size_t i = 0; i < broken.size() && !zapped; ++i) {
    if (!broken.data()[i].is_zero()) {
      broken.data()[i] = fp16_t{};
      zapped = true;
    }
  }
  ASSERT_TRUE(zapped);
  const auto reorder2 = multi_granularity_reorder(broken, opts);
  const auto format2 = JigsawFormat::build(broken, reorder2);
  const auto bad = jigsaw_compute(format2, f.b);
  EXPECT_FALSE(allclose(bad, f.ref, f.a.cols()));
}

TEST(FaultInjection, ReferenceCatchesWrongColumnOrder) {
  // Compute against a column-permuted B: since the format's col_idx
  // gathers B rows by original column id, permuting B must break the
  // comparison exactly as it would on hardware.
  const auto f = Fixture::make();
  ReorderOptions opts;
  opts.tile.block_tile_m = 16;
  const auto format =
      JigsawFormat::build(f.a, multi_granularity_reorder(f.a, opts));
  DenseMatrix<fp16_t> b_swapped = f.b;
  for (std::size_t j = 0; j < f.b.cols(); ++j) {
    std::swap(b_swapped(0, j), b_swapped(1, j));
  }
  const auto c = jigsaw_compute(format, b_swapped);
  // Rows 0/1 of B are referenced by some nonzero column of A (dense-ish
  // random matrix), so the result must differ.
  EXPECT_FALSE(allclose(c, f.ref, f.a.cols()));
}

TEST(FaultInjection, CompressRejectsThreePerGroup) {
  DenseMatrix<fp16_t> tile(sptc::kTileRows, sptc::kTileLogicalCols);
  tile(7, 8) = fp16_t(1.0f);
  tile(7, 9) = fp16_t(1.0f);
  tile(7, 10) = fp16_t(1.0f);
  sptc::CompressedTile ct;
  EXPECT_FALSE(sptc::compress_tile(tile.view(), ct));
}

TEST(FaultInjection, KernelToleranceTightEnoughToCatchSingleError) {
  // The allclose tolerance must not be so loose that a dropped MAC slips
  // through: perturb one output element by one typical product magnitude.
  const auto f = Fixture::make();
  auto perturbed = f.ref;
  perturbed(3, 3) += 0.25f;  // one lost a*b term at |a|,|b| ~ 0.5
  EXPECT_FALSE(allclose(perturbed, f.ref, f.a.cols()));
}

}  // namespace
}  // namespace jigsaw::core
