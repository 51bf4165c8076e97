#include "core/mma_tile_reorder.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace jigsaw::core {

namespace {

constexpr std::uint16_t kFullSet = 0xffffu;

/// Randomized greedy exact-cover tries before the exhaustive pair search.
constexpr int kGreedyAttempts = 40;
/// Iteration budget of the exhaustive eight-column-group construction;
/// bounds worst-case tiles without affecting the common cases.
constexpr std::uint64_t kMaxPairIterations = 150000;
/// Extra budget spent looking for a conflict-free scheme after a valid but
/// conflicting one was found.
constexpr std::uint64_t kConflictFreeSearchBudget = 6000;
/// Most compatible quads a tile can have: C(16, 4).
constexpr std::uint32_t kMaxQuads = 1820;
/// Words of a bitset over a tile's quads. The position index strides its
/// rows by this, so the enumeration can write them before it knows the
/// quad count.
constexpr std::uint32_t kMaxQuadWords = (kMaxQuads + 63) / 64;

/// A candidate solution: four pairwise-disjoint quads covering the tile.
struct QuadCover {
  std::array<MmaTileQuad, 4> quads;
};

/// True when the real positions in `set` have pairwise-distinct residues
/// mod 8, i.e. an ldmatrix stage over them touches eight distinct bank
/// groups in the padded shared-memory layout.
bool residue_complete(std::uint16_t set, int real_columns) {
  std::uint8_t seen = 0;
  for (int p = 0; p < kMmaTile; ++p) {
    if (!(set & (1u << p)) || p >= real_columns) continue;
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << (p % 8));
    if (seen & bit) return false;
    seen |= bit;
  }
  return true;
}

MmaTilePermutation make_permutation(const QuadCover& cover, int real_columns,
                                    int pairing) {
  // pairing selects how the four quads combine into the two eight-column
  // groups: 0 -> (0,1)(2,3), 1 -> (0,2)(1,3), 2 -> (0,3)(1,2).
  static constexpr int kPairs[3][4] = {{0, 1, 2, 3}, {0, 2, 1, 3}, {0, 3, 1, 2}};
  MmaTilePermutation p;
  int out = 0;
  for (int q = 0; q < 4; ++q) {
    const MmaTileQuad& quad =
        cover.quads[static_cast<std::size_t>(kPairs[pairing][q])];
    for (int j = 0; j < 4; ++j) p.perm[out++] = quad.pos[j];
  }
  bool identity = true;
  for (int j = 0; j < kMmaTile; ++j) identity &= (p.perm[j] == j);
  p.is_identity = identity;

  const std::uint16_t g1 =
      cover.quads[static_cast<std::size_t>(kPairs[pairing][0])].set |
      cover.quads[static_cast<std::size_t>(kPairs[pairing][1])].set;
  const std::uint16_t g2 =
      cover.quads[static_cast<std::size_t>(kPairs[pairing][2])].set |
      cover.quads[static_cast<std::size_t>(kPairs[pairing][3])].set;
  p.bank_conflict_free = residue_complete(g1, real_columns) &&
                         residue_complete(g2, real_columns);
  return p;
}

/// Picks the best pairing of a cover: conflict-free if any pairing is.
MmaTilePermutation best_pairing(const QuadCover& cover, int real_columns) {
  MmaTilePermutation best = make_permutation(cover, real_columns, 0);
  for (int pairing = 1; pairing < 3 && !best.bank_conflict_free; ++pairing) {
    MmaTilePermutation alt = make_permutation(cover, real_columns, pairing);
    if (alt.bank_conflict_free) best = alt;
  }
  return best;
}

/// Randomized greedy exact-cover attempt over the quad list. The candidate
/// set lives in a bitset over quad indices; filtering a pick's conflicts
/// is four word-wide andnots against the position index instead of a pass
/// over every surviving candidate. The pick sequence is identical to the
/// original candidate-vector walk: bits ascend in quad-index order,
/// exactly like the stable in-place filter kept the vector sorted, so rng
/// draws map to the same quads. Two picks need no bitset: the first draws
/// from every quad, so the draw is the quad index; after three disjoint
/// picks the only quad left disjoint from them is the complement of their
/// union, a candidate exactly when it is compatible.
std::optional<QuadCover> greedy_cover(std::span<const MmaTileQuad> quads,
                                      std::span<const std::uint16_t> col_masks,
                                      const std::uint64_t* pos_bits,
                                      std::uint32_t words, Rng& rng) {
  QuadCover cover;
  const std::uint32_t n = static_cast<std::uint32_t>(quads.size());
  cover.quads[0] = quads[rng.next_below(n)];
  std::array<std::uint64_t, kMaxQuadWords> cand;
  std::array<std::uint32_t, kMaxQuadWords> word_count;
  for (std::size_t chosen = 1; chosen < 3; ++chosen) {
    // Drop the previous pick's conflicts, then draw among the rest.
    const MmaTileQuad& q = cover.quads[chosen - 1];
    const std::uint64_t* const r0 = &pos_bits[q.pos[0] * kMaxQuadWords];
    const std::uint64_t* const r1 = &pos_bits[q.pos[1] * kMaxQuadWords];
    const std::uint64_t* const r2 = &pos_bits[q.pos[2] * kMaxQuadWords];
    const std::uint64_t* const r3 = &pos_bits[q.pos[3] * kMaxQuadWords];
    std::uint32_t count = 0;
    for (std::uint32_t k = 0; k < words; ++k) {
      std::uint64_t live = ~0ull;
      if (chosen > 1) {
        live = cand[k];
      } else if (k == words - 1 && n % 64 != 0) {
        live = (1ull << (n % 64)) - 1;
      }
      cand[k] = live & ~(r0[k] | r1[k] | r2[k] | r3[k]);
      word_count[k] = static_cast<std::uint32_t>(std::popcount(cand[k]));
      count += word_count[k];
    }
    if (count == 0) return std::nullopt;
    std::uint64_t pick = rng.next_below(count);
    std::uint32_t w = 0;
    for (; pick >= word_count[w]; ++w) pick -= word_count[w];
    std::uint64_t word = cand[w];
    for (; pick > 0; --pick) word &= word - 1;
    cover.quads[chosen] =
        quads[w * 64 + static_cast<std::uint32_t>(std::countr_zero(word))];
  }

  MmaTileQuad& last = cover.quads[3];
  last.set = static_cast<std::uint16_t>(
      ~(cover.quads[0].set | cover.quads[1].set | cover.quads[2].set));
  std::uint16_t rest = last.set;
  for (std::uint8_t& p : last.pos) {
    p = static_cast<std::uint8_t>(std::countr_zero(rest));
    rest = static_cast<std::uint16_t>(rest & (rest - 1));
  }
  if (!quad_compatible(col_masks[last.pos[0]], col_masks[last.pos[1]],
                       col_masks[last.pos[2]], col_masks[last.pos[3]])) {
    return std::nullopt;
  }
  // The fourth pick still draws among its one candidate: the panel's
  // later tiles share this rng stream.
  (void)rng.next_below(1);
  return cover;
}

/// Direct-indexed replacement of the pair-search octet hash map: slot
/// [octet] holds a version stamp plus the (i, j) quad-index pair that first
/// formed that eight-column group. Version stamping makes per-search reset
/// O(1); the table is 64 Ki * 8 B = 512 KiB of thread-local scratch.
struct OctetTable {
  std::vector<std::uint64_t> slots;  // (version << 48) | (i << 24) | j
  /// One presence bit per octet (8 KiB — L1-resident). Nearly every pair
  /// probe is answered here; the 512 KiB slot table is touched only on
  /// actual complement hits and first-time stores.
  std::vector<std::uint64_t> seen;
  std::uint32_t version = 0;

  std::uint64_t tag() const { return static_cast<std::uint64_t>(version) << 48; }

  void begin_search() {
    if (slots.empty()) slots.assign(1u << 16, 0);
    seen.assign((1u << 16) / 64, 0);
    if (++version > 0xffffu) {
      std::fill(slots.begin(), slots.end(), 0);
      version = 1;
    }
  }
};

struct SearchScratch {
  OctetTable octets;
  std::array<MmaTileQuad, kMaxQuads> quads;  // the current tile's quads
  /// Quad-index bitsets shared by the greedy and pair phases: row p marks
  /// the quads that contain position p (16 rows of kMaxQuadWords words).
  std::vector<std::uint64_t> pos_bits;
  std::vector<std::uint64_t> conflict;  // per-i union of four pos_bits rows
};

SearchScratch& scratch() {
  thread_local SearchScratch s;
  return s;
}

/// Sets bits [begin, end) of the bitset `row`.
void set_bit_range(std::uint64_t* row, std::uint32_t begin,
                   std::uint32_t end) {
  while (begin < end) {
    const std::uint32_t lo = begin % 64;
    const std::uint32_t len = std::min<std::uint32_t>(64 - lo, end - begin);
    const std::uint64_t ones = len == 64 ? ~0ull : (1ull << len) - 1;
    row[begin / 64] |= ones << lo;
    begin += len;
  }
}

/// Lines 2-8 of Algorithm 1. A quad is compatible when no row holds three
/// or more of its four columns' nonzeros: a triple (i, j, k) that already
/// fills some row three times admits no w, and w fits under the others
/// when it adds nothing to a row two of them fill. Quads come out in
/// ascending lexicographic (i, j, k, w) order, exactly those of the plain
/// four-nested-loop enumeration. The innermost loop has no data-dependent
/// branch: each candidate is written at out[n] and kept by advancing n, so
/// `out` must hold kMaxQuads entries. Row p of `pos_bits` (kMmaTile zeroed
/// rows of kMaxQuadWords words) comes out marking the quads that contain
/// position p; the quads under one (i) or (i, j) prefix are contiguous,
/// so those two rows take one range each.
std::uint32_t enumerate_quads(std::span<const std::uint16_t> col_masks,
                              MmaTileQuad* out, std::uint64_t* pos_bits) {
  JIGSAW_CHECK(col_masks.size() == kMmaTile);
  const auto row = [pos_bits](int p) {
    return pos_bits + static_cast<std::size_t>(p) * kMaxQuadWords;
  };
  std::uint32_t n = 0;
  for (int i = 0; i < kMmaTile; ++i) {
    const std::uint32_t begin_i = n;
    const unsigned mi = col_masks[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < kMmaTile; ++j) {
      const std::uint32_t begin_j = n;
      const unsigned mj = col_masks[static_cast<std::size_t>(j)];
      for (int k = j + 1; k < kMmaTile; ++k) {
        const unsigned mk = col_masks[static_cast<std::size_t>(k)];
        if (mi & mj & mk) continue;  // some row already at three
        const unsigned twice = (mi & mj) | (mi & mk) | (mj & mk);
        const unsigned set3 = (1u << i) | (1u << j) | (1u << k);
        std::uint64_t* const row_k = row(k);
        for (int w = k + 1; w < kMmaTile; ++w) {
          const auto fits = static_cast<std::uint32_t>(
              (col_masks[static_cast<std::size_t>(w)] & twice) == 0);
          const std::uint64_t bit = std::uint64_t{fits} << (n % 64);
          row(w)[n / 64] |= bit;
          row_k[n / 64] |= bit;
          MmaTileQuad& quad = out[n];
          quad.set = static_cast<std::uint16_t>(set3 | 1u << w);
          quad.pos = {static_cast<std::uint8_t>(i),
                      static_cast<std::uint8_t>(j),
                      static_cast<std::uint8_t>(k),
                      static_cast<std::uint8_t>(w)};
          n += fits;
        }
      }
      set_bit_range(row(j), begin_j, n);
    }
    set_bit_range(row(i), begin_i, n);
  }
  return n;
}

}  // namespace

bool quad_compatible(std::uint16_t a, std::uint16_t b, std::uint16_t c,
                     std::uint16_t d) {
  // Carry-save addition of the four one-bit-per-row masks; a row violates
  // 2:4 when its count reaches three, i.e. the "fours" bit is set or both
  // the "twos" and "ones" bits are.
  std::uint16_t ones = 0, twos = 0, fours = 0;
  for (const std::uint16_t m : {a, b, c, d}) {
    const std::uint16_t carry1 = ones & m;
    ones ^= m;
    const std::uint16_t carry2 = twos & carry1;
    twos ^= carry1;
    fours |= carry2;
  }
  return static_cast<std::uint16_t>(fours | (twos & ones)) == 0;
}

void enumerate_compatible_quads(std::span<const std::uint16_t> col_masks,
                                MmaTileQuadList& out) {
  std::vector<std::uint64_t> pos_bits(
      static_cast<std::size_t>(kMmaTile) * kMaxQuadWords, 0);
  out.resize(kMaxQuads);
  out.resize(enumerate_quads(col_masks, out.data(), pos_bits.data()));
}

bool tile_satisfies_two_four(std::span<const std::uint16_t> masks) {
  JIGSAW_CHECK(masks.size() == kMmaTile);
  for (int g = 0; g < 4; ++g) {
    if (!quad_compatible(masks[4 * g], masks[4 * g + 1], masks[4 * g + 2],
                         masks[4 * g + 3])) {
      return false;
    }
  }
  return true;
}

std::array<std::uint16_t, kMmaTile> apply_permutation(
    std::span<const std::uint16_t> col_masks, const MmaTilePermutation& p) {
  JIGSAW_CHECK(col_masks.size() == kMmaTile);
  std::array<std::uint16_t, kMmaTile> out{};
  for (int j = 0; j < kMmaTile; ++j) out[j] = col_masks[p.perm[j]];
  return out;
}

MmaTilePermutation two_per_group_permutation(int real_columns) {
  JIGSAW_CHECK_MSG(real_columns >= 0 && real_columns <= 8,
                   "two-per-group fallback requires <= 8 real columns, got "
                       << real_columns);
  MmaTilePermutation p;
  bool slot_taken[kMmaTile] = {};
  bool pre_used[kMmaTile] = {};
  // Real column j goes to slot (j/2)*4 + (j%2): two per aligned group.
  for (int j = 0; j < real_columns; ++j) {
    const int slot = (j / 2) * 4 + (j % 2);
    p.perm[static_cast<std::size_t>(slot)] = static_cast<std::uint8_t>(j);
    slot_taken[slot] = true;
    pre_used[j] = true;
  }
  // Fill the virtual slots so that each 8-column half covers all eight
  // bank residues (the padding rows are still read by the ldmatrix stages,
  // so their placement matters for conflicts).
  for (int half = 0; half < 2; ++half) {
    bool residue_used[8] = {};
    for (int s = 8 * half; s < 8 * (half + 1); ++s) {
      if (slot_taken[s]) {
        residue_used[p.perm[static_cast<std::size_t>(s)] % 8] = true;
      }
    }
    for (int s = 8 * half; s < 8 * (half + 1); ++s) {
      if (slot_taken[s]) continue;
      // Prefer an unused pre-position with an unused residue.
      int pick = -1;
      for (int pre = 0; pre < kMmaTile && pick < 0; ++pre) {
        if (!pre_used[pre] && !residue_used[pre % 8]) pick = pre;
      }
      for (int pre = 0; pre < kMmaTile && pick < 0; ++pre) {
        if (!pre_used[pre]) pick = pre;
      }
      p.perm[static_cast<std::size_t>(s)] = static_cast<std::uint8_t>(pick);
      slot_taken[s] = true;
      pre_used[pick] = true;
      residue_used[pick % 8] = true;
    }
  }
  bool identity = true;
  for (int j = 0; j < kMmaTile; ++j) identity &= (p.perm[j] == j);
  p.is_identity = identity;
  std::uint16_t g1 = 0, g2 = 0;
  for (int s = 0; s < 8; ++s) {
    g1 |= static_cast<std::uint16_t>(1u << p.perm[static_cast<std::size_t>(s)]);
    g2 |= static_cast<std::uint16_t>(
        1u << p.perm[static_cast<std::size_t>(s + 8)]);
  }
  p.bank_conflict_free =
      residue_complete(g1, kMmaTile) && residue_complete(g2, kMmaTile);
  return p;
}

MmaTileSearchResult reorder_mma_tile(std::span<const std::uint16_t> col_masks,
                                     int real_columns,
                                     const MmaTileSearchOptions& options,
                                     Rng& rng, MmaTileSearchStats* stats) {
  JIGSAW_CHECK(col_masks.size() == kMmaTile);
  JIGSAW_CHECK(real_columns >= 0 && real_columns <= kMmaTile);
  MmaTileSearchResult result;
  if (stats) ++stats->searches;

  // Fast path: the tile already satisfies 2:4 in its current order.
  if (tile_satisfies_two_four(col_masks)) {
    MmaTilePermutation p;
    for (int j = 0; j < kMmaTile; ++j) p.perm[j] = static_cast<std::uint8_t>(j);
    p.is_identity = true;
    p.bank_conflict_free = true;  // positions 0..7 span all residues
    result.permutation = p;
    if (stats) ++stats->identity_hits;
    return result;
  }

  // Fast infeasibility check: the four groups of a permuted tile can hold
  // at most 2 nonzeros per row each, so any row with more than 8 nonzeros
  // across the 16 columns can never comply, whatever the permutation.
  // Evict the most-populated column touching the overloaded row.
  for (int r = 0; r < kMmaTile; ++r) {
    int row_count = 0;
    for (int j = 0; j < kMmaTile; ++j) {
      row_count += (col_masks[static_cast<std::size_t>(j)] >> r) & 1;
    }
    if (row_count <= 8) continue;
    int victim = 0, victim_pop = -1;
    for (int j = 0; j < real_columns; ++j) {
      if (!((col_masks[static_cast<std::size_t>(j)] >> r) & 1)) continue;
      const int pop = std::popcount(col_masks[static_cast<std::size_t>(j)]);
      if (pop > victim_pop) {
        victim = j;
        victim_pop = pop;
      }
    }
    result.evict_position = victim;
    result.infeasible_row = true;
    if (stats) ++stats->infeasible_rows;
    return result;
  }

  // Lines 2-8 of Algorithm 1: the compatible four-column groups.
  SearchScratch& sc = scratch();
  sc.pos_bits.assign(static_cast<std::size_t>(kMmaTile) * kMaxQuadWords, 0);
  const std::uint32_t n =
      enumerate_quads(col_masks, sc.quads.data(), sc.pos_bits.data());
  const std::span<const MmaTileQuad> quads(sc.quads.data(), n);
  const std::uint64_t* const pos_bits = sc.pos_bits.data();
  const std::uint32_t words = (n + 63) / 64;
  if (stats) {
    ++stats->fresh_enumerations;
    stats->quads_enumerated += n;
  }
  // Every search that gets here enumerates (about 1,400 per 4096x1024,
  // 90%-sparse weight at BLOCK_TILE 64), so the histogram is looked up
  // once: a lookup by name takes the registry mutex the panel workers
  // share.
  static obs::Histogram& quads_per_enumeration =
      obs::histogram("reorder.quads_per_enumeration");
  quads_per_enumeration.observe(static_cast<double>(n));
  result.compatible_quads = n;

  // freq[p]: the compatible quads that contain position p.
  std::array<std::uint32_t, kMmaTile> freq{};
  for (int p = 0; p < kMmaTile; ++p) {
    const std::uint64_t* const row = pos_bits + p * kMaxQuadWords;
    for (std::uint32_t w = 0; w < words; ++w) {
      freq[static_cast<std::size_t>(p)] +=
          static_cast<std::uint32_t>(std::popcount(row[w]));
    }
  }

  const auto least_frequent_real = [&]() {
    int best = 0;
    for (int p = 1; p < real_columns; ++p) {
      if (freq[p] < freq[best]) best = p;
    }
    return best;
  };

  // A position contained in no compatible group can never be covered.
  for (int p = 0; p < kMmaTile; ++p) {
    if (freq[p] == 0) {
      result.evict_position = least_frequent_real();
      return result;
    }
  }

  std::optional<MmaTilePermutation> fallback;

  // Randomized greedy exact-cover attempts (cheap; succeeds with high
  // probability whenever compatible groups are plentiful).
  for (int attempt = 0; attempt < kGreedyAttempts; ++attempt) {
    if (stats) ++stats->greedy_attempts;
    if (auto cover = greedy_cover(quads, col_masks, pos_bits, words, rng)) {
      MmaTilePermutation p = best_pairing(*cover, real_columns);
      if (p.bank_conflict_free || !options.bank_conflict_aware) {
        result.permutation = p;
        return result;
      }
      if (!fallback) fallback = p;
    }
  }

  // What the pair scan returns when it ends without a conflict-free hit.
  const auto scan_exhausted = [&]() {
    if (fallback) {
      result.permutation = *fallback;
    } else {
      result.evict_position = least_frequent_real();
    }
    return result;
  };

  // The pair scan below cannot complete a cover before the first pair
  // whose outer quad lacks position 0. A hit at pair (i, j) needs the
  // complement of octet(i, j) to have been formed by an earlier pair, and
  // exactly one of an octet and its complement holds position 0. In
  // enumeration order (i outermost) the quads holding position 0 are the
  // first n0 = freq[0], so an octet holding it forms only at some i < n0
  // and one lacking it only at i >= n0: neither can hit while i < n0.
  // The first pair with i = n0 has ordinal n0(n-1) - n0(n0-1)/2 + 1 in
  // the scan's count. When that lies past the budget, the scan would run
  // to the budget without a hit (budget tightening needs one), so return
  // what the exhausted scan returns. The greedy loop above keeps its rng
  // draws, which later tiles of the panel share; the scan draws none.
  // The lemma holds only while `quads` stay in enumeration order.
  const std::uint64_t n0 = freq[0];
  if (n0 * (n - 1) - n0 * (n0 - 1) / 2 + 1 > kMaxPairIterations) {
    if (stats) stats->pair_iterations += kMaxPairIterations;
    return scan_exhausted();
  }

  // Lines 9-17: bidirectional search. Disjoint quad pairs form
  // eight-column groups; a group whose complement was already formed
  // yields a full cover. The octet table replaces the original hash map
  // with direct indexing (keep-first insertion semantics preserved), which
  // is where the bulk of the planning time used to go.
  sc.octets.begin_search();
  const std::uint64_t vtag = sc.octets.tag();
  std::uint64_t* const slots = sc.octets.slots.data();
  std::uint64_t* const seen = sc.octets.seen.data();

  // Roughly three of four pairs overlap and contribute nothing but an
  // iteration count; the position bitsets let the scan enumerate only the
  // disjoint partners of quad i and account for the skipped pairs
  // arithmetically. A pair's ordinal in the original (i, j) scan is
  // base_i + (j - i), so the budget checks (and the mid-scan tightening)
  // cut off at exactly the same pair as the plain doubly-nested loop.
  sc.conflict.resize(words);
  std::uint64_t* const conflict = sc.conflict.data();

  std::uint64_t iterations = 0;
  std::uint64_t budget = kMaxPairIterations;
  for (std::uint32_t i = 0; i < n && iterations < budget; ++i) {
    const std::uint16_t si = quads[i].set;
    const std::uint64_t base = iterations;
    const std::uint64_t rem = n - 1 - i;
    const std::uint64_t* const r0 = &pos_bits[quads[i].pos[0] * kMaxQuadWords];
    const std::uint64_t* const r1 = &pos_bits[quads[i].pos[1] * kMaxQuadWords];
    const std::uint64_t* const r2 = &pos_bits[quads[i].pos[2] * kMaxQuadWords];
    const std::uint64_t* const r3 = &pos_bits[quads[i].pos[3] * kMaxQuadWords];
    for (std::uint32_t w = 0; w < words; ++w) {
      conflict[w] = r0[w] | r1[w] | r2[w] | r3[w];
    }
    bool stop = false;
    const std::uint32_t w_first = (i + 1) / 64;
    for (std::uint32_t w = w_first; w < words && !stop; ++w) {
      std::uint64_t avail = ~conflict[w];
      if (w == w_first && (i + 1) % 64 != 0) avail &= ~0ull << ((i + 1) % 64);
      if (w == words - 1 && n % 64 != 0) avail &= (1ull << (n % 64)) - 1;
      while (avail) {
        const std::uint32_t j =
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(avail));
        avail &= avail - 1;
        const std::uint64_t ord = base + (j - i);
        if (ord > budget) {
          stop = true;
          break;
        }
        const std::uint16_t octet =
            static_cast<std::uint16_t>(si | quads[j].set);
        const std::uint16_t complement =
            static_cast<std::uint16_t>(octet ^ kFullSet);
        if ((seen[complement >> 6] >> (complement & 63)) & 1) {
          const std::uint64_t hit = slots[complement];
          const std::uint32_t pi =
              static_cast<std::uint32_t>((hit >> 24) & 0xffffffu);
          const std::uint32_t pj = static_cast<std::uint32_t>(hit & 0xffffffu);
          QuadCover cover{{quads[pi], quads[pj], quads[i], quads[j]}};
          MmaTilePermutation p = best_pairing(cover, real_columns);
          if (p.bank_conflict_free || !options.bank_conflict_aware) {
            if (stats) stats->pair_iterations += ord;
            result.permutation = p;
            return result;
          }
          if (!fallback) {
            fallback = p;
            // Keep looking for a conflict-free scheme, but with a tighter
            // budget now that correctness is already assured.
            budget = std::min(budget, ord + kConflictFreeSearchBudget);
          }
        }
        std::uint64_t& sw = seen[octet >> 6];
        if (!((sw >> (octet & 63)) & 1)) {
          sw |= 1ull << (octet & 63);
          slots[octet] = vtag | (static_cast<std::uint64_t>(i) << 24) | j;
        }
      }
    }
    iterations = std::min(base + rem, budget);
  }
  if (stats) stats->pair_iterations += iterations;
  return scan_exhausted();
}

}  // namespace jigsaw::core
