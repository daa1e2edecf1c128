// Unit and property tests for input partitioning and join signatures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "data/generator.h"
#include "exec/engine.h"
#include "partition/partitioner.h"

namespace caqe {
namespace {

Table SmallTable() {
  Table t("T", 2, 1);
  t.AppendRow({1.0, 1.0}, {1});
  t.AppendRow({2.0, 9.0}, {2});
  t.AppendRow({9.0, 2.0}, {1});
  t.AppendRow({9.5, 9.5}, {3});
  return t;
}

TEST(PartitionTest, RejectsBadInputs) {
  const Table t = SmallTable();
  EXPECT_FALSE(PartitionTable(t, 0).ok());
  Table empty("E", 2, 0);
  EXPECT_FALSE(PartitionTable(empty, 2).ok());
}

TEST(PartitionTest, SingleCellHoldsEverything) {
  const Table t = SmallTable();
  const PartitionedTable p = PartitionTable(t, 1).value();
  ASSERT_EQ(p.num_cells(), 1);
  EXPECT_EQ(p.cell(0).rows.size(), 4u);
  EXPECT_DOUBLE_EQ(p.cell(0).lower[0], 1.0);
  EXPECT_DOUBLE_EQ(p.cell(0).upper[0], 9.5);
}

TEST(PartitionTest, CellsPartitionAllRows) {
  GeneratorConfig cfg;
  cfg.num_rows = 1000;
  cfg.num_attrs = 3;
  cfg.join_selectivities = {0.1};
  const Table t = GenerateTable("T", cfg).value();
  for (int cpd : {1, 2, 3, 5}) {
    const PartitionedTable p = PartitionTable(t, cpd).value();
    EXPECT_EQ(p.TotalRows(), t.num_rows());
    std::set<int64_t> seen;
    for (const LeafCell& cell : p.cells()) {
      EXPECT_FALSE(cell.rows.empty());  // Empty cells are dropped.
      for (int64_t row : cell.rows) {
        EXPECT_TRUE(seen.insert(row).second) << "row in two cells";
      }
    }
    EXPECT_EQ(seen.size(), static_cast<size_t>(t.num_rows()));
  }
}

TEST(PartitionTest, BoundsAreTightOverMembers) {
  GeneratorConfig cfg;
  cfg.num_rows = 500;
  cfg.num_attrs = 2;
  const Table t = GenerateTable("T", cfg).value();
  const PartitionedTable p = PartitionTable(t, 4).value();
  for (const LeafCell& cell : p.cells()) {
    for (int k = 0; k < t.num_attrs(); ++k) {
      double lo = 1e300;
      double hi = -1e300;
      for (int64_t row : cell.rows) {
        lo = std::min(lo, t.attr(row, k));
        hi = std::max(hi, t.attr(row, k));
      }
      EXPECT_DOUBLE_EQ(cell.lower[k], lo);
      EXPECT_DOUBLE_EQ(cell.upper[k], hi);
    }
  }
}

TEST(PartitionTest, SignaturesHoldExactlyMemberKeys) {
  GeneratorConfig cfg;
  cfg.num_rows = 400;
  cfg.num_attrs = 2;
  cfg.join_selectivities = {0.1, 0.05};
  const Table t = GenerateTable("T", cfg).value();
  const PartitionedTable p = PartitionTable(t, 3).value();
  for (const LeafCell& cell : p.cells()) {
    ASSERT_EQ(cell.signatures.size(), 2u);
    for (int j = 0; j < 2; ++j) {
      std::set<int32_t> expected;
      for (int64_t row : cell.rows) expected.insert(t.key(row, j));
      const std::set<int32_t> actual(cell.signatures[j].begin(),
                                     cell.signatures[j].end());
      EXPECT_EQ(actual, expected);
      EXPECT_TRUE(std::is_sorted(cell.signatures[j].begin(),
                                 cell.signatures[j].end()));
      // Counts align and sum to the member count.
      ASSERT_EQ(cell.signature_counts[j].size(), cell.signatures[j].size());
      int64_t total = 0;
      for (int32_t c : cell.signature_counts[j]) total += c;
      EXPECT_EQ(total, static_cast<int64_t>(cell.rows.size()));
    }
  }
}

TEST(SignatureTest, ExactJoinSizeMatchesBruteForce) {
  // keys/counts: a = {1:2, 3:1, 7:4}, b = {3:5, 7:2, 9:1}.
  const std::vector<int32_t> ka = {1, 3, 7};
  const std::vector<int32_t> ca = {2, 1, 4};
  const std::vector<int32_t> kb = {3, 7, 9};
  const std::vector<int32_t> cb = {5, 2, 1};
  EXPECT_EQ(ExactJoinSize(ka, ca, kb, cb), 1 * 5 + 4 * 2);
  EXPECT_EQ(ExactJoinSize(ka, ca, {}, {}), 0);
}

TEST(SignatureTest, ExactJoinSizeAgainstNestedLoop) {
  GeneratorConfig cfg;
  cfg.num_rows = 200;
  cfg.num_attrs = 2;
  cfg.join_selectivities = {0.05};
  cfg.seed = 3;
  const Table r = GenerateTable("R", cfg).value();
  cfg.seed = 4;
  const Table t = GenerateTable("T", cfg).value();
  const PartitionedTable pr = PartitionTable(r, 2).value();
  const PartitionedTable pt = PartitionTable(t, 2).value();
  for (const LeafCell& cr : pr.cells()) {
    for (const LeafCell& ct : pt.cells()) {
      int64_t brute = 0;
      for (int64_t i : cr.rows) {
        for (int64_t j : ct.rows) {
          if (r.key(i, 0) == t.key(j, 0)) ++brute;
        }
      }
      EXPECT_EQ(ExactJoinSize(cr.signatures[0], cr.signature_counts[0],
                              ct.signatures[0], ct.signature_counts[0]),
                brute);
    }
  }
}

TEST(SliceVectorTest, DoublesRoundRobin) {
  EXPECT_EQ(ChooseSliceVector(4, 1), (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(ChooseSliceVector(4, 2), (std::vector<int>{2, 1, 1, 1}));
  EXPECT_EQ(ChooseSliceVector(4, 8), (std::vector<int>{2, 2, 2, 1}));
  EXPECT_EQ(ChooseSliceVector(4, 16), (std::vector<int>{2, 2, 2, 2}));
  EXPECT_EQ(ChooseSliceVector(4, 64), (std::vector<int>{4, 4, 2, 2}));
  EXPECT_EQ(ChooseSliceVector(2, 9), (std::vector<int>{4, 2}));
  // Cell count never exceeds the target.
  for (int d : {1, 2, 3, 5}) {
    for (int64_t target : {1, 3, 7, 20, 100, 1000}) {
      int64_t cells = 1;
      for (int s : ChooseSliceVector(d, target)) cells *= s;
      EXPECT_LE(cells, target);
      EXPECT_GT(cells * 2, target / 2);
    }
  }
}

TEST(PartitionTest, SliceVectorPartitioningCoversRows) {
  GeneratorConfig cfg;
  cfg.num_rows = 500;
  cfg.num_attrs = 3;
  cfg.join_selectivities = {0.1};
  const Table t = GenerateTable("T", cfg).value();
  const PartitionedTable p =
      PartitionTableSlices(t, {3, 2, 1}).value();
  EXPECT_EQ(p.TotalRows(), t.num_rows());
  EXPECT_LE(p.num_cells(), 6);
  EXPECT_FALSE(PartitionTableSlices(t, {3, 2}).ok());      // Wrong arity.
  EXPECT_FALSE(PartitionTableSlices(t, {3, 0, 1}).ok());   // Zero slices.
}

TEST(QuadTreeTest, RejectsBadInputs) {
  const Table t = SmallTable();
  EXPECT_FALSE(PartitionTableQuadTreeTarget(t, 0).ok());
  EXPECT_FALSE(PartitionTableQuadTreeTarget(t, 10, -1).ok());
  Table empty("E", 2, 0);
  EXPECT_FALSE(PartitionTableQuadTreeTarget(empty, 10).ok());
  Table wide("W", 21, 0);
  wide.AppendRow(std::vector<double>(21, 0.5), {});
  EXPECT_FALSE(PartitionTableQuadTreeTarget(wide, 10).ok());
}

TEST(QuadTreeTest, PartitionsAllRowsDisjointly) {
  GeneratorConfig cfg;
  cfg.num_rows = 1200;
  cfg.num_attrs = 3;
  cfg.join_selectivities = {0.1};
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kCorrelated,
        Distribution::kAntiCorrelated}) {
    cfg.distribution = dist;
    const Table t = GenerateTable("T", cfg).value();
    const PartitionedTable p = PartitionTableQuadTreeTarget(t, 24).value();
    EXPECT_EQ(p.TotalRows(), t.num_rows());
    // Distinct random points split until the budget is met.
    EXPECT_GE(p.num_cells(), 24);
    std::set<int64_t> seen;
    for (const LeafCell& cell : p.cells()) {
      EXPECT_FALSE(cell.rows.empty());
      for (int64_t row : cell.rows) {
        EXPECT_TRUE(seen.insert(row).second);
      }
      // Tight bounds.
      for (int k = 0; k < t.num_attrs(); ++k) {
        for (int64_t row : cell.rows) {
          EXPECT_GE(t.attr(row, k), cell.lower[k]);
          EXPECT_LE(t.attr(row, k), cell.upper[k]);
        }
      }
    }
    EXPECT_EQ(seen.size(), static_cast<size_t>(t.num_rows()));
  }
}

TEST(QuadTreeTest, BalancesSkewBetterThanGrid) {
  // Correlated data piles up along the diagonal; the quad tree adapts
  // while the grid leaves most populated cells huge. Both get 16 cells.
  GeneratorConfig cfg;
  cfg.num_rows = 4000;
  cfg.num_attrs = 2;
  cfg.distribution = Distribution::kCorrelated;
  const Table t = GenerateTable("T", cfg).value();
  const PartitionedTable grid = PartitionTable(t, 4).value();
  const PartitionedTable quad = PartitionTableQuadTreeTarget(t, 16).value();
  size_t grid_max = 0;
  for (const LeafCell& cell : grid.cells()) {
    grid_max = std::max(grid_max, cell.rows.size());
  }
  size_t quad_max = 0;
  for (const LeafCell& cell : quad.cells()) {
    quad_max = std::max(quad_max, cell.rows.size());
  }
  EXPECT_LE(grid.num_cells(), 16);
  EXPECT_GT(grid_max, quad_max);
}

TEST(QuadTreeTest, PoolBuildMatchesSerialBuild) {
  // The parallel quad-tree build must be a pure work-split: cell order,
  // bounds, and row lists stay byte-identical to the serial build
  // regardless of pool size.
  GeneratorConfig cfg;
  cfg.num_rows = 3000;
  cfg.num_attrs = 3;
  cfg.join_selectivities = {0.05};
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kCorrelated,
        Distribution::kAntiCorrelated}) {
    cfg.distribution = dist;
    const Table t = GenerateTable("T", cfg).value();
    for (const int64_t target : {40, 200}) {
      const PartitionedTable serial =
          PartitionTableQuadTreeTarget(t, target).value();
      for (const int threads : {2, 7}) {
        ThreadPool pool(threads);
        const PartitionedTable pooled =
            PartitionTableQuadTreeTarget(t, target, /*max_depth=*/16, &pool)
                .value();
        ASSERT_EQ(pooled.num_cells(), serial.num_cells());
        for (int c = 0; c < serial.num_cells(); ++c) {
          EXPECT_EQ(pooled.cell(c).rows, serial.cell(c).rows) << "cell " << c;
          EXPECT_EQ(pooled.cell(c).lower, serial.cell(c).lower)
              << "cell " << c;
          EXPECT_EQ(pooled.cell(c).upper, serial.cell(c).upper)
              << "cell " << c;
          EXPECT_EQ(pooled.cell(c).signatures, serial.cell(c).signatures)
              << "cell " << c;
          EXPECT_EQ(pooled.cell(c).signature_counts,
                    serial.cell(c).signature_counts)
              << "cell " << c;
        }
      }
    }
  }
}

TEST(QuadTreeTest, IdenticalPointsTerminate) {
  Table t("T", 2, 1);
  for (int i = 0; i < 100; ++i) t.AppendRow({5.0, 5.0}, {1});
  const PartitionedTable p = PartitionTableQuadTreeTarget(t, 10).value();
  ASSERT_EQ(p.num_cells(), 1);
  EXPECT_EQ(p.cell(0).rows.size(), 100u);
}

// ---- Differential tests: the linear-time builders against the map-based
// grid builder and sort-based leaf finalizer they replaced, kept here as
// oracles. Cells must match field for field and in order: cell ids feed
// region ids and scheduler tie-breaks, so a reordering changes reports. ----

constexpr double kInf = std::numeric_limits<double>::infinity();

// Oracle leaf finalizer: sorts the rows, folds tight bounds over them,
// builds each signature with std::sort plus a run-length scan, and each
// key group by scanning the members for the entry's key.
LeafCell OracleLeaf(const Table& table, std::vector<int64_t> rows) {
  const int d = table.num_attrs();
  LeafCell cell;
  cell.rows = std::move(rows);
  std::sort(cell.rows.begin(), cell.rows.end());
  cell.lower.assign(d, kInf);
  cell.upper.assign(d, -kInf);
  for (int64_t row : cell.rows) {
    for (int k = 0; k < d; ++k) {
      const double v = table.attr(row, k);
      cell.lower[k] = std::min(cell.lower[k], v);
      cell.upper[k] = std::max(cell.upper[k], v);
    }
  }
  cell.signatures.resize(table.num_keys());
  cell.signature_counts.resize(table.num_keys());
  for (int j = 0; j < table.num_keys(); ++j) {
    std::vector<int32_t> all;
    for (int64_t row : cell.rows) all.push_back(table.key(row, j));
    std::sort(all.begin(), all.end());
    for (size_t i = 0; i < all.size();) {
      size_t end = i;
      while (end < all.size() && all[end] == all[i]) ++end;
      cell.signatures[j].push_back(all[i]);
      cell.signature_counts[j].push_back(static_cast<int32_t>(end - i));
      i = end;
    }
  }
  cell.key_groups.resize(table.num_keys());
  cell.key_group_starts.resize(table.num_keys());
  for (int j = 0; j < table.num_keys(); ++j) {
    for (int32_t key : cell.signatures[j]) {
      cell.key_group_starts[j].push_back(
          static_cast<int32_t>(cell.key_groups[j].size()));
      for (size_t i = 0; i < cell.rows.size(); ++i) {
        if (table.key(cell.rows[i], j) == key) {
          cell.key_groups[j].push_back(static_cast<int32_t>(i));
        }
      }
    }
    cell.key_group_starts[j].push_back(
        static_cast<int32_t>(cell.key_groups[j].size()));
  }
  return cell;
}

// Oracle grid builder: buckets every row through a std::unordered_map keyed
// by its flattened grid id and emits cells in the map's iteration order.
std::vector<LeafCell> OracleGrid(const Table& table,
                                 const std::vector<int>& slices) {
  const int d = table.num_attrs();
  std::vector<double> lo(d, kInf);
  std::vector<double> hi(d, -kInf);
  for (int64_t row = 0; row < table.num_rows(); ++row) {
    for (int k = 0; k < d; ++k) {
      lo[k] = std::min(lo[k], table.attr(row, k));
      hi[k] = std::max(hi[k], table.attr(row, k));
    }
  }
  std::unordered_map<int64_t, std::vector<int64_t>> buckets;
  for (int64_t row = 0; row < table.num_rows(); ++row) {
    int64_t id = 0;
    for (int k = 0; k < d; ++k) {
      const double span = hi[k] - lo[k];
      int slot = 0;
      if (span > 0.0 && slices[k] > 1) {
        slot = static_cast<int>((table.attr(row, k) - lo[k]) / span *
                                slices[k]);
        slot = std::min(slot, slices[k] - 1);
      }
      id = id * slices[k] + slot;
    }
    buckets[id].push_back(row);
  }
  std::vector<LeafCell> cells;
  for (auto& [id, rows] : buckets) {
    cells.push_back(OracleLeaf(table, std::move(rows)));
  }
  return cells;
}

// Bit patterns, so -0.0 and 0.0 bounds count as different.
std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  if (!values.empty()) {
    std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  }
  return bits;
}

void ExpectSameCell(const LeafCell& expected, const LeafCell& actual,
                    const std::string& label) {
  EXPECT_EQ(actual.rows, expected.rows) << label;
  EXPECT_EQ(Bits(actual.lower), Bits(expected.lower)) << label;
  EXPECT_EQ(Bits(actual.upper), Bits(expected.upper)) << label;
  EXPECT_EQ(actual.signatures, expected.signatures) << label;
  EXPECT_EQ(actual.signature_counts, expected.signature_counts) << label;
  EXPECT_EQ(actual.key_groups, expected.key_groups) << label;
  EXPECT_EQ(actual.key_group_starts, expected.key_group_starts) << label;
}

// Counts cells below and at-or-above the 128-member cutoff where the
// partitioner's key sort switches from std::sort to the radix passes.
void CountSortPaths(const PartitionedTable& p, int64_t* short_cells,
                    int64_t* radix_cells) {
  for (const LeafCell& cell : p.cells()) {
    ++*(cell.rows.size() < 128 ? short_cells : radix_cells);
  }
}

void ExpectSameCells(const std::vector<LeafCell>& expected,
                     const PartitionedTable& actual,
                     const std::string& label) {
  ASSERT_EQ(static_cast<size_t>(actual.num_cells()), expected.size())
      << label;
  for (size_t c = 0; c < expected.size(); ++c) {
    ExpectSameCell(expected[c], actual.cell(static_cast<int>(c)),
                   label + " cell " + std::to_string(c));
  }
}

// Mostly values from a small pool holding negatives and both int32
// extremes (duplicate-heavy); one draw in four is any int32.
int32_t ExtremeKey(std::mt19937_64& rng) {
  static constexpr int32_t kPool[] = {
      std::numeric_limits<int32_t>::min(),
      std::numeric_limits<int32_t>::min() + 1,
      -1000000, -7, -1, 0, 1, 7, 1000000,
      std::numeric_limits<int32_t>::max() - 1,
      std::numeric_limits<int32_t>::max()};
  const uint64_t draw = rng();
  if (draw % 4 == 0) {
    return static_cast<int32_t>(static_cast<uint32_t>(draw >> 32));
  }
  return kPool[(draw >> 8) % std::size(kPool)];
}

// Generator attributes with two key columns: the generator's own keys
// (selectivity 0.05, duplicate-heavy) and ExtremeKey draws. Attribute
// `flat_attr` (when >= 0) is constant, so its span is zero.
Table DifferentialTable(int dims, Distribution dist, int64_t rows,
                        uint64_t seed, int flat_attr = -1) {
  GeneratorConfig cfg;
  cfg.num_rows = rows;
  cfg.num_attrs = dims;
  cfg.distribution = dist;
  cfg.join_selectivities = {0.05};
  cfg.seed = seed;
  const Table base = GenerateTable("T", cfg).value();
  std::mt19937_64 rng(seed);
  Table table("T", dims, 2);
  std::vector<double> attrs(dims);
  for (int64_t row = 0; row < rows; ++row) {
    for (int k = 0; k < dims; ++k) {
      attrs[k] = k == flat_attr ? 5.0 : base.attr(row, k);
    }
    table.AppendRow(attrs, {base.key(row, 0), ExtremeKey(rng)});
  }
  return table;
}

// Slice vectors the differential sweeps: ChooseSliceVector at a few cell
// targets plus uniform grids.
std::vector<std::vector<int>> SweepSlices(int dims) {
  std::vector<std::vector<int>> out;
  for (int64_t target : {1, 3, 23, 100}) {
    out.push_back(ChooseSliceVector(dims, target));
  }
  for (int cpd : {1, 2, 3, 7}) out.push_back(std::vector<int>(dims, cpd));
  return out;
}

std::string SlicesLabel(const std::vector<int>& slices) {
  std::string label = "slices";
  for (int s : slices) label += " " + std::to_string(s);
  return label;
}

TEST(PartitionDifferentialTest, GridMatchesMapBasedBuilder) {
  uint64_t seed = 100;
  int64_t short_cells = 0;
  int64_t radix_cells = 0;
  for (int dims = 1; dims <= 6; ++dims) {
    for (Distribution dist :
         {Distribution::kIndependent, Distribution::kCorrelated,
          Distribution::kAntiCorrelated}) {
      const Table t = DifferentialTable(dims, dist, 1500, ++seed);
      for (const std::vector<int>& slices : SweepSlices(dims)) {
        const std::string label = "dims " + std::to_string(dims) + " dist " +
                                  std::to_string(static_cast<int>(dist)) +
                                  " " + SlicesLabel(slices);
        const PartitionedTable p = PartitionTableSlices(t, slices).value();
        ExpectSameCells(OracleGrid(t, slices), p, label);
        CountSortPaths(p, &short_cells, &radix_cells);
      }
    }
  }
  EXPECT_GT(short_cells, 0);
  EXPECT_GT(radix_cells, 0);
}

TEST(PartitionDifferentialTest, GridMatchesOnZeroSpanAndOneRow) {
  for (int dims = 1; dims <= 4; ++dims) {
    const Table flat =
        DifferentialTable(dims, Distribution::kAntiCorrelated, 900,
                          200 + dims, /*flat_attr=*/dims - 1);
    const Table one_row =
        DifferentialTable(dims, Distribution::kIndependent, 1, 300 + dims);
    for (const std::vector<int>& slices : SweepSlices(dims)) {
      ExpectSameCells(OracleGrid(flat, slices),
                      PartitionTableSlices(flat, slices).value(),
                      "zero span " + SlicesLabel(slices));
      ExpectSameCells(OracleGrid(one_row, slices),
                      PartitionTableSlices(one_row, slices).value(),
                      "one row " + SlicesLabel(slices));
    }
  }
}

// The quad-tree's splits are the oracle's by construction; every leaf must
// come out of the shared finalizer exactly as the sort-based one builds it.
TEST(PartitionDifferentialTest, QuadTreeLeavesMatchSortBasedFinalizer) {
  uint64_t seed = 400;
  int64_t short_cells = 0;
  int64_t radix_cells = 0;
  for (int dims = 1; dims <= 6; ++dims) {
    for (Distribution dist :
         {Distribution::kIndependent, Distribution::kCorrelated,
          Distribution::kAntiCorrelated}) {
      const Table t = DifferentialTable(dims, dist, 1500, ++seed);
      for (int64_t target : {1, 3, 23, 100}) {
        const PartitionedTable p =
            PartitionTableQuadTreeTarget(t, target).value();
        EXPECT_EQ(p.TotalRows(), t.num_rows());
        for (int c = 0; c < p.num_cells(); ++c) {
          ExpectSameCell(OracleLeaf(t, p.cell(c).rows), p.cell(c),
                         "dims " + std::to_string(dims) + " target " +
                             std::to_string(target) + " cell " +
                             std::to_string(c));
        }
        CountSortPaths(p, &short_cells, &radix_cells);
      }
    }
  }
  EXPECT_GT(short_cells, 0);
  EXPECT_GT(radix_cells, 0);
}

TEST(SignatureTest, AppendKeyRunsMatchesSortAndCount) {
  std::mt19937_64 rng(7);
  for (int64_t n : {0, 1, 2, 127, 128, 129, 255, 256, 1000, 5000}) {
    for (int domain : {0, 3, 1 << 20}) {
      std::vector<int32_t> keys(static_cast<size_t>(n));
      for (int32_t& key : keys) {
        key = domain == 0 ? ExtremeKey(rng)
                          : static_cast<int32_t>(rng() % domain) - domain / 2;
      }
      std::vector<int32_t> sorted = keys;
      std::sort(sorted.begin(), sorted.end());
      // Runs append after whatever the outputs already hold.
      std::vector<int32_t> values = {42};
      std::vector<int32_t> counts = {9};
      std::vector<int32_t> expected_values = values;
      std::vector<int32_t> expected_counts = counts;
      for (size_t i = 0; i < sorted.size();) {
        size_t end = i;
        while (end < sorted.size() && sorted[end] == sorted[i]) ++end;
        expected_values.push_back(sorted[i]);
        expected_counts.push_back(static_cast<int32_t>(end - i));
        i = end;
      }
      std::vector<int32_t> scratch(keys.size());
      AppendKeyRuns(keys.data(), n, scratch.data(), &values, &counts);
      EXPECT_EQ(keys, sorted) << "n " << n << " domain " << domain;
      EXPECT_EQ(values, expected_values) << "n " << n << " domain " << domain;
      EXPECT_EQ(counts, expected_counts) << "n " << n << " domain " << domain;
    }
  }
}

// The merge loop ExactJoinSize ran before it went branchless: one op per
// iteration.
int64_t OracleExactJoinSize(const std::vector<int32_t>& keys_a,
                            const std::vector<int32_t>& counts_a,
                            const std::vector<int32_t>& keys_b,
                            const std::vector<int32_t>& counts_b,
                            int64_t* ops) {
  int64_t total = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < keys_a.size() && j < keys_b.size()) {
    ++*ops;
    if (keys_a[i] == keys_b[j]) {
      total += static_cast<int64_t>(counts_a[i]) * counts_b[j];
      ++i;
      ++j;
    } else if (keys_a[i] < keys_b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

struct KeyRuns {
  std::vector<int32_t> keys;
  std::vector<int32_t> counts;
};

// `size` distinct sorted keys drawn by `draw`, each with a count in
// [1, max_count].
template <typename Draw>
KeyRuns RandomRuns(std::mt19937_64& rng, int size, int32_t max_count,
                   Draw draw) {
  std::set<int32_t> distinct;
  for (int i = 0; i < 4 * size && static_cast<int>(distinct.size()) < size;
       ++i) {
    distinct.insert(draw());
  }
  KeyRuns runs;
  runs.keys.assign(distinct.begin(), distinct.end());
  for (size_t i = 0; i < runs.keys.size(); ++i) {
    runs.counts.push_back(1 + static_cast<int32_t>(rng() % max_count));
  }
  return runs;
}

// Every (entry in a, entry in b) pair with equal keys, by nested loop.
std::vector<std::pair<int32_t, int32_t>> OracleKeyMatches(const KeyRuns& a,
                                                          const KeyRuns& b) {
  std::vector<std::pair<int32_t, int32_t>> matches;
  for (size_t i = 0; i < a.keys.size(); ++i) {
    for (size_t j = 0; j < b.keys.size(); ++j) {
      if (a.keys[i] == b.keys[j]) {
        matches.emplace_back(static_cast<int32_t>(i), static_cast<int32_t>(j));
      }
    }
  }
  return matches;
}

TEST(SignatureTest, ExactJoinSizeMatchesMergeLoopOnRandomInputs) {
  std::mt19937_64 rng(11);
  const auto check = [](const KeyRuns& a, const KeyRuns& b,
                        const std::string& label) {
    int64_t ops = 5;
    int64_t oracle_ops = 5;
    const int64_t size =
        ExactJoinSize(a.keys, a.counts, b.keys, b.counts, &ops);
    EXPECT_EQ(size, OracleExactJoinSize(a.keys, a.counts, b.keys, b.counts,
                                        &oracle_ops))
        << label;
    EXPECT_EQ(ops, oracle_ops) << label;
    EXPECT_EQ(ExactJoinSize(a.keys, a.counts, b.keys, b.counts),
              ExactJoinSize(b.keys, b.counts, a.keys, a.counts))
        << label;
    // MatchSignatures: the same size and ops, plus every shared key's
    // entry pair, written into exactly min(|a|, |b|) entries of room.
    std::vector<KeyMatch> room(std::min(a.keys.size(), b.keys.size()));
    int64_t found = -1;
    int64_t match_ops = 5;
    EXPECT_EQ(MatchSignatures(a.keys, a.counts, b.keys, b.counts, room.data(),
                              &found, &match_ops),
              size)
        << label;
    EXPECT_EQ(match_ops, ops) << label;
    std::vector<std::pair<int32_t, int32_t>> matches;
    for (int64_t m = 0; m < found; ++m) {
      matches.emplace_back(room[static_cast<size_t>(m)].a,
                           room[static_cast<size_t>(m)].b);
    }
    EXPECT_EQ(matches, OracleKeyMatches(a, b)) << label;
  };
  for (int round = 0; round < 200; ++round) {
    const int size_a = static_cast<int>(rng() % 300);
    const int size_b = static_cast<int>(rng() % 300);
    const auto any = [&rng] { return ExtremeKey(rng); };
    const auto even = [&rng] {
      return static_cast<int32_t>(2 * (rng() % 100000)) - 100000;
    };
    const auto odd = [&rng] {
      return static_cast<int32_t>(2 * (rng() % 100000)) - 99999;
    };
    const auto narrow = [&rng] {
      return static_cast<int32_t>(rng() % 11) - 5;
    };
    const std::string label = "round " + std::to_string(round);
    // Empty against anything.
    const KeyRuns general = RandomRuns(rng, size_a, 1000, any);
    check(KeyRuns{}, general, label + " empty");
    check(general, KeyRuns{}, label + " empty");
    // Disjoint: no shared key, every step a mismatch.
    check(RandomRuns(rng, size_a, 1000, even),
          RandomRuns(rng, size_b, 1000, odd), label + " disjoint");
    // Nested: b is a subset of a with its own counts.
    KeyRuns nested;
    for (size_t i = 0; i < general.keys.size(); ++i) {
      if (rng() % 3 != 0) continue;
      nested.keys.push_back(general.keys[i]);
      nested.counts.push_back(1 + static_cast<int32_t>(rng() % 50));
    }
    check(general, nested, label + " nested");
    // Duplicate-heavy: a tiny domain with huge counts (products past int32).
    check(RandomRuns(rng, size_a, 1 << 20, narrow),
          RandomRuns(rng, size_b, 1 << 20, narrow), label + " duplicates");
    // General overlap including both int32 extremes.
    check(general, RandomRuns(rng, size_b, 1000, any), label + " general");
  }
}

TEST(SignatureTest, ExactTotalJoinSizeMatchesNestedLoopOnExtremeKeys) {
  std::mt19937_64 rng(13);
  for (const auto& [rows_r, rows_t] :
       std::vector<std::pair<int, int>>{{1, 1}, {3, 40}, {300, 1}, {700, 500},
                                        {1200, 900}}) {
    Table r("R", 1, 1);
    Table t("T", 1, 1);
    for (int i = 0; i < rows_r; ++i) r.AppendRow({1.0}, {ExtremeKey(rng)});
    for (int i = 0; i < rows_t; ++i) t.AppendRow({1.0}, {ExtremeKey(rng)});
    int64_t brute = 0;
    for (int64_t i = 0; i < r.num_rows(); ++i) {
      for (int64_t j = 0; j < t.num_rows(); ++j) {
        if (r.key(i, 0) == t.key(j, 0)) ++brute;
      }
    }
    EXPECT_EQ(ExactTotalJoinSize(r, t, 0), brute)
        << rows_r << " x " << rows_t;
    EXPECT_EQ(ExactTotalJoinSize(t, r, 0), brute)
        << rows_t << " x " << rows_r;
  }
}

}  // namespace
}  // namespace caqe
