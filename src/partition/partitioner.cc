#include "partition/partitioner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/flat_map.h"
#include "common/thread_pool.h"

namespace caqe {

namespace {

// The radix sorts' geometry: three digits of 11, 11 and 10 bits cover a
// 32-bit key; each digit's histogram stays L1-resident.
constexpr int kRadixBits = 11;
constexpr int kRadixPasses = 3;
constexpr uint32_t kRadixBuckets = uint32_t{1} << kRadixBits;
// Below this many keys the histograms cost more than a comparison sort
// (the crossover of unsorted 64-bit packs lies near 100).
constexpr int64_t kRadixMinKeys = 128;

// Order-preserving map of an int32 onto uint32: flipping the sign bit sends
// INT32_MIN..INT32_MAX to 0..UINT32_MAX.
inline uint32_t RadixKey(int32_t key) {
  return static_cast<uint32_t>(key) ^ 0x80000000u;
}

inline int32_t UnRadixKey(uint32_t radix) {
  return static_cast<int32_t>(radix ^ 0x80000000u);
}

inline uint32_t RadixDigit(uint32_t key, int pass) {
  return (key >> (pass * kRadixBits)) & (kRadixBuckets - 1);
}

// Stable LSD radix sort of items[0, n) by radix_of(item), a uint32 whose
// order is the items' key order, over three 11-bit digits; a pass whose
// digit is the same for every item is skipped. `scratch` must hold n items.
// Short inputs use std::sort on the item values instead, which must then
// agree with the stable key order: true for plain keys, and for (key,
// position) packs built in ascending position order.
template <typename Item, typename RadixOf>
void RadixSort(Item* items, int64_t n, Item* scratch, RadixOf radix_of) {
  if (n < kRadixMinKeys) {
    std::sort(items, items + n);
    return;
  }
  // One read pass fills every digit's histogram.
  std::vector<uint32_t> hist(kRadixPasses * kRadixBuckets, 0);
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t key = radix_of(items[i]);
    for (int pass = 0; pass < kRadixPasses; ++pass) {
      ++hist[pass * kRadixBuckets + RadixDigit(key, pass)];
    }
  }
  Item* src = items;
  Item* dst = scratch;
  for (int pass = 0; pass < kRadixPasses; ++pass) {
    uint32_t* const offset = hist.data() + pass * kRadixBuckets;
    // A digit every item shares leaves the order as it is.
    if (offset[RadixDigit(radix_of(src[0]), pass)] ==
        static_cast<uint32_t>(n)) {
      continue;
    }
    uint32_t next = 0;
    for (uint32_t b = 0; b < kRadixBuckets; ++b) {
      const uint32_t count = offset[b];
      offset[b] = next;
      next += count;
    }
    for (int64_t i = 0; i < n; ++i) {
      dst[offset[RadixDigit(radix_of(src[i]), pass)]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != items) std::copy(src, src + n, items);
}

// A cell member's (key, position) pack: the radix key in the high half, so
// packs order by key and then by position.
inline uint64_t KeyPack(int32_t key, int64_t position) {
  return (uint64_t{RadixKey(key)} << 32) | static_cast<uint32_t>(position);
}

inline uint32_t PackRadix(uint64_t pack) {
  return static_cast<uint32_t>(pack >> 32);
}

// The branchless merge behind ExactJoinSize and MatchSignatures.
template <bool kRecord>
int64_t MergeSignatures(const std::vector<int32_t>& keys_a,
                        const std::vector<int32_t>& counts_a,
                        const std::vector<int32_t>& keys_b,
                        const std::vector<int32_t>& counts_b,
                        KeyMatch* matches, int64_t* num_matches,
                        int64_t* ops) {
  CAQE_DCHECK(keys_a.size() == counts_a.size());
  CAQE_DCHECK(keys_b.size() == counts_b.size());
  const int32_t* const a = keys_a.data();
  const int32_t* const b = keys_b.data();
  const size_t size_a = keys_a.size();
  const size_t size_b = keys_b.size();
  int64_t total = 0;
  size_t found = 0;
  size_t i = 0;
  size_t j = 0;
  // Branchless merge: each step advances the side(s) holding the smaller
  // key and adds the product only on a match, so the loop carries no
  // data-dependent branch for the predictor to miss.
  while (i < size_a && j < size_b) {
    const int32_t x = a[i];
    const int32_t y = b[j];
    const bool match = x == y;
    total += (static_cast<int64_t>(counts_a[i]) * counts_b[j]) &
             -static_cast<int64_t>(match);
    if constexpr (kRecord) {
      // Written every step and kept only on a match, so the next step
      // overwrites a miss. found <= min(i, j), so the write stays in room.
      matches[found] = KeyMatch{static_cast<int32_t>(i),
                                static_cast<int32_t>(j)};
    }
    found += match;
    i += x <= y;
    j += y <= x;
  }
  // One step per compared pair: a match advances both sides, any other
  // step one side.
  if (ops != nullptr) *ops += static_cast<int64_t>(i + j - found);
  if constexpr (kRecord) *num_matches = static_cast<int64_t>(found);
  return total;
}

}  // namespace

void AppendKeyRuns(int32_t* keys, int64_t n, int32_t* scratch,
                   std::vector<int32_t>* values,
                   std::vector<int32_t>* counts) {
  CAQE_CHECK(n >= 0 && n <= std::numeric_limits<int32_t>::max());
  RadixSort(keys, n, scratch, [](int32_t key) { return RadixKey(key); });
  if (n == 0) return;
  int64_t runs = 1;
  for (int64_t i = 1; i < n; ++i) runs += keys[i] != keys[i - 1];
  values->reserve(values->size() + static_cast<size_t>(runs));
  counts->reserve(counts->size() + static_cast<size_t>(runs));
  int64_t start = 0;
  for (int64_t i = 1; i <= n; ++i) {
    if (i < n && keys[i] == keys[start]) continue;
    values->push_back(keys[start]);
    counts->push_back(static_cast<int32_t>(i - start));
    start = i;
  }
}

int64_t ExactJoinSize(const std::vector<int32_t>& keys_a,
                      const std::vector<int32_t>& counts_a,
                      const std::vector<int32_t>& keys_b,
                      const std::vector<int32_t>& counts_b, int64_t* ops) {
  return MergeSignatures<false>(keys_a, counts_a, keys_b, counts_b, nullptr,
                                nullptr, ops);
}

int64_t MatchSignatures(const std::vector<int32_t>& keys_a,
                        const std::vector<int32_t>& counts_a,
                        const std::vector<int32_t>& keys_b,
                        const std::vector<int32_t>& counts_b,
                        KeyMatch* matches, int64_t* num_matches,
                        int64_t* ops) {
  return MergeSignatures<true>(keys_a, counts_a, keys_b, counts_b, matches,
                               num_matches, ops);
}

int64_t PartitionedTable::TotalRows() const {
  int64_t total = 0;
  for (const LeafCell& c : cells_) {
    total += static_cast<int64_t>(c.rows.size());
  }
  return total;
}

namespace {

// The leaf finalizer both partitioners share. With `cell.rows` set, builds
// every key column's signature, counts and key groups from `keys`, the
// members' key values column by column (keys[j * size + i] is key column j
// of the i-th member). One sort of (key, position) packs per column yields
// all three; `scratch` is reused across calls.
void SetSignatures(int num_keys, const int32_t* keys,
                   std::vector<uint64_t>& scratch, LeafCell& cell) {
  const int64_t size = static_cast<int64_t>(cell.rows.size());
  CAQE_CHECK(size <= std::numeric_limits<int32_t>::max());
  if (static_cast<int64_t>(scratch.size()) < 2 * size) {
    scratch.resize(static_cast<size_t>(2 * size));
  }
  uint64_t* const packs = scratch.data();
  cell.signatures.resize(num_keys);
  cell.signature_counts.resize(num_keys);
  cell.key_groups.resize(num_keys);
  cell.key_group_starts.resize(num_keys);
  for (int j = 0; j < num_keys; ++j) {
    const int32_t* const column = keys + j * size;
    for (int64_t i = 0; i < size; ++i) packs[i] = KeyPack(column[i], i);
    RadixSort(packs, size, packs + size,
              [](uint64_t pack) { return PackRadix(pack); });
    int64_t runs = size > 0 ? 1 : 0;
    for (int64_t i = 1; i < size; ++i) {
      runs += PackRadix(packs[i]) != PackRadix(packs[i - 1]);
    }
    std::vector<int32_t>& values = cell.signatures[j];
    std::vector<int32_t>& counts = cell.signature_counts[j];
    std::vector<int32_t>& groups = cell.key_groups[j];
    std::vector<int32_t>& starts = cell.key_group_starts[j];
    values.reserve(static_cast<size_t>(runs));
    counts.reserve(static_cast<size_t>(runs));
    starts.reserve(static_cast<size_t>(runs + 1));
    groups.resize(static_cast<size_t>(size));
    for (int64_t i = 0; i < size; ++i) {
      groups[static_cast<size_t>(i)] = static_cast<int32_t>(packs[i]);
      if (i == 0 || PackRadix(packs[i]) != PackRadix(packs[i - 1])) {
        values.push_back(UnRadixKey(PackRadix(packs[i])));
        starts.push_back(static_cast<int32_t>(i));
      }
    }
    starts.push_back(static_cast<int32_t>(size));
    for (int64_t e = 0; e < runs; ++e) {
      counts.push_back(starts[static_cast<size_t>(e + 1)] -
                       starts[static_cast<size_t>(e)]);
    }
  }
}

// Finalizes one quad-tree leaf from its ascending member rows: tight bounds
// plus signatures.
LeafCell MakeLeaf(const Table& table, std::vector<int64_t> rows) {
  CAQE_DCHECK(std::is_sorted(rows.begin(), rows.end()));
  const int d = table.num_attrs();
  const int num_keys = table.num_keys();
  LeafCell cell;
  cell.rows = std::move(rows);
  cell.lower.assign(d, std::numeric_limits<double>::infinity());
  cell.upper.assign(d, -std::numeric_limits<double>::infinity());
  for (int64_t row : cell.rows) {
    for (int k = 0; k < d; ++k) {
      const double v = table.attr(row, k);
      cell.lower[k] = std::min(cell.lower[k], v);
      cell.upper[k] = std::max(cell.upper[k], v);
    }
  }
  const size_t size = cell.rows.size();
  std::vector<int32_t> keys(size * static_cast<size_t>(num_keys));
  for (int j = 0; j < num_keys; ++j) {
    for (size_t i = 0; i < size; ++i) {
      keys[j * size + i] = table.key(cell.rows[i], j);
    }
  }
  std::vector<uint64_t> scratch;
  SetSignatures(num_keys, keys.data(), scratch, cell);
  return cell;
}

}  // namespace

Result<PartitionedTable> PartitionTableSlices(const Table& table,
                                              const std::vector<int>& slices) {
  if (static_cast<int>(slices.size()) != table.num_attrs()) {
    return Status::InvalidArgument("one slice count per attribute required");
  }
  for (int s : slices) {
    if (s < 1) return Status::InvalidArgument("slice counts must be >= 1");
  }
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot partition an empty table");
  }
  const int d = table.num_attrs();
  const int num_keys = table.num_keys();
  const int64_t n = table.num_rows();

  // Observed per-attribute ranges define the grid extent.
  std::vector<double> lo(d, std::numeric_limits<double>::infinity());
  std::vector<double> hi(d, -std::numeric_limits<double>::infinity());
  for (int64_t row = 0; row < n; ++row) {
    for (int k = 0; k < d; ++k) {
      const double v = table.attr(row, k);
      lo[k] = std::min(lo[k], v);
      hi[k] = std::max(hi[k], v);
    }
  }

  // One sequential pass maps each row's flattened grid id to a dense cell
  // (numbered by first occurrence) and gathers member counts and tight
  // bounds. Rows arrive ascending, so the bounds fold over each cell's
  // members in the same order a per-cell scan would.
  std::vector<int32_t> cell_of_row(static_cast<size_t>(n));
  std::vector<int64_t> grid_ids;
  std::vector<int64_t> sizes;
  std::vector<double> lower;
  std::vector<double> upper;
  FlatMap64<int32_t> dense_of;
  for (int64_t row = 0; row < n; ++row) {
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
    int32_t cell = 0;
    if (const int32_t* found = dense_of.find(id)) {
      cell = *found;
    } else {
      cell = static_cast<int32_t>(grid_ids.size());
      dense_of.insert_or_assign(id, cell);
      grid_ids.push_back(id);
      sizes.push_back(0);
      lower.insert(lower.end(), d, std::numeric_limits<double>::infinity());
      upper.insert(upper.end(), d, -std::numeric_limits<double>::infinity());
    }
    cell_of_row[static_cast<size_t>(row)] = cell;
    ++sizes[static_cast<size_t>(cell)];
    double* const cell_lower = lower.data() + static_cast<size_t>(cell) * d;
    double* const cell_upper = upper.data() + static_cast<size_t>(cell) * d;
    for (int k = 0; k < d; ++k) {
      const double v = table.attr(row, k);
      cell_lower[k] = std::min(cell_lower[k], v);
      cell_upper[k] = std::max(cell_upper[k], v);
    }
  }
  const size_t num_cells = grid_ids.size();

  // Exact-size scatter: rows land ascending in their cell's row list, keys
  // in the cell's column-by-column block of one flat buffer.
  std::vector<LeafCell> cells(num_cells);
  std::vector<int64_t> key_base(num_cells);
  std::vector<int64_t> filled(num_cells, 0);
  int64_t next_key = 0;
  for (size_t c = 0; c < num_cells; ++c) {
    LeafCell& cell = cells[c];
    cell.rows.resize(static_cast<size_t>(sizes[c]));
    cell.lower.assign(lower.begin() + c * d, lower.begin() + (c + 1) * d);
    cell.upper.assign(upper.begin() + c * d, upper.begin() + (c + 1) * d);
    key_base[c] = next_key;
    next_key += sizes[c] * num_keys;
  }
  std::vector<int32_t> keys(static_cast<size_t>(next_key));
  for (int64_t row = 0; row < n; ++row) {
    const size_t c = static_cast<size_t>(cell_of_row[static_cast<size_t>(row)]);
    const int64_t i = filled[c]++;
    cells[c].rows[static_cast<size_t>(i)] = row;
    int32_t* const block = keys.data() + key_base[c];
    for (int j = 0; j < num_keys; ++j) {
      block[j * sizes[c] + i] = table.key(row, j);
    }
  }

  // Cells leave in the iteration order of a std::unordered_map that
  // received the grid ids in first-occurrence order. Cell ids, region ids
  // and scheduler tie-breaks follow this order, and reports with them
  // (DESIGN.md, "Coarse set-up cost").
  std::unordered_map<int64_t, int32_t> emission_order;
  for (size_t c = 0; c < num_cells; ++c) {
    emission_order[grid_ids[c]] = static_cast<int32_t>(c);
  }
  PartitionedTable result(&table);
  std::vector<uint64_t> scratch;
  for (const auto& [id, c] : emission_order) {
    LeafCell& cell = cells[static_cast<size_t>(c)];
    SetSignatures(num_keys, keys.data() + key_base[static_cast<size_t>(c)],
                  scratch, cell);
    result.AddCell(std::move(cell));
  }
  return result;
}

Result<PartitionedTable> PartitionTable(const Table& table,
                                        int cells_per_dim) {
  if (cells_per_dim < 1) {
    return Status::InvalidArgument("cells_per_dim must be >= 1");
  }
  return PartitionTableSlices(
      table, std::vector<int>(table.num_attrs(), cells_per_dim));
}

namespace {

struct QuadNode {
  std::vector<int64_t> rows;
  std::vector<double> lower;
  std::vector<double> upper;
  int depth = 0;
};

QuadNode QuadRoot(const Table& table) {
  const int d = table.num_attrs();
  QuadNode root;
  root.lower.assign(d, std::numeric_limits<double>::infinity());
  root.upper.assign(d, -std::numeric_limits<double>::infinity());
  root.rows.resize(table.num_rows());
  for (int64_t row = 0; row < table.num_rows(); ++row) {
    root.rows[row] = row;
    for (int k = 0; k < d; ++k) {
      const double v = table.attr(row, k);
      root.lower[k] = std::min(root.lower[k], v);
      root.upper[k] = std::max(root.upper[k], v);
    }
  }
  return root;
}

// Below this many rows the chunk fork/join costs more than the work;
// quadrant classification and leaf finalization run serially. The stripe
// merge below makes the output identical at any chunk count, so the
// cutoff cannot change results.
constexpr int64_t kParallelMinRows = 4096;

// Splits `node` at its box midpoint in every dimension into non-empty
// children, emitted in ascending quadrant-id order. Returns false (leaving
// `node` untouched) when the node cannot be split (degenerate box, or all
// rows in one quadrant). With a pool, row classification runs in
// deterministic stripes: each chunk buckets its contiguous row slice, and
// per-quadrant row lists are concatenated in chunk order — byte-identical
// to the serial ascending-row classification at any thread count.
bool QuadSplit(const Table& table, const QuadNode& node,
               std::vector<QuadNode>& children_out, ThreadPool* pool) {
  const int d = table.num_attrs();
  if (node.lower == node.upper) return false;
  std::vector<double> mid(d);
  for (int k = 0; k < d; ++k) {
    mid[k] = 0.5 * (node.lower[k] + node.upper[k]);
  }
  const int64_t n = static_cast<int64_t>(node.rows.size());
  ThreadPool* const split_pool = n >= kParallelMinRows ? pool : nullptr;
  const int chunks = NumChunks(split_pool, n, /*min_chunk=*/1);
  std::vector<std::unordered_map<uint32_t, std::vector<int64_t>>> stripes(
      chunks);
  RunChunks(split_pool, chunks, [&](int c) {
    const auto [begin, end] = ChunkRange(n, chunks, c);
    auto& local = stripes[c];
    for (int64_t i = begin; i < end; ++i) {
      const int64_t row = node.rows[static_cast<size_t>(i)];
      uint32_t quadrant = 0;
      for (int k = 0; k < d; ++k) {
        if (table.attr(row, k) > mid[k]) quadrant |= uint32_t{1} << k;
      }
      local[quadrant].push_back(row);
    }
  });
  std::vector<uint32_t> quadrants;
  for (const auto& stripe : stripes) {
    for (const auto& [quadrant, rows] : stripe) quadrants.push_back(quadrant);
  }
  std::sort(quadrants.begin(), quadrants.end());
  quadrants.erase(std::unique(quadrants.begin(), quadrants.end()),
                  quadrants.end());
  if (quadrants.size() <= 1) return false;
  for (uint32_t quadrant : quadrants) {
    QuadNode child;
    child.depth = node.depth + 1;
    for (auto& stripe : stripes) {
      const auto it = stripe.find(quadrant);
      if (it == stripe.end()) continue;
      child.rows.insert(child.rows.end(), it->second.begin(),
                        it->second.end());
    }
    child.lower.resize(d);
    child.upper.resize(d);
    for (int k = 0; k < d; ++k) {
      const bool high = (quadrant >> k) & 1;
      child.lower[k] = high ? mid[k] : node.lower[k];
      child.upper[k] = high ? node.upper[k] : mid[k];
    }
    children_out.push_back(std::move(child));
  }
  return true;
}

// Finalizes the gathered leaf row lists concurrently (tight bounds +
// signature sorts dominate the build) and appends the cells in gathering
// order, so cell ids match the serial build at any thread count.
void FinalizeLeaves(const Table& table,
                    std::vector<std::vector<int64_t>>& leaf_rows,
                    ThreadPool* pool, PartitionedTable& result) {
  const int64_t num_leaves = static_cast<int64_t>(leaf_rows.size());
  std::vector<LeafCell> cells(static_cast<size_t>(num_leaves));
  int64_t total_rows = 0;
  for (const auto& rows : leaf_rows) {
    total_rows += static_cast<int64_t>(rows.size());
  }
  ThreadPool* const leaf_pool = total_rows >= kParallelMinRows ? pool : nullptr;
  ParallelFor(leaf_pool, num_leaves, /*min_chunk=*/1, [&](int64_t i) {
    cells[static_cast<size_t>(i)] =
        MakeLeaf(table, std::move(leaf_rows[static_cast<size_t>(i)]));
  });
  for (LeafCell& cell : cells) result.AddCell(std::move(cell));
}

}  // namespace

Result<PartitionedTable> PartitionTableQuadTreeTarget(const Table& table,
                                                      int64_t target_cells,
                                                      int max_depth,
                                                      ThreadPool* pool) {
  if (target_cells < 1) {
    return Status::InvalidArgument("target_cells must be >= 1");
  }
  if (max_depth < 0) {
    return Status::InvalidArgument("max_depth must be >= 0");
  }
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot partition an empty table");
  }
  if (table.num_attrs() > 20) {
    return Status::InvalidArgument(
        "quad-tree partitioning supports at most 20 attributes");
  }

  // Greedily split the most populated splittable node until the leaf
  // budget is met. The heap loop stays serial (split order is part of the
  // deterministic output); only the per-node row classification and the
  // final leaf finalization parallelize.
  auto by_rows = [](const QuadNode& a, const QuadNode& b) {
    return a.rows.size() < b.rows.size();
  };
  std::vector<QuadNode> heap;
  heap.push_back(QuadRoot(table));
  std::vector<QuadNode> leaves;
  while (!heap.empty() &&
         static_cast<int64_t>(heap.size() + leaves.size()) < target_cells) {
    std::pop_heap(heap.begin(), heap.end(), by_rows);
    QuadNode node = std::move(heap.back());
    heap.pop_back();
    std::vector<QuadNode> children;
    if (node.depth >= max_depth || !QuadSplit(table, node, children, pool)) {
      leaves.push_back(std::move(node));
      continue;
    }
    for (QuadNode& child : children) {
      heap.push_back(std::move(child));
      std::push_heap(heap.begin(), heap.end(), by_rows);
    }
  }
  PartitionedTable result(&table);
  std::vector<std::vector<int64_t>> leaf_rows;
  leaf_rows.reserve(heap.size() + leaves.size());
  for (QuadNode& node : heap) leaf_rows.push_back(std::move(node.rows));
  for (QuadNode& node : leaves) leaf_rows.push_back(std::move(node.rows));
  FinalizeLeaves(table, leaf_rows, pool, result);
  return result;
}

std::vector<int> ChooseSliceVector(int num_attrs, int64_t target_cells) {
  std::vector<int> slices(std::max(1, num_attrs), 1);
  int64_t cells = 1;
  int dim = 0;
  while (cells * 2 <= target_cells) {
    slices[dim] *= 2;
    cells *= 2;
    dim = (dim + 1) % static_cast<int>(slices.size());
  }
  return slices;
}

}  // namespace caqe
