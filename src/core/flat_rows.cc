#include "src/core/flat_rows.h"

#include <algorithm>

namespace bagalg {

namespace {

/// Run detection gives up, and the rows are sorted instead, once the
/// natural runs average fewer than this many rows.
constexpr size_t kMinMeanRunLength = 16;

/// One row to order: its sort key (its first two cells packed), its cells
/// and its count. Rows wider than two cells break key ties by comparing
/// the remaining cells.
struct KeyedRow {
  uint64_t key;
  const AtomId* row;
  Mult* count;
};

uint64_t PrefixKey(const AtomId* row, size_t width) {
  if (width == 0) return 0;
  if (width == 1) return row[0];
  return (uint64_t{row[0]} << 32) | row[1];
}

}  // namespace

FlatRows Canonicalize(std::vector<FlatRows>& parts, size_t width) {
  if (parts.size() == 1) {
    // One part already in canonical order is the answer as it stands.
    const FlatRows& only = parts[0];
    size_t i = 1;
    while (i < only.size() &&
           CompareRows(only.row(i - 1), only.row(i), width) < 0) {
      ++i;
    }
    if (i >= only.size()) {
      FlatRows rows = std::move(parts[0]);
      rows.width = width;  // no rows, or rows of exactly `width` cells
      return rows;
    }
  }
  size_t n = 0;
  for (const FlatRows& part : parts) n += part.size();
  std::vector<KeyedRow> order;
  order.reserve(n);
  for (FlatRows& part : parts) {
    for (size_t i = 0; i < part.size(); ++i) {
      order.push_back(
          {PrefixKey(part.row(i), width), part.row(i), &part.counts[i]});
    }
  }
  const auto less = [width](const KeyedRow& a, const KeyedRow& b) {
    if (a.key != b.key) return a.key < b.key;
    return width > 2 && CompareRows(a.row + 2, b.row + 2, width - 2) < 0;
  };
  // The natural runs, as [begin, end) ranges of `order`.
  std::vector<std::pair<size_t, size_t>> runs;
  bool sort_all = false;
  size_t begin = 0;
  for (size_t i = 1; i < n; ++i) {
    if (less(order[i], order[i - 1])) {
      if (runs.size() + 2 > n / kMinMeanRunLength) {
        sort_all = true;
        break;
      }
      runs.emplace_back(begin, i);
      begin = i;
    }
  }
  if (sort_all) {
    std::sort(order.begin(), order.end(), less);
  } else if (!runs.empty()) {
    // Merge the runs pairwise, halving their number each round.
    runs.emplace_back(begin, n);
    std::vector<KeyedRow> scratch(n);
    while (runs.size() > 1) {
      std::vector<std::pair<size_t, size_t>> next;
      for (size_t p = 0; p < runs.size(); p += 2) {
        const auto [lo, mid] = runs[p];
        const size_t hi = p + 1 < runs.size() ? runs[p + 1].second : mid;
        std::merge(order.begin() + lo, order.begin() + mid,
                   order.begin() + mid, order.begin() + hi,
                   scratch.begin() + lo, less);
        next.emplace_back(lo, hi);
      }
      order.swap(scratch);
      runs = std::move(next);
    }
  }
  size_t distinct = 0;
  for (size_t i = 0; i < n; ++i) {
    KeyedRow& last = order[distinct == 0 ? 0 : distinct - 1];
    if (distinct > 0 && order[i].key == last.key &&
        CompareRows(order[i].row, last.row, width) == 0) {
      *last.count += *order[i].count;
    } else {
      order[distinct++] = order[i];
    }
  }
  FlatRows rows;
  rows.width = width;
  rows.Reserve(distinct);
  for (size_t i = 0; i < distinct; ++i) {
    rows.Push(order[i].row, std::move(*order[i].count));
  }
  return rows;
}

}  // namespace bagalg
