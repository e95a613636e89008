#include "src/ir/dataflow.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace bagalg::ir {

namespace {

/// Explicit keys kept per node. Key combination under joins is quadratic in
/// this, so keep it small — the passes only ever ask "is there a key inside
/// this column set", which one witness answers.
constexpr size_t kMaxKeys = 4;

/// Per-column facts (key / constant detection) are only read off bags at
/// most this large. Bag::column_facts() builds them once per stored bag,
/// but that first build still costs O(distinct · arity · log distinct).
constexpr size_t kScanFactEntryCap = 4096;

/// The all-counts-one walk behind Bag::IsSetLike is O(distinct) on first
/// use; gate it so a huge scan doesn't turn plan-time into data-time.
constexpr size_t kSetLikeEntryCap = 1 << 16;

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > std::numeric_limits<uint64_t>::max() - b
             ? std::numeric_limits<uint64_t>::max()
             : a + b;
}

uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<uint64_t>::max() / b) {
    return std::numeric_limits<uint64_t>::max();
  }
  return a * b;
}

std::optional<uint64_t> MaxAdd(const std::optional<uint64_t>& a,
                               const std::optional<uint64_t>& b) {
  if (!a.has_value() || !b.has_value()) return std::nullopt;
  return SatAdd(*a, *b);
}

std::optional<uint64_t> MaxMul(const std::optional<uint64_t>& a,
                               const std::optional<uint64_t>& b) {
  if (a.has_value() && *a == 0) return 0;
  if (b.has_value() && *b == 0) return 0;
  if (!a.has_value() || !b.has_value()) return std::nullopt;
  return SatMul(*a, *b);
}

std::optional<uint64_t> MaxMin(const std::optional<uint64_t>& a,
                               const std::optional<uint64_t>& b) {
  if (!a.has_value()) return b;
  if (!b.has_value()) return a;
  return std::min(*a, *b);
}

/// Records `key` for rows of type `row`, unless it is the implicit
/// full-column key.
void AddKey(IrFacts* facts, std::vector<size_t> key, const Type& row) {
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  if (key.empty()) return;
  if (row.IsTuple() && key.size() == row.fields().size()) return;
  for (const auto& existing : facts->keys) {
    if (existing == key) return;
  }
  if (facts->keys.size() >= kMaxKeys) return;
  facts->keys.push_back(std::move(key));
}

bool IsSubset(const std::vector<size_t>& sub, const std::vector<size_t>& sup) {
  // Both sorted.
  return std::includes(sup.begin(), sup.end(), sub.begin(), sub.end());
}

/// Facts for a scan's bound bag. Exact where the bag is small enough to
/// inspect; conservative (unknown) beyond the caps. The data-dependent
/// parts are cached on the bag, so re-lowering over it reads them for free.
IrFacts ScanFacts(const IrNode& node) {
  IrFacts facts;
  const Bag& bag = node.scan_bag;
  const Type& element = bag.element_type();
  const size_t arity = element.IsTuple() ? element.fields().size() : 0;
  const size_t distinct = bag.DistinctCount();
  facts.min_rows = distinct;
  facts.max_rows = distinct;
  if (distinct <= kSetLikeEntryCap) facts.dup_free = bag.IsSetLike();
  if (arity > 0 && distinct > 0 && distinct <= kScanFactEntryCap &&
      bag.column_facts().constant.size() == arity) {
    const Bag::ColumnFacts& columns = bag.column_facts();
    const Value first = bag.ElementAt(0);
    for (size_t c = 1; c <= arity; ++c) {
      if (columns.constant[c - 1]) {
        facts.const_cols.emplace(c, first.fields()[c - 1]);
      }
      if (columns.unique[c - 1] && arity > 1) AddKey(&facts, {c}, element);
    }
  }
  return facts;
}

/// Remaps an old key through a field-source list (the 1-based input column
/// each output field copies, 0 for none) when the copies cover it; the
/// witness picks the first output field for each key column.
std::optional<std::vector<size_t>> RemapKeyThrough(
    const std::vector<size_t>& key, const std::vector<size_t>& sources) {
  std::vector<size_t> remapped;
  for (size_t k : key) {
    bool found = false;
    for (size_t j = 0; j < sources.size(); ++j) {
      if (sources[j] == k) {
        remapped.push_back(j + 1);
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }
  return remapped;
}

/// The input column whose cells the output cells [begin, end), of type
/// `type`, copy in order, or 0 when they copy no whole column of `in_row`.
/// The column's type must equal `type`: equal widths do not make equal
/// shapes (an atom and a 1-tuple are both one cell wide).
size_t CopiedColumn(const std::vector<CellSource>& cells, size_t begin,
                    size_t end, const Type& type, const Type& in_row) {
  if (!in_row.IsTuple() || begin == end || cells[begin].constant) return 0;
  const size_t first = cells[begin].value;
  size_t column_begin = 0;
  for (size_t c = 1; c <= in_row.fields().size(); ++c) {
    const size_t width = CellWidth(in_row.fields()[c - 1]);
    if (column_begin == first && width == end - begin) {
      if (!(in_row.fields()[c - 1] == type)) return 0;
      for (size_t i = begin; i < end; ++i) {
        if (cells[i].constant || cells[i].value != first + (i - begin)) {
          return 0;
        }
      }
      return c;
    }
    column_begin += width;
  }
  return 0;
}

/// The value of type `type` held by the constant cells from *pos on.
Value ConstantCells(const Type& type, const std::vector<CellSource>& cells,
                    size_t* pos) {
  if (type.IsAtom()) return Value::Atom(cells[(*pos)++].value);
  std::vector<Value> fields;
  fields.reserve(type.fields().size());
  for (const Type& field : type.fields()) {
    fields.push_back(ConstantCells(field, cells, pos));
  }
  return Value::Tuple(std::move(fields));
}

bool AllConstant(const std::vector<CellSource>& cells, size_t begin,
                 size_t end) {
  for (size_t i = begin; i < end; ++i) {
    if (!cells[i].constant) return false;
  }
  return true;
}

/// Facts of a projection compiled to `compiled` over rows of type `in_row`.
/// An output field whose cells are all constant is a constant column; one
/// whose cells are a whole input column, in order, is a copy of it. The
/// projection is injective when the copied columns — of the fields, or of
/// the whole output row — contain a key.
IrFacts ProjectionFacts(const Type& in_row, const StageLayout& compiled,
                        const IrFacts& in) {
  IrFacts out;
  out.min_rows = in.min_rows > 0 ? 1 : 0;
  out.max_rows = in.max_rows;
  if (IsVoidRow(in_row)) return out;  // no row ever reaches the stage
  const Type& row = compiled.out;
  const std::vector<CellSource>& cells = compiled.project.cells;
  std::vector<size_t> copied;
  if (const size_t whole =
          CopiedColumn(cells, 0, cells.size(), row, in_row)) {
    copied.push_back(whole);
  }
  std::vector<size_t> sources;  // per output field, the column it copies
  if (row.IsTuple()) {
    size_t begin = 0;
    for (size_t j = 1; j <= row.fields().size(); ++j) {
      const size_t end = begin + CellWidth(row.fields()[j - 1]);
      const size_t column =
          CopiedColumn(cells, begin, end, row.fields()[j - 1], in_row);
      sources.push_back(column);
      if (column != 0) {
        copied.push_back(column);
        auto it = in.const_cols.find(column);
        if (it != in.const_cols.end()) out.const_cols.emplace(j, it->second);
      } else if (AllConstant(cells, begin, end)) {
        size_t pos = begin;
        out.const_cols.emplace(j, ConstantCells(row.fields()[j - 1], cells,
                                                &pos));
      }
      begin = end;
    }
  }
  for (const auto& key : in.keys) {
    if (auto remapped = RemapKeyThrough(key, sources)) {
      AddKey(&out, *std::move(remapped), row);
    }
  }
  // The input's implicit full-column key survives when every input column
  // is copied to a field.
  if (in_row.IsTuple() && !in_row.fields().empty()) {
    std::vector<size_t> full(in_row.fields().size());
    for (size_t c = 0; c < full.size(); ++c) full[c] = c + 1;
    if (auto remapped = RemapKeyThrough(full, sources)) {
      AddKey(&out, *std::move(remapped), row);
    }
  }
  if (AllConstant(cells, 0, cells.size())) {
    // Every input row maps to the one constant row; counts of merged
    // entries sum, so dup-freedom needs a singleton input.
    out.max_rows = MaxMin(in.max_rows, std::optional<uint64_t>(1));
    out.dup_free = in.dup_free && in.max_rows.has_value() && *in.max_rows <= 1;
  } else if (in.HasKeyWithin(copied, in_row)) {
    out.dup_free = in.dup_free;
    out.min_rows = in.min_rows;
  }
  return out;
}

}  // namespace

bool IrFacts::HasKeyWithin(const std::vector<size_t>& cols,
                           const Type& row) const {
  std::vector<size_t> sorted = cols;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (const auto& key : keys) {
    if (IsSubset(key, sorted)) return true;
  }
  if (!row.IsTuple()) return false;
  // Implicit key: canonical entries are pairwise distinct values, so the
  // full column set always separates them.
  for (size_t c = 1; c <= row.fields().size(); ++c) {
    if (!std::binary_search(sorted.begin(), sorted.end(), c)) return false;
  }
  return true;
}

std::string IrFacts::ToString(const Type& row) const {
  std::vector<std::string> parts;
  if (row.IsTuple()) {
    parts.push_back("arity=" + std::to_string(row.fields().size()));
  }
  if (dup_free) parts.push_back("dup_free");
  if (disjoint_children) parts.push_back("disjoint");
  for (const auto& key : keys) {
    std::string k = "key{";
    for (size_t i = 0; i < key.size(); ++i) {
      if (i > 0) k += ",";
      k += std::to_string(key[i]);
    }
    parts.push_back(k + "}");
  }
  for (const auto& [col, v] : const_cols) {
    parts.push_back("const{" + std::to_string(col) + "=" + v.ToString() + "}");
  }
  if (max_rows.has_value() || min_rows > 0) {
    std::string rows = "rows=" + std::to_string(min_rows) + "..";
    rows += max_rows.has_value() ? std::to_string(*max_rows) : "*";
    parts.push_back(rows);
  }
  if (parts.empty()) return std::string();
  std::string out = "[";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += " ";
    out += parts[i];
  }
  return out + "]";
}

IrFacts ApplyStageFacts(const Stage& stage, const Type& in_row,
                        const StageLayout& compiled, const IrFacts& in) {
  if (stage.kind == StageKind::kFilter) {
    IrFacts out = in;
    out.min_rows = 0;
    out.disjoint_children = false;
    // σ_{α_c(x) = v} pins column c for every surviving row.
    const auto field = stage.program.FieldRef();
    const auto& rhs_const = stage.rhs.ConstantValue();
    if (field.has_value() && rhs_const.has_value()) {
      out.const_cols.insert_or_assign(*field, *rhs_const);
    }
    return out;
  }
  if (stage.program.IsIdentity()) return in;
  return ProjectionFacts(in_row, compiled, in);
}

IrFacts NodeBaseFacts(const IrNode& node, const RowLayoutMap& layouts,
                      const std::vector<const IrFacts*>& children) {
  const Type& row = layouts.at(&node).source;
  IrFacts facts;
  switch (node.kind) {
    case IrKind::kScan:
      facts = ScanFacts(node);
      break;
    case IrKind::kUnionAll: {
      // Constant columns common to every child (same value everywhere).
      facts.const_cols = children[0]->const_cols;
      for (size_t i = 1; i < children.size() && !facts.const_cols.empty();
           ++i) {
        for (auto it = facts.const_cols.begin();
             it != facts.const_cols.end();) {
          auto other = children[i]->const_cols.find(it->first);
          if (other == children[i]->const_cols.end() ||
              !(other->second == it->second)) {
            it = facts.const_cols.erase(it);
          } else {
            ++it;
          }
        }
      }
      // Disjointness witness: one column constant in every child with
      // pairwise-distinct values.
      size_t tag_col = 0;
      for (const auto& [col, value] : children[0]->const_cols) {
        bool everywhere = true;
        std::vector<const Value*> values{&value};
        for (size_t i = 1; i < children.size(); ++i) {
          auto it = children[i]->const_cols.find(col);
          if (it == children[i]->const_cols.end()) {
            everywhere = false;
            break;
          }
          values.push_back(&it->second);
        }
        if (!everywhere) continue;
        bool distinct = true;
        for (size_t a = 0; a < values.size() && distinct; ++a) {
          for (size_t b = a + 1; b < values.size(); ++b) {
            if (*values[a] == *values[b]) {
              distinct = false;
              break;
            }
          }
        }
        if (distinct) {
          facts.disjoint_children = true;
          tag_col = col;
          break;
        }
      }
      bool all_dup_free = true;
      for (const IrFacts* child : children) {
        all_dup_free = all_dup_free && child->dup_free;
      }
      facts.dup_free = facts.disjoint_children && all_dup_free;
      // A key shared by every child extends to the union when the tag
      // column separates the children.
      if (facts.disjoint_children) {
        for (const auto& key : children[0]->keys) {
          bool shared = true;
          for (size_t i = 1; i < children.size(); ++i) {
            bool found = false;
            for (const auto& other : children[i]->keys) {
              if (other == key) {
                found = true;
                break;
              }
            }
            if (!found) {
              shared = false;
              break;
            }
          }
          if (shared) {
            std::vector<size_t> extended = key;
            extended.push_back(tag_col);
            AddKey(&facts, std::move(extended), row);
          }
        }
      }
      uint64_t min_sum = 0;
      uint64_t min_max = 0;
      std::optional<uint64_t> max_sum = 0;
      for (const IrFacts* child : children) {
        min_sum = SatAdd(min_sum, child->min_rows);
        min_max = std::max(min_max, child->min_rows);
        max_sum = MaxAdd(max_sum, child->max_rows);
      }
      facts.min_rows = facts.disjoint_children ? min_sum : min_max;
      facts.max_rows = max_sum;
      break;
    }
    case IrKind::kCrossJoin:
    case IrKind::kHashJoin: {
      const IrFacts& probe = *children[0];
      const IrFacts& build = *children[1];
      const Type& probe_row = layouts.at(node.children[0].get()).out();
      const Type& build_row = layouts.at(node.children[1].get()).out();
      facts.dup_free = probe.dup_free && build.dup_free;
      facts.const_cols = probe.const_cols;
      // A joined row is the probe's fields, then the build's. A side whose
      // rows cannot exist leaves the joined columns unknown.
      if (row.IsTuple()) {
        const size_t build_arity = row.fields().size() - node.probe_arity;
        // Keys combine across sides: (probe key) ∪ (build key shifted),
        // the implicit full-column keys included.
        auto keys_of = [](const IrFacts& side,
                          size_t arity) -> std::vector<std::vector<size_t>> {
          std::vector<std::vector<size_t>> out = side.keys;
          if (arity > 0) {
            std::vector<size_t> full(arity);
            for (size_t c = 0; c < arity; ++c) full[c] = c + 1;
            out.push_back(std::move(full));
          }
          return out;
        };
        for (const auto& lk : keys_of(probe, node.probe_arity)) {
          for (const auto& rk : keys_of(build, build_arity)) {
            std::vector<size_t> combined = lk;
            for (size_t c : rk) combined.push_back(c + node.probe_arity);
            AddKey(&facts, std::move(combined), row);
          }
        }
        for (const auto& [col, value] : build.const_cols) {
          facts.const_cols.emplace(col + node.probe_arity, value);
        }
      }
      if (node.kind == IrKind::kCrossJoin) {
        facts.min_rows = SatMul(probe.min_rows, build.min_rows);
        facts.max_rows = MaxMul(probe.max_rows, build.max_rows);
      } else {
        facts.min_rows = 0;
        facts.max_rows = MaxMul(probe.max_rows, build.max_rows);
        // A keyed side caps the join at the other side's cardinality.
        if (probe.HasKeyWithin({node.probe_key}, probe_row)) {
          facts.max_rows = MaxMin(facts.max_rows, build.max_rows);
        }
        if (build.HasKeyWithin({node.build_key}, build_row)) {
          facts.max_rows = MaxMin(facts.max_rows, probe.max_rows);
        }
      }
      break;
    }
    case IrKind::kMerge: {
      const IrFacts& left = *children[0];
      const IrFacts& right = *children[1];
      switch (node.merge_kind) {
        case MergeKind::kMonus:
          // Entries ⊆ left's, counts ≤ left's.
          facts.dup_free = left.dup_free;
          facts.keys = left.keys;
          facts.const_cols = left.const_cols;
          facts.min_rows = 0;
          facts.max_rows = left.max_rows;
          break;
        case MergeKind::kIntersect:
          facts.dup_free = left.dup_free || right.dup_free;
          facts.keys = left.keys;
          facts.const_cols = left.const_cols;
          for (const auto& [col, value] : right.const_cols) {
            facts.const_cols.emplace(col, value);
          }
          facts.min_rows = 0;
          facts.max_rows = MaxMin(left.max_rows, right.max_rows);
          break;
        case MergeKind::kMaxUnion:
          facts.dup_free = left.dup_free && right.dup_free;
          // Entries from either side may coincide on any column subset;
          // only shared constant columns survive.
          for (const auto& [col, value] : left.const_cols) {
            auto it = right.const_cols.find(col);
            if (it != right.const_cols.end() && it->second == value) {
              facts.const_cols.emplace(col, value);
            }
          }
          facts.min_rows = std::max(left.min_rows, right.min_rows);
          facts.max_rows = MaxAdd(left.max_rows, right.max_rows);
          break;
        case MergeKind::kAdditive:  // lowering streams ⊎ as kUnionAll
          break;
      }
      break;
    }
    case IrKind::kDupElim: {
      // ε keeps the entry set and squashes counts: every entry-level fact
      // survives, and the output is dup-free by construction.
      facts = *children[0];
      facts.dup_free = true;
      facts.disjoint_children = false;
      break;
    }
  }
  // Cardinality tightening from the static_cost annotation (lower.cc's
  // Annotate, run only for explain ir): est_rows bounds the node source's
  // total multiplicity, hence its distinct entries.
  if (node.est_rows.has_value()) {
    facts.max_rows = MaxMin(facts.max_rows, node.est_rows);
  }
  return facts;
}

namespace {

void ComputeNode(const IrNode& node, const RowLayoutMap& layouts,
                 IrFactsMap* map) {
  std::vector<const IrFacts*> children;
  children.reserve(node.children.size());
  for (const auto& child : node.children) {
    ComputeNode(*child, layouts, map);
    children.push_back(&(*map)[child.get()]);
  }
  IrFacts facts = NodeBaseFacts(node, layouts, children);
  const RowLayout& layout = layouts.at(&node);
  const Type* row = &layout.source;
  for (size_t i = 0; i < node.stages.size(); ++i) {
    facts = ApplyStageFacts(node.stages[i], *row, layout.stages[i], facts);
    row = &layout.stages[i].out;
  }
  (*map)[&node] = std::move(facts);
}

}  // namespace

IrFactsMap ComputeIrFacts(const IrPlan& plan, const RowLayoutMap& layouts) {
  IrFactsMap map;
  if (plan.root != nullptr) ComputeNode(*plan.root, layouts, &map);
  return map;
}

bool IsVoidRow(const Type& type) {
  if (type.IsBottom()) return true;
  if (!type.IsTuple()) return false;
  for (const Type& field : type.fields()) {
    if (IsVoidRow(field)) return true;
  }
  return false;
}

std::pair<size_t, size_t> FieldCells(const Type& row, size_t field) {
  size_t begin = 0;
  for (size_t i = 0; i + 1 < field; ++i) {
    begin += CellWidth(row.fields()[i]);
  }
  return {begin, begin + CellWidth(row.fields()[field - 1])};
}

namespace {

Status LayoutError(const std::string& what) {
  return Status::Internal("ir verify: " + what);
}

/// The source row type of `node` from its children's output row types.
Result<Type> SourceRowType(const IrNode& node,
                           const std::vector<const Type*>& children) {
  if (node.kind == IrKind::kUnionAll && children.size() < 2) {
    return LayoutError("union with fewer than two inputs");
  }
  size_t want = 2;
  if (node.kind == IrKind::kScan) want = 0;
  if (node.kind == IrKind::kDupElim) want = 1;
  if (node.kind == IrKind::kUnionAll) want = children.size();
  if (children.size() != want) {
    return LayoutError(std::string(IrKindName(node.kind)) +
                       " has wrong child count");
  }
  switch (node.kind) {
    case IrKind::kScan: {
      const Type& element = node.scan_bag.element_type();
      if (element.BagNesting() > 0) {
        return LayoutError("scan " + node.scan_name + " rows hold a bag");
      }
      return element;
    }
    case IrKind::kUnionAll:
    case IrKind::kMerge: {
      Type joined = Type::Bottom();
      for (const Type* child : children) {
        Result<Type> next = Type::Join(joined, *child);
        if (!next.ok()) {
          return LayoutError(std::string(IrKindName(node.kind)) +
                             " children disagree on row layout: " +
                             joined.ToString() + " vs " + child->ToString());
        }
        joined = std::move(next).value();
      }
      return joined;
    }
    case IrKind::kCrossJoin:
    case IrKind::kHashJoin: {
      const Type& probe = *children[0];
      const Type& build = *children[1];
      if (probe.IsBottom() || build.IsBottom()) return Type::Bottom();
      if (!probe.IsTuple() || !build.IsTuple()) {
        return LayoutError("join over non-tuple rows");
      }
      if (node.probe_arity != probe.fields().size()) {
        return LayoutError("join probe_arity " +
                           std::to_string(node.probe_arity) +
                           " disagrees with probe rows " + probe.ToString());
      }
      if (node.kind == IrKind::kHashJoin &&
          (node.probe_key < 1 || node.probe_key > probe.fields().size() ||
           node.build_key < 1 || node.build_key > build.fields().size())) {
        return LayoutError("hash join keys a" +
                           std::to_string(node.probe_key) + " = b" +
                           std::to_string(node.build_key) +
                           " outside the cells of " + probe.ToString() +
                           " x " + build.ToString());
      }
      std::vector<Type> fields = probe.fields();
      fields.insert(fields.end(), build.fields().begin(),
                    build.fields().end());
      return Type::Tuple(std::move(fields));
    }
    case IrKind::kDupElim:
      return *children[0];
  }
  return Status::Internal("unknown IR node kind");
}

}  // namespace

Result<StageLayout> CompileStage(const Stage& stage, const Type& in) {
  if (stage.program.insns().empty() ||
      (stage.kind == StageKind::kFilter && stage.rhs.insns().empty())) {
    return LayoutError("empty program in stage " + stage.ToString());
  }
  StageLayout out;
  if (IsVoidRow(in)) {
    out.out = stage.kind == StageKind::kFilter ? in : Type::Bottom();
    return out;
  }
  if (stage.kind == StageKind::kFilter) {
    Result<CellFilter> filter =
        RowProgram::CompileFilter(stage.program, stage.rhs, in);
    if (!filter.ok()) {
      return LayoutError("filter " + stage.ToString() + " over rows " +
                         in.ToString() + ": " + filter.status().message());
    }
    out.out = in;
    out.filter = std::move(filter).value();
    return out;
  }
  Result<CellMap> map = stage.program.CompileCells(in);
  if (!map.ok()) {
    return LayoutError("projection " + stage.ToString() + " over rows " +
                       in.ToString() + ": " + map.status().message());
  }
  out.out = map.value().type;
  out.project = std::move(map).value();
  return out;
}

namespace {

Status LayoutNode(const IrNode& node, RowLayoutMap* map) {
  std::vector<const Type*> children;
  children.reserve(node.children.size());
  for (const auto& child : node.children) {
    BAGALG_RETURN_IF_ERROR(LayoutNode(*child, map));
    children.push_back(&(*map)[child.get()].out());
  }
  RowLayout layout;
  BAGALG_ASSIGN_OR_RETURN(layout.source, SourceRowType(node, children));
  for (const Stage& stage : node.stages) {
    BAGALG_ASSIGN_OR_RETURN(StageLayout compiled,
                            CompileStage(stage, layout.out()));
    layout.stages.push_back(std::move(compiled));
  }
  (*map)[&node] = std::move(layout);
  return Status::Ok();
}

}  // namespace

Result<RowLayoutMap> ComputeRowLayouts(const IrPlan& plan) {
  if (plan.root == nullptr) {
    return Status::Internal("ir verify: plan without a root");
  }
  RowLayoutMap map;
  BAGALG_RETURN_IF_ERROR(LayoutNode(*plan.root, &map));
  return map;
}

}  // namespace bagalg::ir
