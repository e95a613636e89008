#include "src/algebra/row_program.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace bagalg {

bool CellMap::IsIdentity(size_t width) const {
  if (cells.size() != width) return false;
  for (size_t k = 0; k < width; ++k) {
    if (cells[k].constant || cells[k].value != k) return false;
  }
  return true;
}

std::vector<AtomId> CellMap::Project(const FlatRows& rows) const {
  std::vector<AtomId> out(rows.size() * cells.size());
  AtomId* o = out.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    const AtomId* row = rows.row(i);
    for (const CellSource& source : cells) *o++ = source.Read(row);
  }
  return out;
}

void CellFilter::Apply(FlatRows* rows) const {
  switch (kind) {
    case Kind::kKeepAll:
      return;
    case Kind::kDropAll:
      rows->Clear();
      return;
    case Kind::kCompare:
      break;
  }
  const size_t n = rows->size();
  const size_t width = rows->width;
  AtomId* cells = rows->cells.data();
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    const AtomId* row = cells + i * width;
    bool keep = true;
    for (const auto& [l, r] : pairs) {
      if (l.Read(row) != r.Read(row)) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    if (w != i) {
      std::copy(row, row + width, cells + w * width);
      rows->counts[w] = std::move(rows->counts[i]);
    }
    ++w;
  }
  rows->cells.resize(w * width);
  rows->counts.resize(w);
}

namespace {

Status CompileInto(const Expr& body, std::vector<RowProgram::Insn>* insns,
                   std::vector<Value>* consts) {
  const ExprNode& n = body.node();
  switch (n.kind) {
    case ExprKind::kVar:
      if (n.index != 0) {
        return Status::Unsupported(
            "pipeline lambdas support a single binder level");
      }
      insns->push_back({RowProgram::OpCode::kLoadRow, 0});
      return Status::Ok();
    case ExprKind::kConst:
      insns->push_back({RowProgram::OpCode::kLoadConst,
                        static_cast<uint32_t>(consts->size())});
      consts->push_back(*n.literal);
      return Status::Ok();
    case ExprKind::kAttrProj:
      BAGALG_RETURN_IF_ERROR(CompileInto(n.children[0], insns, consts));
      insns->push_back({RowProgram::OpCode::kProjField,
                        static_cast<uint32_t>(n.index)});
      return Status::Ok();
    case ExprKind::kTupling: {
      for (const Expr& c : n.children) {
        BAGALG_RETURN_IF_ERROR(CompileInto(c, insns, consts));
      }
      insns->push_back({RowProgram::OpCode::kMakeTuple,
                        static_cast<uint32_t>(n.children.size())});
      return Status::Ok();
    }
    default:
      return Status::Unsupported(
          std::string("operator ") + ExprKindName(n.kind) +
          " in a lambda body is outside the pipeline fragment");
  }
}

/// A program's result traced over a row type: a tuple of traces, a cell
/// of the input row, or a constant that is not a tuple (an atom or a bag).
struct Trace {
  enum class Kind : uint8_t { kTuple, kCell, kConst };
  Kind kind = Kind::kTuple;
  std::vector<Trace> fields;        ///< kTuple
  uint32_t cell = 0;                ///< kCell
  const Value* constant = nullptr;  ///< kConst: owned by the program
};

/// The trace of an input row of `type`, numbering its cells from *next.
Result<Trace> RowTrace(const Type& type, uint32_t* next) {
  Trace t;
  if (type.IsAtom()) {
    t.kind = Trace::Kind::kCell;
    t.cell = (*next)++;
    return t;
  }
  if (!type.IsTuple()) {
    return Status::Unsupported(
        "pipeline rows hold only atoms and tuples, not " + type.ToString());
  }
  for (const Type& field : type.fields()) {
    BAGALG_ASSIGN_OR_RETURN(Trace f, RowTrace(field, next));
    t.fields.push_back(std::move(f));
  }
  return t;
}

Trace ConstTrace(const Value& v) {
  Trace t;
  if (v.IsTuple()) {
    for (const Value& f : v.fields()) t.fields.push_back(ConstTrace(f));
    return t;
  }
  t.kind = Trace::Kind::kConst;
  t.constant = &v;
  return t;
}

/// Runs the program symbolically over rows of `row_type`.
Result<Trace> TraceProgram(const std::vector<RowProgram::Insn>& insns,
                           const std::vector<Value>& consts,
                           const Type& row_type) {
  std::optional<Trace> row;
  std::vector<Trace> stack;
  for (const RowProgram::Insn& insn : insns) {
    switch (insn.op) {
      case RowProgram::OpCode::kLoadRow:
        if (!row.has_value()) {
          uint32_t next = 0;
          BAGALG_ASSIGN_OR_RETURN(row, RowTrace(row_type, &next));
        }
        stack.push_back(*row);
        break;
      case RowProgram::OpCode::kLoadConst:
        stack.push_back(ConstTrace(consts[insn.arg]));
        break;
      case RowProgram::OpCode::kProjField: {
        Trace t = std::move(stack.back());
        stack.pop_back();
        if (t.kind != Trace::Kind::kTuple || insn.arg < 1 ||
            insn.arg > t.fields.size()) {
          return Status::InvalidArgument(
              "bad attribute projection in pipeline lambda");
        }
        stack.push_back(std::move(t.fields[insn.arg - 1]));
        break;
      }
      case RowProgram::OpCode::kMakeTuple: {
        Trace t;
        t.fields.resize(insn.arg);
        for (size_t i = insn.arg; i > 0; --i) {
          t.fields[i - 1] = std::move(stack.back());
          stack.pop_back();
        }
        stack.push_back(std::move(t));
        break;
      }
    }
  }
  if (stack.size() != 1) return Status::Internal("malformed row program");
  return std::move(stack.back());
}

/// Appends the cells of `t` to `map`, and returns its type.
Result<Type> FlattenTrace(const Trace& t, std::vector<CellSource>* cells) {
  switch (t.kind) {
    case Trace::Kind::kCell:
      cells->push_back({false, t.cell});
      return Type::Atom();
    case Trace::Kind::kConst:
      if (!t.constant->IsAtom()) {
        return Status::Unsupported("a bag inside a pipeline row");
      }
      cells->push_back({true, t.constant->atom_id()});
      return Type::Atom();
    case Trace::Kind::kTuple: {
      std::vector<Type> fields;
      fields.reserve(t.fields.size());
      for (const Trace& f : t.fields) {
        BAGALG_ASSIGN_OR_RETURN(Type type, FlattenTrace(f, cells));
        fields.push_back(std::move(type));
      }
      return Type::Tuple(std::move(fields));
    }
  }
  return Status::Internal("unknown trace kind");
}

CellSource SourceOf(const Trace& t) {
  if (t.kind == Trace::Kind::kCell) return {false, t.cell};
  return {true, t.constant->atom_id()};
}

/// Adds to `filter` the cell pairs on which `a` and `b` must agree; false
/// when they can never be equal (their shapes differ, or two constants do).
bool MatchTraces(const Trace& a, const Trace& b, CellFilter* filter) {
  using Kind = Trace::Kind;
  if (a.kind == Kind::kTuple || b.kind == Kind::kTuple) {
    if (a.kind != b.kind || a.fields.size() != b.fields.size()) return false;
    for (size_t i = 0; i < a.fields.size(); ++i) {
      if (!MatchTraces(a.fields[i], b.fields[i], filter)) return false;
    }
    return true;
  }
  if (a.kind == Kind::kConst && b.kind == Kind::kConst) {
    return *a.constant == *b.constant;
  }
  // A cell holds an atom, which never equals a bag.
  if ((a.kind == Kind::kConst && !a.constant->IsAtom()) ||
      (b.kind == Kind::kConst && !b.constant->IsAtom())) {
    return false;
  }
  if (a.kind == Kind::kCell && b.kind == Kind::kCell && a.cell == b.cell) {
    return true;
  }
  filter->pairs.emplace_back(SourceOf(a), SourceOf(b));
  return true;
}

}  // namespace

Result<CellMap> RowProgram::CompileCells(const Type& row_type) const {
  CellMap map;
  if (gather_.has_value() && row_type.IsTuple()) {
    // The common projection: copy whole fields, no trace needed.
    const auto& fields = row_type.fields();
    std::vector<uint32_t> begin(fields.size() + 1, 0);
    for (size_t f = 0; f < fields.size(); ++f) {
      begin[f + 1] = begin[f] + static_cast<uint32_t>(CellWidth(fields[f]));
    }
    std::vector<Type> types;
    types.reserve(gather_->size());
    for (size_t f : *gather_) {
      if (f < 1 || f > fields.size()) {
        return Status::InvalidArgument(
            "bad attribute projection in pipeline lambda");
      }
      for (uint32_t c = begin[f - 1]; c < begin[f]; ++c) {
        map.cells.push_back({false, c});
      }
      types.push_back(fields[f - 1]);
    }
    map.type = Type::Tuple(std::move(types));
    return map;
  }
  BAGALG_ASSIGN_OR_RETURN(Trace trace, TraceProgram(insns_, consts_, row_type));
  BAGALG_ASSIGN_OR_RETURN(map.type, FlattenTrace(trace, &map.cells));
  return map;
}

Result<CellFilter> RowProgram::CompileFilter(const RowProgram& lhs,
                                             const RowProgram& rhs,
                                             const Type& row_type) {
  BAGALG_ASSIGN_OR_RETURN(Trace l,
                          TraceProgram(lhs.insns_, lhs.consts_, row_type));
  BAGALG_ASSIGN_OR_RETURN(Trace r,
                          TraceProgram(rhs.insns_, rhs.consts_, row_type));
  CellFilter filter;
  if (!MatchTraces(l, r, &filter)) {
    filter.kind = CellFilter::Kind::kDropAll;
    filter.pairs.clear();
  } else {
    filter.kind = filter.pairs.empty() ? CellFilter::Kind::kKeepAll
                                       : CellFilter::Kind::kCompare;
  }
  return filter;
}

Result<RowProgram> RowProgram::Compile(const Expr& body) {
  RowProgram program;
  BAGALG_RETURN_IF_ERROR(
      CompileInto(body, &program.insns_, &program.consts_));
  program.Reclassify();
  return program;
}

RowProgram RowProgram::Constant(Value v) {
  RowProgram program;
  program.insns_.push_back({OpCode::kLoadConst, 0});
  program.consts_.push_back(std::move(v));
  program.Reclassify();
  return program;
}

RowProgram RowProgram::GatherOf(const std::vector<size_t>& fields) {
  RowProgram program;
  for (size_t f : fields) {
    program.insns_.push_back({OpCode::kLoadRow, 0});
    program.insns_.push_back({OpCode::kProjField, static_cast<uint32_t>(f)});
  }
  program.insns_.push_back(
      {OpCode::kMakeTuple, static_cast<uint32_t>(fields.size())});
  program.Reclassify();
  return program;
}

void RowProgram::Reclassify() {
  identity_ = false;
  field_ref_.reset();
  gather_.reset();
  const_val_.reset();
  const auto& p = insns_;
  // Row-independent programs compute one value for every input; fold it
  // now so stages built from them can run (and be folded) without the
  // stack machine. A malformed constant body (projection off a non-tuple
  // constant) simply stays unclassified and fails at Run time.
  if (!p.empty() &&
      std::none_of(p.begin(), p.end(), [](const Insn& insn) {
        return insn.op == OpCode::kLoadRow;
      })) {
    Result<Value> folded = Run(Value::Tuple({}));
    if (folded.ok()) const_val_ = std::move(folded).value();
    return;
  }
  if (p.size() == 1 && p[0].op == OpCode::kLoadRow) {
    identity_ = true;
    return;
  }
  if (p.size() == 2 && p[0].op == OpCode::kLoadRow &&
      p[1].op == OpCode::kProjField) {
    field_ref_ = p[1].arg;
    return;
  }
  // τ(α_a1(x), ..., α_ak(x)): pairs of (LoadRow, ProjField) closed by one
  // MakeTuple consuming everything.
  if (p.size() >= 3 && p.back().op == OpCode::kMakeTuple &&
      p.back().arg * 2 + 1 == p.size()) {
    std::vector<size_t> fields;
    for (size_t i = 0; i + 1 < p.size(); i += 2) {
      if (p[i].op != OpCode::kLoadRow || p[i + 1].op != OpCode::kProjField) {
        return;
      }
      fields.push_back(p[i + 1].arg);
    }
    gather_ = std::move(fields);
  }
}

std::optional<std::vector<size_t>> RowProgram::ColumnRefs() const {
  std::vector<size_t> refs;
  for (size_t i = 0; i < insns_.size(); ++i) {
    if (insns_[i].op != OpCode::kLoadRow) continue;
    // The row value itself must never escape: each load must be immediately
    // projected, pinning the access to one column.
    if (i + 1 >= insns_.size() ||
        insns_[i + 1].op != OpCode::kProjField) {
      return std::nullopt;
    }
    refs.push_back(insns_[i + 1].arg);
  }
  std::sort(refs.begin(), refs.end());
  refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  return refs;
}

void RowProgram::ShiftColumns(size_t delta) {
  for (size_t i = 0; i + 1 < insns_.size(); ++i) {
    if (insns_[i].op == OpCode::kLoadRow &&
        insns_[i + 1].op == OpCode::kProjField) {
      insns_[i + 1].arg -= static_cast<uint32_t>(delta);
    }
  }
  Reclassify();
}

bool RowProgram::RemapColumns(const std::vector<size_t>& map) {
  for (size_t i = 0; i + 1 < insns_.size(); ++i) {
    if (insns_[i].op == OpCode::kLoadRow &&
        insns_[i + 1].op == OpCode::kProjField) {
      const uint32_t c = insns_[i + 1].arg;
      if (c == 0 || c > map.size()) return false;
    }
  }
  for (size_t i = 0; i + 1 < insns_.size(); ++i) {
    if (insns_[i].op == OpCode::kLoadRow &&
        insns_[i + 1].op == OpCode::kProjField) {
      insns_[i + 1].arg =
          static_cast<uint32_t>(map[insns_[i + 1].arg - 1]);
    }
  }
  Reclassify();
  return true;
}

Result<Value> RowProgram::Run(const Value& row) const {
  // The all-fast-path callers never reach here; still, keep the machine
  // allocation-light: the stack rarely exceeds a handful of slots.
  std::vector<Value> stack;
  stack.reserve(4);
  for (const Insn& insn : insns_) {
    switch (insn.op) {
      case OpCode::kLoadRow:
        stack.push_back(row);
        break;
      case OpCode::kLoadConst:
        stack.push_back(consts_[insn.arg]);
        break;
      case OpCode::kProjField: {
        Value v = std::move(stack.back());
        stack.pop_back();
        if (!v.IsTuple() || insn.arg < 1 || insn.arg > v.fields().size()) {
          return Status::InvalidArgument(
              "bad attribute projection in pipeline lambda");
        }
        stack.push_back(v.fields()[insn.arg - 1]);
        break;
      }
      case OpCode::kMakeTuple: {
        std::vector<Value> fields(insn.arg);
        for (size_t i = insn.arg; i > 0; --i) {
          fields[i - 1] = std::move(stack.back());
          stack.pop_back();
        }
        stack.push_back(Value::Tuple(std::move(fields)));
        break;
      }
    }
  }
  return std::move(stack.back());
}

std::string RowProgram::ToString() const {
  // Symbolic re-rendering by running the machine over strings.
  std::vector<std::string> stack;
  for (const Insn& insn : insns_) {
    switch (insn.op) {
      case OpCode::kLoadRow:
        stack.push_back("x");
        break;
      case OpCode::kLoadConst:
        stack.push_back(consts_[insn.arg].ToString());
        break;
      case OpCode::kProjField: {
        // Rewrites the top of the stack, `x` -> `a<k>`, `e` -> `e.a<k>`.
        std::string& top = stack.back();
        if (top == "x") {
          top = "a";
        } else {
          top += ".a";
        }
        top += std::to_string(insn.arg);
        break;
      }
      case OpCode::kMakeTuple: {
        const size_t first = stack.size() - insn.arg;
        std::string joined;
        for (size_t i = first; i < stack.size(); ++i) {
          if (i > first) joined += ", ";
          joined += stack[i];
        }
        stack.resize(first);
        stack.push_back("t(" + joined + ")");
        break;
      }
    }
  }
  return stack.empty() ? std::string("?") : stack.back();
}

}  // namespace bagalg
