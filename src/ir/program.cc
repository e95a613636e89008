#include "src/ir/program.h"

#include <algorithm>
#include <utility>

namespace bagalg::ir {

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

}  // namespace

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

}  // namespace bagalg::ir
