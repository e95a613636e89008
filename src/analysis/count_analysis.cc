#include "src/analysis/count_analysis.h"

#include "src/algebra/builder.h"

namespace bagalg::analysis {

CountFunction CountAnalysis::CountOf(const Value& t) const {
  auto it = counts.find(t);
  if (it == counts.end()) return CountFunction{Polynomial(), BigNat(0)};
  return it->second;
}

BigNat CountAnalysis::UniformValidFrom() const {
  BigNat n = zero_floor;
  for (const auto& [t, cf] : counts) {
    (void)t;
    if (cf.valid_from > n) n = cf.valid_from;
  }
  return n;
}

namespace {

/// Evaluates an object-level lambda body (τ / α_i / const / the bound
/// variable) on a concrete value. The Prop 4.1 grammar restricts MAP and σ
/// bodies to tuple-level expressions; anything else is Unsupported.
Result<Value> EvalObjectBody(const Expr& e, const Value* binder) {
  const ExprNode& n = e.node();
  switch (n.kind) {
    case ExprKind::kVar:
      if (binder == nullptr) {
        return Status::Unsupported("free variable in a closed object");
      }
      if (n.index != 0) {
        return Status::Unsupported(
            "count analysis supports one binder level in bodies");
      }
      return *binder;
    case ExprKind::kConst:
      return *n.literal;
    case ExprKind::kTupling: {
      std::vector<Value> fields;
      fields.reserve(n.children.size());
      for (const Expr& c : n.children) {
        BAGALG_ASSIGN_OR_RETURN(Value v, EvalObjectBody(c, binder));
        fields.push_back(std::move(v));
      }
      return Value::Tuple(std::move(fields));
    }
    case ExprKind::kAttrProj: {
      BAGALG_ASSIGN_OR_RETURN(Value v, EvalObjectBody(n.children[0], binder));
      if (!v.IsTuple() || n.index < 1 || n.index > v.fields().size()) {
        return Status::InvalidArgument("bad attribute projection in body");
      }
      return v.fields()[n.index - 1];
    }
    default:
      return Status::Unsupported(
          std::string("operator ") + ExprKindName(n.kind) +
          " in a lambda body is outside the count-analysis fragment");
  }
}

using CountMap = std::map<Value, CountFunction>;

class Analyzer {
 public:
  Analyzer(std::string input_name, Value a_atom)
      : input_name_(std::move(input_name)), a_atom_(std::move(a_atom)) {}

  Result<CountMap> Analyze(const Expr& e) {
    const ExprNode& n = e.node();
    switch (n.kind) {
      case ExprKind::kInput: {
        if (n.name != input_name_) {
          return Status::Unsupported(
              "count analysis is single-input; unexpected bag '" + n.name +
              "'");
        }
        CountMap out;
        out[Value::Tuple({a_atom_})] =
            CountFunction{Polynomial::Identity(), BigNat(0)};
        return out;
      }
      case ExprKind::kConst: {
        if (!n.literal->IsBag()) {
          return Status::Unsupported("non-bag constant at bag position");
        }
        CountMap out;
        const Bag& literal = n.literal->bag();
        for (size_t i = 0; i < literal.DistinctCount(); ++i) {
          out[literal.ElementAt(i)] = CountFunction{
              Polynomial::Constant(BigInt(literal.CountAt(i))), BigNat(0)};
        }
        return out;
      }
      case ExprKind::kBagging: {
        // β(o) for a closed object o.
        BAGALG_ASSIGN_OR_RETURN(Value v,
                                EvalObjectBody(n.children[0], nullptr));
        CountMap out;
        out[v] = CountFunction{Polynomial::Constant(BigInt(1)), BigNat(0)};
        return out;
      }
      case ExprKind::kAdditiveUnion: {
        BAGALG_ASSIGN_OR_RETURN(CountMap a, Analyze(n.children[0]));
        BAGALG_ASSIGN_OR_RETURN(CountMap b, Analyze(n.children[1]));
        for (auto& [t, cf] : b) {
          auto it = a.find(t);
          if (it == a.end()) {
            a.emplace(t, std::move(cf));
          } else {
            it->second.poly = it->second.poly + cf.poly;
            it->second.valid_from =
                BigNat::Max(it->second.valid_from, cf.valid_from);
          }
        }
        return a;
      }
      case ExprKind::kSubtract:
        return AnalyzeMonus(n.children[0], n.children[1]);
      case ExprKind::kMaxUnion: {
        // a ∪ b = (a − b) ⊎ b (§3).
        Expr expanded = Uplus(Monus(n.children[0], n.children[1]),
                              n.children[1]);
        return Analyze(expanded);
      }
      case ExprKind::kIntersect: {
        // a ∩ b = a − (a − b) (§3).
        Expr expanded =
            Monus(n.children[0], Monus(n.children[0], n.children[1]));
        return Analyze(expanded);
      }
      case ExprKind::kProduct: {
        BAGALG_ASSIGN_OR_RETURN(CountMap a, Analyze(n.children[0]));
        BAGALG_ASSIGN_OR_RETURN(CountMap b, Analyze(n.children[1]));
        CountMap out;
        for (const auto& [t1, cf1] : a) {
          for (const auto& [t2, cf2] : b) {
            std::vector<Value> fields = t1.fields();
            fields.insert(fields.end(), t2.fields().begin(),
                          t2.fields().end());
            Value t = Value::Tuple(std::move(fields));
            Polynomial p = cf1.poly * cf2.poly;
            BigNat nfrom = BigNat::Max(cf1.valid_from, cf2.valid_from);
            auto it = out.find(t);
            if (it == out.end()) {
              out[t] = CountFunction{std::move(p), std::move(nfrom)};
            } else {
              it->second.poly = it->second.poly + p;
              it->second.valid_from =
                  BigNat::Max(it->second.valid_from, nfrom);
            }
          }
        }
        return out;
      }
      case ExprKind::kMap: {
        BAGALG_ASSIGN_OR_RETURN(CountMap src, Analyze(n.children[1]));
        CountMap out;
        for (const auto& [t, cf] : src) {
          BAGALG_ASSIGN_OR_RETURN(Value image,
                                  EvalObjectBody(n.children[0], &t));
          auto it = out.find(image);
          if (it == out.end()) {
            out[image] = cf;
          } else {
            it->second.poly = it->second.poly + cf.poly;
            it->second.valid_from =
                BigNat::Max(it->second.valid_from, cf.valid_from);
          }
        }
        return out;
      }
      case ExprKind::kSelect: {
        BAGALG_ASSIGN_OR_RETURN(CountMap src, Analyze(n.children[2]));
        CountMap out;
        for (const auto& [t, cf] : src) {
          BAGALG_ASSIGN_OR_RETURN(Value lhs,
                                  EvalObjectBody(n.children[0], &t));
          BAGALG_ASSIGN_OR_RETURN(Value rhs,
                                  EvalObjectBody(n.children[1], &t));
          if (lhs == rhs) out.emplace(t, cf);
        }
        return out;
      }
      case ExprKind::kDupElim: {
        // The Prop 4.5 induction step: nonzero polynomials become the
        // constant 1 once they are stably positive.
        BAGALG_ASSIGN_OR_RETURN(CountMap src, Analyze(n.children[0]));
        CountMap out;
        for (const auto& [t, cf] : src) {
          if (cf.poly.IsZero()) continue;
          if (!cf.poly.EventuallyPositive()) {
            zero_floor_ = BigNat::Max(
                zero_floor_,
                BigNat::Max(cf.valid_from, cf.poly.StablePositivityPoint()));
            continue;  // eventually absent
          }
          BigNat nfrom =
              BigNat::Max(cf.valid_from, cf.poly.StablePositivityPoint());
          out[t] = CountFunction{Polynomial::Constant(BigInt(1)),
                                 std::move(nfrom)};
        }
        return out;
      }
      default:
        return Status::Unsupported(
            std::string("operator ") + ExprKindName(n.kind) +
            " is outside the Prop 4.1 count-analysis fragment");
    }
  }

 private:
  Result<CountMap> AnalyzeMonus(const Expr& lhs, const Expr& rhs) {
    BAGALG_ASSIGN_OR_RETURN(CountMap a, Analyze(lhs));
    BAGALG_ASSIGN_OR_RETURN(CountMap b, Analyze(rhs));
    CountMap out;
    for (const auto& [t, cf1] : a) {
      Polynomial p2;
      BigNat n2(0);
      auto it = b.find(t);
      if (it != b.end()) {
        p2 = it->second.poly;
        n2 = it->second.valid_from;
      }
      Polynomial diff = cf1.poly - p2;
      BigNat base = BigNat::Max(cf1.valid_from, n2);
      if (diff.IsZero()) continue;
      BigNat stable = diff.StablePositivityPoint();
      BigNat nfrom = BigNat::Max(base, stable);
      if (diff.EventuallyPositive()) {
        out[t] = CountFunction{std::move(diff), std::move(nfrom)};
      } else {
        // The count is 0 from nfrom on: omit, but remember the floor.
        zero_floor_ = BigNat::Max(zero_floor_, nfrom);
      }
    }
    return out;
  }

  std::string input_name_;
  Value a_atom_;

 public:
  /// Floor accumulated from eliminated tuples; see CountAnalysis.
  BigNat zero_floor_;
};

}  // namespace

Result<CountAnalysis> AnalyzeCounts(const Expr& e,
                                    const std::string& input_name,
                                    const Value& a_atom) {
  Analyzer analyzer(input_name, a_atom);
  BAGALG_ASSIGN_OR_RETURN(CountMap counts, analyzer.Analyze(e));
  CountAnalysis out;
  out.counts = std::move(counts);
  out.zero_floor = analyzer.zero_floor_;
  return out;
}

}  // namespace bagalg::analysis
