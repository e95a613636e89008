#include "src/tm/ifp_compiler.h"

#include <algorithm>

#include "src/algebra/builder.h"
#include "src/algebra/database.h"

namespace bagalg::tm {

namespace {

/// Atom naming conventions shared by encode/compile/decode.
Value SymAtom(char c) { return MakeAtom(std::string("tmsym_") + c); }
Value StateAtom(const std::string& q) { return MakeAtom("tmq_" + q); }
Value NoHeadAtom() { return MakeAtom("tmq__none"); }
Value TickAtom() { return MakeAtom("tmtick"); }
Value WitnessAtom() { return MakeAtom("tmw"); }

/// The bag {{tick * n}} — the paper's bag-encoded index n.
Bag TickBag(uint64_t n) { return NCopies(Mult(n), TickAtom()); }

/// {{tick}} as a constant expression (the index "1" used by ⊎ / ∸).
Expr OneTick() { return ConstBag(TickBag(1)); }

/// σ_{α_i(x) = c}(src).
Expr SelectAttrEq(Expr src, size_t attr, const Value& c) {
  return Select(Proj(Var(0), attr), ConstExpr(c), std::move(src));
}

/// The head tuples of X in state q reading symbol s.
Expr HeadTuples(const Expr& x, const std::string& q, char s) {
  return SelectAttrEq(SelectAttrEq(x, 4, StateAtom(q)), 3, SymAtom(s));
}

/// p ⊎ 1, p ∸ 1, or p according to the move, applied to attribute `attr`
/// of the σ/MAP-bound tuple.
Expr MovedPosition(size_t attr, Move move) {
  switch (move) {
    case Move::kRight:
      return Uplus(Proj(Var(0), attr), OneTick());
    case Move::kLeft:
      return Monus(Proj(Var(0), attr), OneTick());
    case Move::kStay:
      return Proj(Var(0), attr);
  }
  return Proj(Var(0), attr);
}

}  // namespace

CompiledMachine CompiledMachine::Compile(const TmSpec& spec,
                                         const std::string& input_name) {
  CompiledMachine out;
  out.spec_ = spec;
  out.input_name_ = input_name;

  // Complete the transition table: a missing (state, symbol) entry means
  // "reject" in the native simulator, so compile it as an explicit move to
  // the reject state (write back the same symbol, stay).
  TmSpec total = spec;
  for (const std::string& q : spec.States()) {
    if (q == spec.accept_state || q == spec.reject_state) continue;
    for (char s : spec.Symbols()) {
      total.delta.try_emplace({q, s},
                              Transition{spec.reject_state, s, Move::kStay});
    }
  }

  Expr x = Var(0);  // the fixpoint iterate; lambda bodies never capture it
  Value g = NoHeadAtom();

  // Non-head cells of X (candidates for copying forward).
  Expr idle_cells = SelectAttrEq(x, 4, g);

  std::vector<Expr> contributions;
  for (const auto& [key, t] : total.delta) {
    const auto& [q1, s1] = key;
    Expr heads = HeadTuples(x, q1, s1);
    Expr succ_t = Uplus(Proj(Var(0), 1), OneTick());

    if (t.move == Move::kStay) {
      // The head stays: one rewritten head tuple, plus forward copies of
      // every other cell of the same time step.
      Expr head_next = Map(Tup({succ_t, Proj(Var(0), 2),
                                ConstExpr(SymAtom(t.write)),
                                ConstExpr(StateAtom(t.next))}),
                           heads);
      Expr pairs = Select(Proj(Var(0), 5), Proj(Var(0), 1),
                          Product(heads, idle_cells));
      Expr copies = Map(Tup({Uplus(Proj(Var(0), 1), OneTick()),
                             Proj(Var(0), 6), Proj(Var(0), 7), ConstExpr(g)}),
                        pairs);
      contributions.push_back(Umax(std::move(head_next), std::move(copies)));
      continue;
    }

    // Moving head: the old cell is rewritten without the head marker...
    Expr old_cell = Map(Tup({succ_t, Proj(Var(0), 2),
                             ConstExpr(SymAtom(t.write)), ConstExpr(g)}),
                        heads);
    // ...and the head lands on the adjacent cell: join each head tuple
    // with the time-t tuple at position p' (attributes 5..8 after the
    // product) to read that cell's symbol.
    Expr landing = Select(
        Tup({Proj(Var(0), 5), Proj(Var(0), 6)}),
        Tup({Proj(Var(0), 1), MovedPosition(2, t.move)}),
        Product(heads, x));
    Expr new_head = Map(Tup({Uplus(Proj(Var(0), 1), OneTick()),
                             Proj(Var(0), 6), Proj(Var(0), 7),
                             ConstExpr(StateAtom(t.next))}),
                        landing);
    // The landing cell must NOT also be copied forward as head-less: build
    // the head-less twin of new_head and subtract it from the copies.
    Expr stale_twin = Map(Tup({Uplus(Proj(Var(0), 1), OneTick()),
                               Proj(Var(0), 6), Proj(Var(0), 7),
                               ConstExpr(g)}),
                          landing);
    Expr pairs = Select(Proj(Var(0), 5), Proj(Var(0), 1),
                        Product(heads, idle_cells));
    Expr copies = Map(Tup({Uplus(Proj(Var(0), 1), OneTick()),
                           Proj(Var(0), 6), Proj(Var(0), 7), ConstExpr(g)}),
                      pairs);
    Expr kept_copies = Monus(std::move(copies), std::move(stale_twin));
    contributions.push_back(
        Umax(Umax(std::move(old_cell), std::move(new_head)),
             std::move(kept_copies)));
  }

  // Union of all transition contributions.
  Expr derived;
  for (Expr& c : contributions) {
    derived = derived.IsValid() ? Umax(std::move(derived), std::move(c))
                                : std::move(c);
  }
  if (!derived.IsValid()) {
    derived = ConstBag(Bag());  // no transitions: nothing ever derived
  }

  // Gate: once an accepting/rejecting tuple exists, derive nothing more —
  // the inflationary iteration then reaches its fixpoint.
  Expr halted = Umax(SelectAttrEq(x, 4, StateAtom(spec.accept_state)),
                     SelectAttrEq(x, 4, StateAtom(spec.reject_state)));
  Expr witness = ConstBag(MakeBagOf({Value::Tuple({WitnessAtom()})}));
  Expr gate = Monus(witness, Map(Tup({ConstExpr(WitnessAtom())}),
                                 Eps(std::move(halted))));
  Expr gated =
      ProjectAttrs(Product(std::move(derived), std::move(gate)), {1, 2, 3, 4});

  out.expr_ = Ifp(std::move(gated), Input(input_name));
  return out;
}

Result<Bag> CompiledMachine::EncodeInitialConfig(const std::string& input,
                                                 size_t tape_cells) const {
  if (input.size() > tape_cells) {
    return Status::InvalidArgument("input longer than the padded tape");
  }
  std::vector<char> alphabet = spec_.Symbols();
  for (char c : input) {
    if (std::find(alphabet.begin(), alphabet.end(), c) == alphabet.end()) {
      return Status::InvalidArgument(std::string("input symbol '") + c +
                                     "' is not in the machine's alphabet");
    }
  }
  Bag::Builder builder;
  for (size_t cell = 1; cell <= tape_cells; ++cell) {
    char symbol = cell <= input.size() ? input[cell - 1] : spec_.blank;
    Value state =
        cell == 1 ? StateAtom(spec_.initial_state) : NoHeadAtom();
    builder.AddOne(Value::Tuple({Value::FromBag(TickBag(1)),
                                 Value::FromBag(TickBag(cell)),
                                 SymAtom(symbol), std::move(state)}));
  }
  return std::move(builder).Build();
}

Result<TmResult> CompiledMachine::DecodeResult(const Bag& fixpoint) const {
  // Locate the halting tuple (accept or reject state marker).
  Value halt_time;
  std::string final_state;
  bool found = false;
  for (const BagEntry& e : fixpoint.nested_entries()) {
    const Value& marker = e.value.fields()[3];
    for (const std::string* q : {&spec_.accept_state, &spec_.reject_state}) {
      if (marker == StateAtom(*q)) {
        halt_time = e.value.fields()[0];
        final_state = *q;
        found = true;
      }
    }
  }
  if (!found) {
    return Status::NotFound(
        "no halting configuration in the fixpoint (head escaped the padded "
        "tape or the iteration budget was too small)");
  }
  // Collect the cells of the halting time step, ordered by position size.
  std::vector<std::pair<uint64_t, char>> cells;
  for (const BagEntry& e : fixpoint.nested_entries()) {
    if (!(e.value.fields()[0] == halt_time)) continue;
    BAGALG_ASSIGN_OR_RETURN(uint64_t pos,
                            e.value.fields()[1].bag().TotalCount().ToUint64());
    // Recover the symbol char from the atom name "tmsym_<c>".
    std::string name =
        GlobalAtomTable().NameOf(e.value.fields()[2].atom_id());
    if (name.size() != 6 + 1) {
      return Status::Internal("unexpected symbol atom " + name);
    }
    cells.emplace_back(pos, name.back());
  }
  std::sort(cells.begin(), cells.end());
  TmResult result;
  result.halted = true;
  result.accepted = final_state == spec_.accept_state;
  result.final_state = std::move(final_state);
  BAGALG_ASSIGN_OR_RETURN(uint64_t halt_ticks,
                          halt_time.bag().TotalCount().ToUint64());
  result.steps = halt_ticks - 1;  // time starts at 1
  for (const auto& [pos, symbol] : cells) {
    (void)pos;
    result.final_tape.push_back(symbol);
  }
  while (!result.final_tape.empty() &&
         result.final_tape.back() == spec_.blank) {
    result.final_tape.pop_back();
  }
  return result;
}

Result<TmResult> RunMachineViaAlgebra(const TmSpec& spec,
                                      const std::string& input,
                                      size_t tape_cells, const Limits& limits,
                                      EvalStats* stats) {
  CompiledMachine compiled = CompiledMachine::Compile(spec);
  BAGALG_ASSIGN_OR_RETURN(Bag init,
                          compiled.EncodeInitialConfig(input, tape_cells));
  Database db;
  BAGALG_RETURN_IF_ERROR(db.Put("Init", std::move(init)));
  Evaluator eval(limits);
  BAGALG_ASSIGN_OR_RETURN(Bag fixpoint,
                          eval.EvalToBag(compiled.expression(), db));
  if (stats != nullptr) *stats = eval.stats();
  return compiled.DecodeResult(fixpoint);
}

}  // namespace bagalg::tm
