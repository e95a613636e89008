// Tests for the bagalgd server stack (src/net): the defensive JSON reader,
// wire serialization and framing, the HTTP layer's caps and status mapping,
// and the server itself end-to-end over loopback — sessions, admission
// control, governor trips with flight dumps, and graceful drain.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/bag_ops.h"
#include "src/core/row_format.h"
#include "src/core/value.h"
#include "src/net/envelope.h"
#include "src/net/http.h"
#include "src/net/io.h"
#include "src/net/json_reader.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/util/fault.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace bagalg::net {
namespace {

// ------------------------------------------------------------ json_reader

TEST(JsonReaderTest, ParsesScalarsAndNesting) {
  auto doc = ParseJson(R"js({"a": 1.5, "b": [true, null, "x\nA"]})js");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_TRUE(doc->is_object());
  const JsonValue* a = doc->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kind, JsonValue::Kind::kNumber);
  EXPECT_DOUBLE_EQ(a->number, 1.5);
  const JsonValue* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_TRUE(b->items[0].boolean);
  EXPECT_EQ(b->items[1].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(b->items[2].string, "x\nA");
}

TEST(JsonReaderTest, GetStringAndGetUint) {
  auto doc = ParseJson(R"js({"s": "hi", "n": 42, "f": 1.5, "neg": -3})js");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetString("s"), "hi");
  EXPECT_EQ(doc->GetString("missing", "dflt"), "dflt");
  EXPECT_EQ(doc->GetString("n", "dflt"), "dflt");  // wrong type
  EXPECT_EQ(doc->GetUint("n"), 42u);
  EXPECT_EQ(doc->GetUint("f", 7), 7u);    // not integral
  EXPECT_EQ(doc->GetUint("neg", 7), 7u);  // negative
  EXPECT_EQ(doc->GetUint("missing", 9), 9u);
}

TEST(JsonReaderTest, SurrogatePairDecodes) {
  auto doc = ParseJson(R"js("😀")js");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->string, "\xF0\x9F\x98\x80");
  EXPECT_FALSE(ParseJson(R"js("\ud83d")js").ok());   // lone high surrogate
  EXPECT_FALSE(ParseJson(R"js("\ude00")js").ok());   // lone low surrogate
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated",
        "{\"a\" 1}", "[1] trailing", "nan", "\"\x01\""}) {
    auto doc = ParseJson(bad);
    EXPECT_FALSE(doc.ok()) << "accepted: " << bad;
    if (!doc.ok()) {
      EXPECT_EQ(doc.status().code(), StatusCode::kParseError) << bad;
    }
  }
}

TEST(JsonReaderTest, DepthCapHolds) {
  std::string deep;
  for (int i = 0; i < kMaxJsonDepth + 8; ++i) deep += "[";
  auto doc = ParseJson(deep);
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("deep"), std::string::npos);
  // At the cap it still parses.
  std::string ok_doc(static_cast<size_t>(kMaxJsonDepth), '[');
  ok_doc += std::string(static_cast<size_t>(kMaxJsonDepth), ']');
  EXPECT_TRUE(ParseJson(ok_doc).ok());
}

// ------------------------------------------------------------------ wire

TEST(WireTest, SerializesNestedValues) {
  const AtomId a = GlobalAtomTable().Intern("wire_a");
  Bag::Builder builder(Type::Atom());
  builder.Add(Value::Atom(a), 3);
  const Bag bag = *std::move(builder).Build();
  EXPECT_EQ(ValueToWireJson(Value::Atom(a)), "{\"atom\":\"wire_a\"}");
  EXPECT_EQ(ValueToWireJson(Value::Tuple({Value::Atom(a), Value::Atom(a)})),
            "{\"tuple\":[{\"atom\":\"wire_a\"},{\"atom\":\"wire_a\"}]}");
  EXPECT_EQ(ValueToWireJson(Value::FromBag(bag)),
            "{\"bag\":{\"type\":\"{{U}}\",\"entries\":[{\"v\":{\"atom\":"
            "\"wire_a\"},\"n\":\"3\"}]}}");
}

TEST(WireTest, HugeMultiplicitiesTravelAsStrings) {
  const AtomId a = GlobalAtomTable().Intern("wire_big");
  Bag::Builder builder(Type::Atom());
  builder.Add(Value::Atom(a), BigNat::TwoPow(100));
  const std::string json =
      ValueToWireJson(Value::FromBag(*std::move(builder).Build()));
  // 2^100 — far past double precision; must appear quoted and exact.
  EXPECT_NE(json.find("\"1267650600228229401496703205376\""),
            std::string::npos)
      << json;
}

// -------------------------------------- flat rows print as their Values

/// Value::Hash, BigNat::Hash and the combine step of a bag's entry hash:
/// the hash a bag held as Values had, computed from entries().
size_t EntriesHash(const Bag& bag) {
  const auto combine = [](size_t seed, size_t v) {
    return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
  };
  size_t h = 0x90u;
  for (const BagEntry& e : bag.entries()) {
    h = combine(h, combine(e.value.Hash(), e.count.Hash()));
  }
  return h;
}

/// The text, JSON and BAG1 renderings of a bag assembled from the Value
/// printers over its entries() view: the bytes every printer wrote while
/// bags held Values.
std::string EntriesText(const Bag& bag) {
  std::string out = "{{";
  for (const BagEntry& e : bag.entries()) {
    if (out.size() > 2) out += ", ";
    out += e.value.ToString();
    if (!e.count.IsOne()) out += "*" + e.count.ToString();
  }
  return out + "}}";
}

std::string EntriesJson(const Bag& bag) {
  std::string out = "{\"bag\":{\"type\":\"" + bag.type().ToString() +
                    "\",\"entries\":[";
  for (const BagEntry& e : bag.entries()) {
    if (out.back() != '[') out += ",";
    out += "{\"v\":" + ValueToWireJson(e.value) + ",\"n\":\"" +
           e.count.ToString() + "\"}";
  }
  return out + "]}}";
}

void PutLe(uint64_t v, size_t bytes, std::string* out) {
  for (size_t i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::string EntriesBinary(const Bag& bag) {
  std::string out(1, '\x03');
  const std::string type = bag.element_type().ToString();
  PutLe(type.size(), 4, &out);
  out += type;
  PutLe(bag.entries().size(), 8, &out);
  for (const BagEntry& e : bag.entries()) {
    out += ValueToWireBinary(e.value);
    if (e.count.FitsUint64()) {
      out.push_back('\x00');
      PutLe(*e.count.ToUint64(), 8, &out);
    } else {
      const std::string digits = e.count.ToString();
      out.push_back('\x01');
      PutLe(digits.size(), 4, &out);
      out += digits;
    }
  }
  return out;
}

/// A flat bag built from cells: `rows` maps each row's atom ids to its
/// count (a std::map, so the rows come out in canonical order).
Bag FromCells(const Type& element,
              const std::map<std::vector<AtomId>, Mult>& rows) {
  FlatRows flat;
  flat.width = CellWidth(element);
  for (const auto& [cells, count] : rows) flat.Push(cells.data(), count);
  return Bag::FromCanonicalRows(element, std::move(flat));
}

/// The same bag built once from Values and once from cells must hash,
/// compare and print identically, and as the Value printers would.
void ExpectFormsAgree(const Bag& from_values, const Bag& from_cells) {
  ASSERT_NE(from_values.flat_rows(), nullptr);
  ASSERT_NE(from_cells.flat_rows(), nullptr);
  EXPECT_EQ(from_values.Hash(), from_cells.Hash());
  EXPECT_EQ(from_values.Compare(from_cells), 0);
  EXPECT_EQ(from_cells.Compare(from_values), 0);
  EXPECT_TRUE(from_values == from_cells);
  EXPECT_EQ(from_values.TotalCount(), from_cells.TotalCount());
  EXPECT_EQ(from_values.IsSetLike(), from_cells.IsSetLike());
  EXPECT_EQ(from_values.element_type(), from_cells.element_type());
  const Value v = Value::FromBag(from_values);
  const Value c = Value::FromBag(from_cells);
  EXPECT_EQ(v.Hash(), c.Hash());
  EXPECT_EQ(from_cells.ToString(), from_values.ToString());
  EXPECT_EQ(ValueToWireJson(c), ValueToWireJson(v));
  EXPECT_EQ(ValueToWireBinary(c), ValueToWireBinary(v));
  // Against the Value printers and the Value hash.
  EXPECT_EQ(from_cells.Hash(), EntriesHash(from_cells));
  EXPECT_EQ(from_cells.ToString(), EntriesText(from_cells));
  EXPECT_EQ(ValueToWireJson(c), EntriesJson(from_cells));
  EXPECT_EQ(ValueToWireBinary(c), EntriesBinary(from_cells));
  std::string streamed;
  WireJsonStreamer streamer("", c, "");
  while (streamer.Produce(16, &streamed)) {
  }
  EXPECT_EQ(streamed, ValueToWireJson(c));
  for (const BagEntry& e : from_values.entries()) {
    EXPECT_EQ(from_cells.CountOf(e.value), e.count);
  }
}

AtomId Id(const char* name) { return GlobalAtomTable().Intern(name); }

TEST(FlatFormsTest, CountsPast2To64And2To100) {
  const Mult big64 = BigNat::TwoPow(64) + Mult(3);
  const Mult big100 = BigNat::TwoPow(100);
  Bag::Builder builder;
  builder.Add(MakeTuple({MakeAtom("ff_b"), MakeAtom("ff_a")}), big100);
  builder.Add(MakeTuple({MakeAtom("ff_a"), MakeAtom("ff_b")}), big64);
  builder.Add(MakeTuple({MakeAtom("ff_a"), MakeAtom("ff_a")}), 1);
  const Bag from_values = *std::move(builder).Build();
  const Bag from_cells =
      FromCells(Type::FlatTuple(2), {{{Id("ff_b"), Id("ff_a")}, big100},
                                     {{Id("ff_a"), Id("ff_b")}, big64},
                                     {{Id("ff_a"), Id("ff_a")}, Mult(1)}});
  ExpectFormsAgree(from_values, from_cells);
  EXPECT_NE(from_cells.ToString().find("*1267650600228229401496703205376"),
            std::string::npos);
}

TEST(FlatFormsTest, NullaryTuples) {
  Bag::Builder builder;
  builder.Add(MakeTuple({}), 5);
  builder.Add(MakeTuple({}), 2);
  const Bag from_values = *std::move(builder).Build();
  const Bag from_cells = FromCells(Type::FlatTuple(0), {{{}, Mult(7)}});
  ExpectFormsAgree(from_values, from_cells);
  EXPECT_EQ(from_cells.ToString(), "{{[]*7}}");
}

TEST(FlatFormsTest, TypedEmptyBags) {
  const Type pair = Type::FlatTuple(2);
  const Bag declared(pair);
  const Bag built = *Bag::Builder(pair).Build();
  const Bag from_cells = FromCells(pair, {});
  ExpectFormsAgree(built, from_cells);
  ExpectFormsAgree(declared, from_cells);
  EXPECT_EQ(ValueToWireJson(Value::FromBag(from_cells)),
            "{\"bag\":{\"type\":\"{{[U, U]}}\",\"entries\":[]}}");
  // Equality ignores the element type; the printers do not.
  EXPECT_TRUE(from_cells == Bag());
}

TEST(FlatFormsTest, NestedTupleShapes) {
  const Value ab = MakeTuple({MakeAtom("ff_a"), MakeAtom("ff_b")});
  const Value ba = MakeTuple({MakeAtom("ff_b"), MakeAtom("ff_a")});
  Bag::Builder builder;
  builder.Add(MakeTuple({ba, MakeAtom("ff_c")}), 2);
  builder.Add(MakeTuple({ab, MakeAtom("ff_c")}), 1);
  builder.Add(MakeTuple({ab, MakeAtom("ff_a")}), 4);
  const Bag from_values = *std::move(builder).Build();
  const Type shape = Type::Tuple({Type::FlatTuple(2), Type::Atom()});
  const Bag from_cells =
      FromCells(shape, {{{Id("ff_b"), Id("ff_a"), Id("ff_c")}, Mult(2)},
                        {{Id("ff_a"), Id("ff_b"), Id("ff_c")}, Mult(1)},
                        {{Id("ff_a"), Id("ff_b"), Id("ff_a")}, Mult(4)}});
  ExpectFormsAgree(from_values, from_cells);
  // [a, [b, c]] has the same cells but another shape: never equal.
  const Type other = Type::Tuple({Type::Atom(), Type::FlatTuple(2)});
  const Bag reshaped =
      FromCells(other, {{{Id("ff_b"), Id("ff_a"), Id("ff_c")}, Mult(2)},
                        {{Id("ff_a"), Id("ff_b"), Id("ff_c")}, Mult(1)},
                        {{Id("ff_a"), Id("ff_b"), Id("ff_a")}, Mult(4)}});
  EXPECT_FALSE(reshaped == from_cells);
  EXPECT_NE(reshaped.Compare(from_cells), 0);
  EXPECT_EQ(reshaped.Compare(from_cells), -from_cells.Compare(reshaped));
  EXPECT_TRUE(from_cells.CountOf(reshaped.ElementAt(0)).IsZero());
}

TEST(FlatFormsTest, PowersetSubbags) {
  const Bag base = MakeBag({{MakeAtom("ff_p"), 2}, {MakeAtom("ff_q"), 1}});
  auto power = Powerset(base);
  ASSERT_TRUE(power.ok());
  ASSERT_EQ(power->DistinctCount(), 6u);
  for (const BagEntry& e : power->entries()) {
    const Bag& sub = e.value.bag();
    std::map<std::vector<AtomId>, Mult> rows;
    Bag::Builder builder(Type::Atom());
    for (size_t i = 0; i < sub.DistinctCount(); ++i) {
      rows[{sub.flat_rows()->row(i)[0]}] = sub.CountAt(i);
      builder.Add(sub.ElementAt(i), sub.CountAt(i));
    }
    ExpectFormsAgree(*std::move(builder).Build(),
                     FromCells(Type::Atom(), rows));
  }
  EXPECT_EQ(power->ToString(),
            "{{{{}}, {{ff_p}}, {{ff_p, ff_q}}, {{ff_p*2}}, {{ff_p*2, ff_q}}, "
            "{{ff_q}}}}");
}

TEST(FlatFormsTest, RowOrderIsTheEntryOrder) {
  // Compare on rows must order bags as the Value order of their entries.
  Rng rng(17);
  std::vector<Bag> bags;
  for (int i = 0; i < 24; ++i) {
    Bag::Builder builder;
    for (int k = 0; k < 3; ++k) {
      builder.Add(MakeTuple({MakeAtom(rng.Coin(0.5) ? "ff_a" : "ff_b"),
                             MakeAtom(rng.Coin(0.5) ? "ff_c" : "ff_a")}),
                  rng.Range(1, 3));
    }
    bags.push_back(*std::move(builder).Build());
  }
  for (const Bag& x : bags) {
    for (const Bag& y : bags) {
      int want = 0;
      const auto& ex = x.entries();
      const auto& ey = y.entries();
      for (size_t i = 0; want == 0 && i < std::min(ex.size(), ey.size());
           ++i) {
        want = ex[i].value.Compare(ey[i].value);
        if (want == 0) want = ex[i].count.Compare(ey[i].count);
      }
      if (want == 0 && ex.size() != ey.size()) {
        want = ex.size() < ey.size() ? -1 : 1;
      }
      EXPECT_EQ(x.Compare(y), want) << x << " vs " << y;
      EXPECT_EQ(x.SubBagOf(y), [&] {
        for (const BagEntry& e : ex) {
          if (y.CountOf(e.value) < e.count) return false;
        }
        return true;
      }()) << x << " vs " << y;
    }
  }
}

TEST(FlatFormsTest, EntriesViewIsBuiltOnceAndCounted) {
  auto views = [] {
    return obs::GlobalMetrics().GetCounter("kernel.entries_views")->value();
  };
  const Bag bag = MakeBag({{MakeAtom("ff_x"), 2}, {MakeAtom("ff_y"), 1}});
  const uint64_t before = views();
  EXPECT_EQ(bag.ToString(), "{{ff_x*2, ff_y}}");
  EXPECT_EQ(views(), before);
  const std::vector<BagEntry>& entries = bag.entries();
  EXPECT_EQ(views(), before + 1);
  const Bag copy = bag;
  EXPECT_EQ(&copy.entries(), &entries);
  EXPECT_EQ(views(), before + 1);
  EXPECT_EQ(entries[0].value, MakeAtom("ff_x"));
  EXPECT_EQ(entries[1].count, Mult(1));
}

/// Atoms for the row-format cases: names that need each JSON escape, a
/// multi-byte UTF-8 name, names of 1, 15, 16, 17 and 300 bytes (the edges
/// of the short copies), and an id the table never interned ("#<id>").
std::vector<AtomId> RowFormatAtoms() {
  std::vector<AtomId> ids;
  for (const std::string& name :
       {std::string("rf\"q"), std::string("rf\\b"), std::string("rf\nn"),
        std::string("rf\tt"), std::string("rf\x01"), std::string("rf\x1f"),
        std::string("rf_\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80"),
        std::string("x"),
        std::string(15, 'f'), std::string(16, 's'), std::string(17, 'v'),
        std::string(300, 'h')}) {
    ids.push_back(GlobalAtomTable().Intern(name));
  }
  const AtomId never = 4000000000u;
  EXPECT_FALSE(GlobalAtomTable().NameView(never).has_value());
  ids.push_back(never);
  return ids;
}

/// Every encoder of `bag` writes the bytes of the Value printers over its
/// entries: text, JSON, streamed JSON (with a prefix and a suffix, at
/// three budgets, and chunked in place), BAG1, and both envelopes.
void ExpectEncodersWriteTheEntriesBytes(const Bag& bag) {
  const Value v = Value::FromBag(bag);
  const std::string text = EntriesText(bag);
  const std::string json = EntriesJson(bag);
  EXPECT_EQ(bag.ToString(), text);
  EXPECT_EQ(v.ToString(), text);
  EXPECT_EQ(ValueToWireJson(v), json);
  EXPECT_EQ(ValueToWireBinary(v), EntriesBinary(bag));
  for (const size_t budget : {size_t{1}, kStreamSliceBytes,
                              std::numeric_limits<size_t>::max()}) {
    WireJsonStreamer streamer("{\"pre\":", v, "}");
    std::string streamed;
    while (streamer.Produce(budget, &streamed)) {
    }
    EXPECT_EQ(streamed, "{\"pre\":" + json + "}") << "budget " << budget;
  }
  // In-place chunks are the chunks of Produce slices.
  WireJsonStreamer in_place("{\"pre\":", v, "}");
  WireJsonStreamer by_slice("{\"pre\":", v, "}");
  std::string chunked = "head";
  while (AppendStreamChunk(in_place, &chunked)) {
  }
  std::string expected = "head";
  for (bool more = true; more;) {
    std::string slice;
    more = by_slice.Produce(kStreamSliceBytes, &slice);
    AppendHttpChunk(slice, &expected);
  }
  AppendHttpLastChunk(&expected);
  EXPECT_EQ(chunked, expected);
  // Both envelopes, written into one buffer, are the composed bytes.
  const Envelope envelope = SuccessEnvelope("rf", text, v, 7);
  HttpResponse json_response;
  json_response.body = "{\"ok\":true,\"outcome\":\"ok\",\"session\":\"rf\","
                       "\"output\":" +
                       obs::JsonQuote(text) + ",\"result\":" + json +
                       ",\"wall_us\":7}";
  EXPECT_EQ(EncodeEnvelope(envelope, WireFormat::kJson, false).bytes,
            FormatHttpResponse(json_response));
  HttpResponse bag1_response;
  bag1_response.content_type = kBag1ContentType;
  bag1_response.body = EncodeFrame(WireFormat::kBinary,
                                   EncodeStatementResponse(envelope.body));
  EXPECT_NE(bag1_response.body.find(EntriesBinary(bag)), std::string::npos);
  EXPECT_EQ(EncodeEnvelope(envelope, WireFormat::kBinary, false).bytes,
            FormatHttpResponse(bag1_response));
}

TEST(FlatFormsTest, RowFormatsWriteTheEntriesBytes) {
  const std::vector<AtomId> atoms = RowFormatAtoms();
  const Mult two64 = BigNat::TwoPow(64);
  const Mult two128 = BigNat::TwoPow(128);
  const std::vector<Mult> counts = {
      Mult(1),         two64.MonusSub(Mult(1)), two64,
      BigNat::TwoPow(127), two128.MonusSub(Mult(1)), two128,
      BigNat::TwoPow(200)};
  const Type u = Type::Atom();
  const std::vector<Type> shapes = {
      u, Type::FlatTuple(0), Type::FlatTuple(3),
      Type::Tuple({Type::FlatTuple(2), u}),
      Type::Tuple({u, Type::Tuple({u, Type::Tuple({u})})})};
  for (const Type& shape : shapes) {
    SCOPED_TRACE(shape.ToString());
    const size_t width = CellWidth(shape);
    std::map<std::vector<AtomId>, Mult> rows;
    size_t n = 0;
    if (width == 0) rows[{}] = counts[1];
    if (width == 1) {
      for (const AtomId a : atoms) rows[{a}] = counts[n++ % counts.size()];
    }
    if (width == 3) {
      for (const AtomId a : atoms) {
        for (const AtomId b : atoms) {
          for (size_t c = 0; c < atoms.size(); c += 5) {
            rows[{a, b, atoms[c]}] = counts[n++ % counts.size()];
          }
        }
      }
    }
    ExpectEncodersWriteTheEntriesBytes(FromCells(shape, rows));
    // Each count alone, on the first row.
    for (const Mult& count : counts) {
      std::map<std::vector<AtomId>, Mult> one;
      one[rows.begin()->first] = count;
      ExpectEncodersWriteTheEntriesBytes(FromCells(shape, one));
    }
  }
}

// Buffers are sized from the first row, which a client picks: interned
// first, a long name sorts first. One 256 KiB name before 20000 short rows
// guesses about 5 GB; every encoder must still reserve about what it
// writes, not the guess.
TEST(FlatFormsTest, GuessedSizesReserveABoundedBuffer) {
  const AtomId long_name =
      GlobalAtomTable().Intern("guess_" + std::string(256 * 1024, 'g'));
  std::map<std::vector<AtomId>, Mult> rows;
  rows[{long_name}] = Mult(1);
  for (AtomId i = 0; i < 20000; ++i) {
    rows[{4000000000u + i}] = Mult(2);  // never interned: "#<id>"
  }
  const Bag bag = FromCells(Type::Atom(), rows);
  ASSERT_EQ(bag.flat_rows()->row(0)[0], long_name);
  const Value v = Value::FromBag(bag);
  constexpr size_t kBound = 4 * kMaxGuessedReserveBytes;
  EXPECT_GT(EstimateWireBytes(v, WireFormat::kJson), 1000 * kBound);
  EXPECT_LE(bag.ToString().capacity(), kBound);
  EXPECT_LE(ValueToWireJson(v).capacity(), kBound);
  EXPECT_LE(ValueToWireBinary(v).capacity(), kBound);
  const Envelope envelope = SuccessEnvelope("guess", "out", v, 7);
  for (const WireFormat format : {WireFormat::kJson, WireFormat::kBinary}) {
    const EncodedEnvelope encoded =
        EncodeEnvelope(envelope, format, /*close=*/false);
    EXPECT_EQ(encoded.outcome, "ok");
    EXPECT_LE(encoded.bytes.capacity(), kBound);
  }
}

TEST(WireTest, BagTypeMustBeAString) {
  auto typed = ParseJson(
      R"js({"bag":{"type":7,"entries":[{"v":{"atom":"a"},"n":"1"}]}})js");
  ASSERT_TRUE(typed.ok()) << typed.status();
  auto value = WireJsonToValue(*typed);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kParseError);
  EXPECT_EQ(value.status().message(), "wire: bag \"type\" must be a string");

  // An absent "type" keeps its default: an untyped bag.
  auto untyped = ParseJson(R"js({"bag":{"entries":[]}})js");
  ASSERT_TRUE(untyped.ok()) << untyped.status();
  auto bag = WireJsonToValue(*untyped);
  ASSERT_TRUE(bag.ok()) << bag.status();
  ASSERT_TRUE(bag->IsBag());
  EXPECT_TRUE(bag->bag().entries().empty());
}

// Golden printer bytes. The text renderer, the wire JSON encoder, the
// chunked streamer and the BAG1 response envelope each print the same
// fixture: atom names holding a quote, a backslash, a control byte and
// multi-byte UTF-8; an id the table never interned (printed "#<id>"); a
// bag of bags; a tuple of arity 0; and counts 1, 2^64-1, 2^64 and 2^100.
// Every response body, `output` string and BAG1 frame depends on these
// bytes, so a change to how atoms or counts are printed must keep them.
struct PrinterFixture {
  AtomTable table;
  Value atoms;   // a bag root: the streamer slices it entry by entry
  Value nested;  // a tuple root holding every other shape
};

const PrinterFixture& Printers() {
  static const PrinterFixture* fixture = [] {
    auto* f = new PrinterFixture();
    const AtomId quote = f->table.Intern("say \"hi\"");
    const AtomId slash = f->table.Intern("back\\slash");
    const AtomId control = f->table.Intern(std::string("bell\x07tab\t", 9));
    const AtomId utf8 = f->table.Intern("caf\xC3\xA9 \xE2\x9C\x93");
    const AtomId never = 1000;  // above every id the table handed out
    Bag::Builder atoms(Type::Atom());
    atoms.Add(Value::Atom(quote), 1);
    atoms.Add(Value::Atom(slash), BigNat(~uint64_t{0}));
    atoms.Add(Value::Atom(control), BigNat::TwoPow(64));
    atoms.Add(Value::Atom(utf8), BigNat::TwoPow(100));
    atoms.Add(Value::Atom(never), 2);
    f->atoms = Value::FromBag(*std::move(atoms).Build());

    Bag::Builder inner(Type::Atom());
    inner.Add(Value::Atom(utf8), 3);
    inner.Add(Value::Atom(never), 1);
    Bag::Builder bags(Type::Bag(Type::Atom()));
    bags.Add(Value::FromBag(*std::move(inner).Build()), 2);
    bags.Add(f->atoms, BigNat::TwoPow(64));
    f->nested = Value::Tuple({Value::Tuple({}), Value::Atom(quote),
                              Value::FromBag(*std::move(bags).Build())});
    return f;
  }();
  return *fixture;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::string Streamed(const Value& value, const AtomTable& table,
                     size_t budget) {
  WireJsonStreamer streamer("{\"result\":", value, ",\"ok\":true}", &table);
  std::string out;
  while (streamer.Produce(budget, &out)) {
  }
  return out;
}

TEST(PrinterParityTest, TextRenderingIsByteIdentical) {
  const PrinterFixture& f = Printers();
  EXPECT_EQ(f.atoms.ToString(&f.table),
            "{{say \"hi\", back\\slash*18446744073709551615, bell\x07tab\t*1844"
            "6744073709551616, caf\xC3\xA9 \xE2\x9C\x93*12676506002282294014967"
            "03205376, #1000*2}}");
  EXPECT_EQ(f.nested.ToString(&f.table),
            "[[], say \"hi\", {{{{say \"hi\", back\\slash*18446744073709551615,"
            " bell\x07tab\t*18446744073709551616, caf\xC3\xA9 \xE2\x9C\x93*1267"
            "650600228229401496703205376, #1000*2}}*18446744073709551616, {{caf"
            "\xC3\xA9 \xE2\x9C\x93*3, #1000}}*2}}]");
}

TEST(PrinterParityTest, WireJsonAndStreamingAreByteIdentical) {
  const PrinterFixture& f = Printers();
  const std::string atoms_json =
      "{\"bag\":{\"type\":\"{{U}}\",\"entries\":[{\"v\":{\"atom\":\"say "
      "\\\"hi\\\"\"},\"n\":\"1\"},{\"v\":{\"atom\":\"back\\\\slash\"},\"n"
      "\":\"18446744073709551615\"},{\"v\":{\"atom\":\"bell\\u0007tab\\t"
      "\"},\"n\":\"18446744073709551616\"},{\"v\":{\"atom\":\"caf\xC3\xA9"
      " \xE2\x9C\x93\"},\"n\":\"1267650600228229401496703205376\"},{\"v\""
      ":{\"atom\":\"#1000\"},\"n\":\"2\"}]}}";
  const std::string nested_json =
      "{\"tuple\":[{\"tuple\":[]},{\"atom\":\"say \\\"hi\\\"\"},{\"bag\":"
      "{\"type\":\"{{{{U}}}}\",\"entries\":[{\"v\":{\"bag\":{\"type\":\"{"
      "{U}}\",\"entries\":[{\"v\":{\"atom\":\"say \\\"hi\\\"\"},\"n\":\"1"
      "\"},{\"v\":{\"atom\":\"back\\\\slash\"},\"n\":\"184467440737095516"
      "15\"},{\"v\":{\"atom\":\"bell\\u0007tab\\t\"},\"n\":\"184467440737"
      "09551616\"},{\"v\":{\"atom\":\"caf\xC3\xA9 \xE2\x9C\x93\"},\"n\":"
      "\"1267650600228229401496703205376\"},{\"v\":{\"atom\":\"#1000\"},"
      "\"n\":\"2\"}]}},\"n\":\"18446744073709551616\"},{\"v\":{\"bag\":{"
      "\"type\":\"{{U}}\",\"entries\":[{\"v\":{\"atom\":\"caf\xC3\xA9 "
      "\xE2\x9C\x93\"},\"n\":\"3\"},{\"v\":{\"atom\":\"#1000\"},\"n\":\"1"
      "\"}]}},\"n\":\"2\"}]}}]}";
  EXPECT_EQ(ValueToWireJson(f.atoms, &f.table), atoms_json);
  EXPECT_EQ(ValueToWireJson(f.nested, &f.table), nested_json);
  for (const size_t budget : {size_t{1}, size_t{64} << 10}) {
    EXPECT_EQ(Streamed(f.atoms, f.table, budget),
              "{\"result\":" + atoms_json + ",\"ok\":true}")
        << budget;
    EXPECT_EQ(Streamed(f.nested, f.table, budget),
              "{\"result\":" + nested_json + ",\"ok\":true}")
        << budget;
  }
}

TEST(PrinterParityTest, Bag1ResponseIsByteIdentical) {
  const PrinterFixture& f = Printers();
  WireStatementResponse response;
  response.ok = true;
  response.outcome = "ok";
  response.output = f.nested.ToString(&f.table);
  response.wall_us = 42;
  response.has_result = true;
  response.result = f.nested;
  EXPECT_EQ(Hex(EncodeStatementResponse(response, &f.table)),
            "01020000006f6bc40000005b5b5d2c2073617920226869222c207b7b7b7b7361"
            "7920226869222c206261636b5c736c6173682a31383434363734343037333730"
            "393535313631352c2062656c6c07746162092a31383434363734343037333730"
            "393535313631362c20636166c3a920e29c932a31323637363530363030323238"
            "3232393430313439363730333230353337362c2023313030302a327d7d2a3138"
            "3434363734343037333730393535313631362c207b7b636166c3a920e29c932a"
            "332c2023313030307d7d2a327d7d5d2a00000000000000010203000000020000"
            "00000108000000736179202268692203050000007b7b557d7d02000000000000"
            "0003010000005505000000000000000108000000736179202268692200010000"
            "0000000000010a0000006261636b5c736c61736800ffffffffffffffff010900"
            "000062656c6c0774616209011400000031383434363734343037333730393535"
            "313631360109000000636166c3a920e29c93011f000000313236373635303630"
            "3032323832323934303134393637303332303533373601050000002331303030"
            "0002000000000000000114000000313834343637343430373337303935353136"
            "313603010000005502000000000000000109000000636166c3a920e29c930003"
            "0000000000000001050000002331303030000100000000000000000200000000"
            "00000000000000000000000000000000");
}

TEST(WireTest, FrameRoundTrips) {
  const std::string payload = "{\"atom\":\"x\"}";
  const std::string frame = EncodeFrame(WireFormat::kJson, payload);
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  size_t consumed = 0;
  auto decoded = DecodeFrame(frame, &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(decoded->payload, payload);
  EXPECT_EQ(decoded->format, WireFormat::kJson);
}

TEST(WireTest, FrameDecodeIsDefensive) {
  const std::string frame = EncodeFrame(WireFormat::kJson, "payload");
  size_t consumed = 0;
  // A prefix is retryable (kUnavailable), not an error.
  auto partial = DecodeFrame(std::string_view(frame).substr(0, 5), &consumed);
  ASSERT_FALSE(partial.ok());
  EXPECT_EQ(partial.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(consumed, 0u);
  // Wrong magic fails immediately, even on a short buffer.
  auto bad = DecodeFrame("XXXX", &consumed);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  // An absurd length is refused before any allocation.
  std::string huge = frame.substr(0, kFrameHeaderBytes);
  huge[8] = '\xFF';
  huge[9] = '\xFF';
  huge[10] = '\xFF';
  huge[11] = '\x7F';
  auto oversized = DecodeFrame(huge, &consumed);
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kParseError);
}

// ------------------------------------------------------------------ http

TEST(HttpTest, StatusMappingFollowsRetryabilityContract) {
  // The three retryable codes map to statuses clients may retry; every
  // permanent code maps to one they must not.
  for (const StatusCode code :
       {StatusCode::kDeadlineExceeded, StatusCode::kCancelled,
        StatusCode::kUnavailable}) {
    EXPECT_TRUE(IsRetryable(code));
    const int http = HttpStatusForCode(code);
    EXPECT_TRUE(http == 429 || http == 499 || http == 503 || http == 504)
        << http;
  }
  EXPECT_EQ(HttpStatusForCode(StatusCode::kBudgetExceeded), 422);
  EXPECT_FALSE(IsRetryable(StatusCode::kBudgetExceeded));
  EXPECT_EQ(HttpStatusForCode(StatusCode::kResourceExhausted), 507);
  EXPECT_FALSE(IsRetryable(StatusCode::kResourceExhausted));
  EXPECT_EQ(HttpStatusForCode(StatusCode::kParseError), 400);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kOk), 200);
}

// Parses one complete request out of `bytes`.
Result<HttpRequest> ParseOne(std::string_view bytes, HttpLimits limits = {}) {
  HttpReader reader(limits);
  reader.Feed(bytes);
  HttpRequest request;
  BAGALG_ASSIGN_OR_RETURN(bool complete, reader.Next(&request));
  if (!complete) return Status::Unavailable("incomplete request");
  return request;
}

TEST(HttpTest, ParsesRequestWithBody) {
  auto request = ParseOne(
      "POST /v1/statement?x=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length: 5\r\n"
      "\r\n"
      "hello");
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->method, "POST");
  EXPECT_EQ(request->path, "/v1/statement");
  EXPECT_EQ(request->query, "x=1");
  EXPECT_EQ(request->headers.at("host"), "localhost");
  EXPECT_EQ(request->body, "hello");
}

TEST(HttpTest, RejectsOversizedBody) {
  HttpLimits limits;
  limits.max_body_bytes = 4;
  auto request = ParseOne(
      "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789", limits);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kResourceExhausted);
}

TEST(HttpTest, RejectsMalformedRequestLine) {
  auto request = ParseOne("GARBAGE\r\n\r\n");
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------- server

// Minimal blocking HTTP client for loopback tests: one request per
// connection (Connection: close), returns status line + body.
struct ClientResponse {
  int status = 0;
  std::string body;
  std::string raw;
};

ClientResponse Fetch(uint16_t port, const std::string& method,
                     const std::string& path, const std::string& body) {
  ClientResponse out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return out;
  }
  std::string request = method + " " + path +
                        " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                        "Content-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  if (!WriteAll(fd, request).ok()) {
    ::close(fd);
    return out;
  }
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    out.raw.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  if (out.raw.size() > 12) out.status = std::atoi(out.raw.c_str() + 9);
  const size_t split = out.raw.find("\r\n\r\n");
  if (split != std::string::npos) out.body = out.raw.substr(split + 4);
  return out;
}

ClientResponse PostStatement(uint16_t port, const std::string& json) {
  return Fetch(port, "POST", "/v1/statement", json);
}

TEST(ServerTest, StatementsRunAndSessionsAreIsolated) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  auto let = PostStatement(
      port, R"js({"session":"alpha","statement":"let X = {{a, a, b}}"})js");
  EXPECT_EQ(let.status, 200) << let.raw;
  EXPECT_NE(let.body.find("\"outcome\":\"ok\""), std::string::npos);

  auto eval = PostStatement(
      port, R"js({"session":"alpha","statement":"eval uplus(X, X)"})js");
  EXPECT_EQ(eval.status, 200) << eval.raw;
  EXPECT_NE(eval.body.find("\"result\":{\"bag\""), std::string::npos);
  EXPECT_NE(eval.body.find("\"n\":\"4\""), std::string::npos);

  // A different session must not see alpha's database.
  auto other = PostStatement(
      port, R"js({"session":"beta","statement":"eval uplus(X, X)"})js");
  EXPECT_EQ(other.status, 404) << other.raw;
  EXPECT_NE(other.body.find("NotFound"), std::string::npos);

  (*server)->RequestShutdown();
  (*server)->Wait();
  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 1u);
}

TEST(ServerTest, ExecResultTypeHeadersFollowTheRows) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();
  auto let = PostStatement(port, R"js({"session":"t","statement":)js"
                                 R"js("let R = {{[a, b]*2, [b, c]}}"})js");
  EXPECT_EQ(let.status, 200) << let.raw;
  // An empty exec result is typed Bottom on the wire.
  auto empty = PostStatement(
      port, R"js({"session":"t","statement":"exec monus(R, R)"})js");
  EXPECT_EQ(empty.status, 200) << empty.raw;
  EXPECT_NE(empty.body.find(R"js("result":{"bag":{"type":"{{_}}",)js"
                            R"js("entries":[]})js"),
            std::string::npos)
      << empty.body;
  // Nested-tuple and atom rows carry their own element types.
  auto nested = PostStatement(
      port, R"js({"session":"t","statement":"exec map(x -> )js"
            R"js(tup(tup(proj(2, x), proj(1, x)), proj(1, x)), R)"})js");
  EXPECT_EQ(nested.status, 200) << nested.raw;
  EXPECT_NE(nested.body.find(R"js("type":"{{[[U, U], U]}}")js"),
            std::string::npos)
      << nested.body;
  auto atoms = PostStatement(port, R"js({"session":"t",)js"
                                   R"js("statement":"exec map(x -> )js"
                                   R"js(proj(1, x), R)"})js");
  EXPECT_EQ(atoms.status, 200) << atoms.raw;
  EXPECT_NE(atoms.body.find(R"js("type":"{{U}}")js"), std::string::npos)
      << atoms.body;
  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, BudgetRefusalIsTypedAndPermanent) {
  ServerOptions options;
  options.cost_budget = 1000;  // pow({{..16 atoms..}}) estimates 2^16 >> 1000
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  PostStatement(port,
                R"js({"session":"b","statement":)js"
                R"js("let X = {{a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p}}"})js");
  auto refused =
      PostStatement(port, R"js({"session":"b","statement":"eval pow(X)"})js");
  EXPECT_EQ(refused.status, 422) << refused.raw;
  EXPECT_NE(refused.body.find("\"outcome\":\"budget-refused\""),
            std::string::npos)
      << refused.body;
  EXPECT_NE(refused.body.find("\"retryable\":false"), std::string::npos);

  // Small statements still run: the session survived the refusal.
  auto ok = PostStatement(port, R"js({"session":"b","statement":"count X"})js");
  EXPECT_EQ(ok.status, 200) << ok.raw;

  (*server)->RequestShutdown();
  (*server)->Wait();
  EXPECT_EQ((*server)->stats().refused, 1u);
}

TEST(ServerTest, DeadlineTripReturns504WithFlightDump) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  PostStatement(port,
                R"js({"session":"t","statement":)js"
                R"js("let X = {{a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p}}"})js");
  auto tripped = PostStatement(
      port,
      R"js({"session":"t","statement":"eval pow(pow(X))","timeout_ms":30})js");
  EXPECT_EQ(tripped.status, 504) << tripped.raw;
  EXPECT_NE(tripped.body.find("\"outcome\":\"deadline\""), std::string::npos);
  EXPECT_NE(tripped.body.find("\"retryable\":true"), std::string::npos);
  EXPECT_NE(tripped.body.find("\"flight\""), std::string::npos);
  EXPECT_NE(tripped.raw.find("Retry-After"), std::string::npos);

  // The session survives its trip — REPL semantics.
  auto ok = PostStatement(port, R"js({"session":"t","statement":"count X"})js");
  EXPECT_EQ(ok.status, 200) << ok.raw;

  (*server)->RequestShutdown();
  (*server)->Wait();
  EXPECT_EQ((*server)->stats().tripped, 1u);
}

TEST(ServerTest, SessionCapSheds) {
  ServerOptions options;
  options.max_sessions = 1;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  auto first =
      PostStatement(port, R"js({"session":"one","statement":"count '{{a}}"})js");
  EXPECT_EQ(first.status, 200) << first.raw;
  auto second =
      PostStatement(port, R"js({"session":"two","statement":"count '{{a}}"})js");
  EXPECT_EQ(second.status, 503) << second.raw;
  EXPECT_NE(second.body.find("\"retryable\":true"), std::string::npos);
  EXPECT_NE(second.raw.find("Retry-After"), std::string::npos);

  // Closing the resident session frees the slot.
  auto closed =
      Fetch(port, "POST", "/v1/session/close", R"js({"session":"one"})js");
  EXPECT_EQ(closed.status, 200) << closed.raw;
  auto third =
      PostStatement(port, R"js({"session":"two","statement":"count '{{a}}"})js");
  EXPECT_EQ(third.status, 200) << third.raw;

  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, MalformedRequestsAreTyped400s) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  EXPECT_EQ(PostStatement(port, "{not json").status, 400);
  EXPECT_EQ(PostStatement(port, R"js({"statement": 7})js").status, 400);
  EXPECT_EQ(
      PostStatement(port,
                    R"js({"session":"../etc","statement":"count '{{a}}"})js")
          .status,
      400);
  EXPECT_EQ(Fetch(port, "GET", "/nope", "").status, 404);
  EXPECT_EQ(Fetch(port, "GET", "/v1/statement", "").status, 405);

  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, ObservabilityEndpointsServe) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  PostStatement(port, R"js({"session":"obs","statement":"count '{{a, b}}"})js");

  auto health = Fetch(port, "GET", "/healthz", "");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"serving\""), std::string::npos);
  EXPECT_NE(health.body.find("\"build\""), std::string::npos);
  EXPECT_NE(health.body.find("\"engine_default\""), std::string::npos);

  auto metrics = Fetch(port, "GET", "/metrics", "");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE bagalg_server_requests_total counter"),
            std::string::npos);

  auto trace = Fetch(port, "GET", "/trace", "");
  EXPECT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("\"id\":\"obs\""), std::string::npos);
  EXPECT_NE(trace.body.find("\"outcome\":\"ok\""), std::string::npos);

  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, DrainCancelsInFlightAndFlushesJournals) {
  ServerOptions options;
  options.journal_dir = ::testing::TempDir();
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  PostStatement(port,
                R"js({"session":"drain","statement":)js"
                R"js("let X = {{[a],[b],[c],[d],[e],[f],[g],[h],[i],[j],)js"
                R"js([k],[l],[m],[n],[o],[p],[q],[r],[s],[t],[u],[v],[w],)js"
                R"js([x],[y],[z],[a1],[b1],[c1],[d1]}}"})js");
  PostStatement(port,
                R"js({"session":"drain","statement":)js"
                R"js("let Y = {{y1,y2,y3,y4,y5,y6,y7,y8,y9,y10,y11,y12}}"})js");

  // A statement that runs for many seconds, launched from a helper thread;
  // the drain below must cancel it rather than wait it out. It builds two
  // powersets of 2^12 and 2^13 subbags for each of the 900 pairs of X and
  // keeps none, so it stays far from every kernel cap and holds little
  // memory.
  ClientResponse slow;
  std::thread in_flight([&] {
    slow = PostStatement(
        port, R"js({"session":"drain","statement":"count sel(p -> )js"
              R"js(pow(uplus(Y, bag(proj(1, p)))) == pow(Y), prod(X, X))"})js");
  });
  // Give it time to pass admission and start executing.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  (*server)->RequestShutdown();
  (*server)->Wait();
  in_flight.join();

  // The in-flight statement ended in a typed outcome: cancelled by the
  // drain (or, if the race went the other way, shed before starting).
  EXPECT_TRUE(slow.status == 499 || slow.status == 503 || slow.status == 0)
      << slow.raw;
  if (slow.status == 499) {
    EXPECT_NE(slow.body.find("\"outcome\":\"cancel\""), std::string::npos);
  }

  // The session journal was flushed on drain.
  const std::string path =
      options.journal_dir + "/session-drain.jsonl";
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << path;
  char first[16] = {};
  EXPECT_GT(std::fread(first, 1, sizeof(first) - 1, f), 0u);
  std::fclose(f);
  EXPECT_EQ(std::string(first).substr(0, 10), "{\"header\":");

  // After drain every new connection is refused or reset — the listener
  // is gone.
  auto after = Fetch(port, "GET", "/healthz", "");
  EXPECT_EQ(after.status, 0);
}

// A close takes the session out of the server's map at once, while its
// statement still runs on a lane. Drain must cancel that statement too,
// not wait for it to hit the powerset cap.
TEST(ServerTest, DrainCancelsAStatementOfAClosedSession) {
  ServerOptions options;
  options.executors = 2;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  const ClientResponse let = PostStatement(
      port, R"js({"session":"gone","statement":)js"
            R"js("let X = {{a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p,q}}"})js");
  ASSERT_EQ(let.status, 200) << let.raw;
  ClientResponse slow;
  std::thread in_flight([&] {
    slow = PostStatement(
        port, R"js({"session":"gone","statement":"eval pow(pow(X))"})js");
  });
  // The close answers only after the statement ahead of it, so it too
  // runs on a helper thread; the session leaves the map when it arrives.
  ClientResponse closed;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    closed = Fetch(port, "POST", "/v1/session/close",
                   R"js({"session":"gone"})js");
  });
  for (int i = 0; i < 500; ++i) {
    if ((*server)->stats().sessions_live == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ((*server)->stats().sessions_live, 0u);

  (*server)->RequestShutdown();
  (*server)->Wait();
  in_flight.join();
  closer.join();

  EXPECT_EQ(slow.status, 499) << slow.raw;
  EXPECT_NE(slow.body.find("\"outcome\":\"cancel\""), std::string::npos)
      << slow.body;
  EXPECT_EQ(closed.status, 200) << closed.raw;
}

TEST(ServerTest, ConcurrentSessionsSurviveMixedLoad) {
  ServerOptions options;
  options.executors = 4;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 12;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0}, typed_errors{0}, unexpected{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::string session = "mix" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        ClientResponse r;
        switch (i % 3) {
          case 0:
            r = PostStatement(port, "{\"session\":\"" + session +
                                        "\",\"statement\":"
                                        "\"count pow('{{a,b,c}})\"}");
            break;
          case 1:  // parse error: typed 400
            r = PostStatement(port, "{\"session\":\"" + session +
                                        "\",\"statement\":\"eval ((\"}");
            break;
          default:  // deadline trip on a big statement
            r = PostStatement(
                port, "{\"session\":\"" + session +
                          "\",\"statement\":\"count pow(pow('{{a,b,c,d,e,f,"
                          "g,h,i,j,k,l,m,n,o,p}}))\",\"timeout_ms\":10}");
            break;
        }
        if (r.status == 200) {
          ok.fetch_add(1);
        } else if (r.status == 400 || r.status == 504 || r.status == 429 ||
                   r.status == 503 || r.status == 507) {
          typed_errors.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(ok.load() + typed_errors.load(), kThreads * kPerThread);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(typed_errors.load(), 0);

  (*server)->RequestShutdown();
  (*server)->Wait();
  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kThreads * kPerThread));
}

// ------------------------------------------------- HttpReader increments

TEST(HttpReaderTest, TwoRequestsInOneFeedBothParse) {
  // The pipelined-second-request regression: bytes after a parsed body
  // must stay buffered for the next Next(), byte-exact.
  HttpReader reader;
  reader.Feed(
      "POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\none"
      "POST /b HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  HttpRequest first;
  auto got = reader.Next(&first);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(*got);
  EXPECT_EQ(first.path, "/a");
  EXPECT_EQ(first.body, "one");
  EXPECT_GT(reader.buffered_bytes(), 0u);
  HttpRequest second;
  got = reader.Next(&second);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(*got);
  EXPECT_EQ(second.path, "/b");
  EXPECT_EQ(second.body, "hello");
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(HttpReaderTest, ArbitrarySplitBoundariesParseIdentically) {
  // recv never promises request-aligned chunks: feeding the same stream
  // one byte at a time must yield the same two requests. This also walks
  // the head terminator across every possible Feed split.
  const std::string stream =
      "POST /v1/statement HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi"
      "GET /healthz HTTP/1.1\r\n\r\n";
  for (size_t step = 1; step <= 7; ++step) {
    HttpReader reader;
    std::vector<HttpRequest> requests;
    for (size_t off = 0; off < stream.size(); off += step) {
      reader.Feed(stream.substr(off, step));
      while (true) {
        HttpRequest request;
        auto got = reader.Next(&request);
        ASSERT_TRUE(got.ok()) << got.status() << " step=" << step;
        if (!*got) break;
        requests.push_back(std::move(request));
      }
    }
    ASSERT_EQ(requests.size(), 2u) << "step=" << step;
    EXPECT_EQ(requests[0].path, "/v1/statement");
    EXPECT_EQ(requests[0].body, "hi");
    EXPECT_EQ(requests[1].path, "/healthz");
    EXPECT_EQ(requests[1].method, "GET");
  }
}

TEST(HttpReaderTest, PipelinedBytesDoNotCountAgainstNextHeaderCap) {
  // A parsed request's leftovers must never be billed to the *following*
  // request's header cap until they are that request's header bytes.
  HttpLimits limits;
  limits.max_header_bytes = 64;
  HttpReader reader(limits);
  const std::string big_body(48, 'x');
  reader.Feed("POST /a HTTP/1.1\r\nContent-Length: " +
              std::to_string(big_body.size()) + "\r\n\r\n" + big_body +
              "GET /b HTTP/1.1\r\n\r\n");
  HttpRequest request;
  auto got = reader.Next(&request);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(*got);
  got = reader.Next(&request);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(*got);
  EXPECT_EQ(request.path, "/b");
}

TEST(HttpReaderTest, KeepAliveSemantics) {
  HttpReader reader;
  reader.Feed("GET /a HTTP/1.1\r\n\r\n");
  HttpRequest http11;
  ASSERT_TRUE(*reader.Next(&http11));
  EXPECT_FALSE(RequestWantsClose(http11));

  reader.Feed("GET /b HTTP/1.1\r\nConnection: close\r\n\r\n");
  HttpRequest explicit_close;
  ASSERT_TRUE(*reader.Next(&explicit_close));
  EXPECT_TRUE(RequestWantsClose(explicit_close));

  reader.Feed("GET /c HTTP/1.0\r\n\r\n");
  HttpRequest http10;
  ASSERT_TRUE(*reader.Next(&http10));
  EXPECT_FALSE(http10.http11);
  EXPECT_TRUE(RequestWantsClose(http10));
}

TEST(HttpTest, PendingLengthsGiveTheFormattedBytes) {
  HttpResponse response;
  response.extra_headers.emplace_back("Retry-After", "1");
  // Hints with fewer, as many and more digits than the body's length.
  for (const size_t hint :
       {size_t{0}, size_t{7}, size_t{1234}, size_t{99999}}) {
    for (const size_t body : {size_t{0}, size_t{5}, size_t{1000}}) {
      response.body = std::string(body, 'b');
      std::string out = "prev";
      const PendingLength length = BeginHttpResponse(response, hint, &out);
      out += response.body;
      EndHttpResponse(length, &out);
      EXPECT_EQ(out, "prev" + FormatHttpResponse(response))
          << hint << " " << body;
      std::string chunk = "prev";
      const PendingLength size_line = BeginHttpChunk(hint, &chunk);
      chunk += response.body;
      EndHttpChunk(size_line, &chunk);
      std::string want = "prev";
      AppendHttpChunk(response.body, &want);
      EXPECT_EQ(chunk, want) << hint << " " << body;
    }
  }
}

TEST(HttpTest, ChunkedResponseFormatting) {
  HttpResponse resp;
  resp.status = 200;
  std::string wire = FormatHttpResponseHead(resp, /*chunked=*/true, 0);
  EXPECT_NE(wire.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_EQ(wire.find("Content-Length"), std::string::npos);
  AppendHttpChunk("hello ", &wire);
  AppendHttpChunk("", &wire);  // must not emit a stream terminator
  AppendHttpChunk("world", &wire);
  AppendHttpLastChunk(&wire);
  const size_t head_end = wire.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_EQ(wire.substr(head_end + 4),
            "6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n");
}

// ------------------------------------------------------- wire: binary

Value MakeFixtureBag() {
  AtomTable& table = GlobalAtomTable();
  const AtomId a = table.Intern("bin_a");
  const AtomId b = table.Intern("bin_b");
  // {{[bin_a, {{bin_b: 2^100}}]: 3, [bin_b, {{}}]: 1}} — nesting, tuples,
  // an inner bag, and a multiplicity past 2^64 in one fixture.
  Bag::Builder inner_builder(Type::Atom());
  inner_builder.Add(Value::Atom(b), BigNat::TwoPow(100));
  const Value inner = Value::FromBag(*std::move(inner_builder).Build());
  Bag::Builder empty_builder(Type::Atom());
  const Value empty = Value::FromBag(*std::move(empty_builder).Build());
  Bag::Builder outer(Type::Tuple({Type::Atom(), Type::Bag(Type::Atom())}));
  outer.Add(Value::Tuple({Value::Atom(a), inner}), 3);
  outer.Add(Value::Tuple({Value::Atom(b), empty}), 1);
  return Value::FromBag(*std::move(outer).Build());
}

TEST(WireBinaryTest, RoundTripsToBitIdenticalWireJson) {
  const Value original = MakeFixtureBag();
  const std::string binary = ValueToWireBinary(original);
  auto decoded = WireBinaryToValue(binary);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  // Parity oracle: both paths must render the identical canonical wire
  // JSON — same entries, same order, same exact multiplicity digits.
  EXPECT_EQ(ValueToWireJson(*decoded), ValueToWireJson(original));
  // And the JSON path itself round-trips to the same value.
  auto via_json = WireJsonToValue(ValueToWireJson(original));
  ASSERT_TRUE(via_json.ok()) << via_json.status();
  EXPECT_EQ(ValueToWireBinary(*via_json), binary);
}

TEST(WireBinaryTest, HugeMultiplicitySurvivesExactly) {
  const Value fixture = MakeFixtureBag();
  auto decoded = WireBinaryToValue(ValueToWireBinary(fixture));
  ASSERT_TRUE(decoded.ok());
  const std::string json = ValueToWireJson(*decoded);
  EXPECT_NE(json.find("\"1267650600228229401496703205376\""),
            std::string::npos)
      << json;
}

TEST(WireBinaryTest, UntypedEmptyBagRoundTrips) {
  Bag::Builder builder;  // no element type: Bottom, rendered "_"
  const Value empty = Value::FromBag(*std::move(builder).Build());
  auto decoded = WireBinaryToValue(ValueToWireBinary(empty));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(decoded->IsBag());
  EXPECT_TRUE(decoded->bag().entries().empty());
  EXPECT_EQ(ValueToWireJson(*decoded), ValueToWireJson(empty));
}

TEST(WireBinaryTest, DecodeIsDefensive) {
  const std::string binary = ValueToWireBinary(MakeFixtureBag());
  // Every proper prefix must fail cleanly — never crash, never accept.
  for (size_t len = 0; len < binary.size(); ++len) {
    auto truncated = WireBinaryToValue(binary.substr(0, len));
    EXPECT_FALSE(truncated.ok()) << "accepted prefix of " << len;
  }
  // Trailing garbage is rejected: the whole input must be consumed.
  EXPECT_FALSE(WireBinaryToValue(binary + "x").ok());
  // Unknown tag.
  EXPECT_FALSE(WireBinaryToValue(std::string("\x7f", 1)).ok());
  // A nesting bomb past kMaxWireDepth: tuples of arity 1 all the way down.
  std::string bomb;
  for (int i = 0; i < kMaxWireDepth + 4; ++i) {
    bomb += '\x02';
    bomb += std::string("\x01\x00\x00\x00", 4);  // arity 1, LE
  }
  bomb += '\x01';
  bomb += std::string("\x00\x00\x00\x00", 4);  // atom with empty name
  auto deep = WireBinaryToValue(bomb);
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kParseError);
}

TEST(WireBinaryTest, StatementEnvelopesRoundTrip) {
  WireStatementRequest request;
  request.session = "env";
  request.statement = "eval uplus(X, X)";
  request.timeout_ms = 250;
  request.memlimit_bytes = 1 << 20;
  auto request_back = DecodeStatementRequest(EncodeStatementRequest(request));
  ASSERT_TRUE(request_back.ok()) << request_back.status();
  EXPECT_EQ(request_back->session, "env");
  EXPECT_EQ(request_back->statement, "eval uplus(X, X)");
  EXPECT_EQ(request_back->timeout_ms, 250u);
  EXPECT_EQ(request_back->memlimit_bytes, 1u << 20);

  WireStatementResponse response;
  response.ok = true;
  response.outcome = "ok";
  response.output = "{{bin_a: 3}}";
  response.wall_us = 1234;
  response.has_result = true;
  response.result = MakeFixtureBag();
  auto response_back =
      DecodeStatementResponse(EncodeStatementResponse(response));
  ASSERT_TRUE(response_back.ok()) << response_back.status();
  EXPECT_TRUE(response_back->ok);
  EXPECT_EQ(response_back->outcome, "ok");
  EXPECT_EQ(response_back->wall_us, 1234u);
  ASSERT_TRUE(response_back->has_result);
  EXPECT_EQ(ValueToWireJson(response_back->result),
            ValueToWireJson(response.result));

  WireStatementResponse error;
  error.ok = false;
  error.outcome = "deadline";
  error.error_code = "DeadlineExceeded";
  error.error_message = "governor: wall deadline";
  error.retryable = true;
  error.flight = "{\"spans\":[]}";
  auto error_back = DecodeStatementResponse(EncodeStatementResponse(error));
  ASSERT_TRUE(error_back.ok()) << error_back.status();
  EXPECT_FALSE(error_back->ok);
  EXPECT_EQ(error_back->error_code, "DeadlineExceeded");
  EXPECT_TRUE(error_back->retryable);
  EXPECT_EQ(error_back->flight, "{\"spans\":[]}");
}

TEST(WireBinaryTest, StatementBodiesDecodeToOneRequest) {
  WireStatementRequest sent;
  sent.session = "env";
  sent.statement = "count X";
  sent.timeout_ms = 250;
  sent.memlimit_bytes = 4096;
  auto from_bag1 = DecodeStatementBody(
      EncodeFrame(WireFormat::kBinary, EncodeStatementRequest(sent)),
      WireFormat::kBinary);
  auto from_json = DecodeStatementBody(
      R"js({"session":"env","statement":"count X","timeout_ms":250,)js"
      R"js("memlimit_bytes":4096})js",
      WireFormat::kJson);
  for (const auto* got : {&from_bag1, &from_json}) {
    ASSERT_TRUE(got->ok()) << got->status();
    EXPECT_EQ((*got)->session, "env");
    EXPECT_EQ((*got)->statement, "count X");
    EXPECT_EQ((*got)->timeout_ms, 250u);
    EXPECT_EQ((*got)->memlimit_bytes, 4096u);
  }
  // Absent fields take their defaults; an empty BAG1 session is absent.
  sent.session.clear();
  auto bag1_default = DecodeStatementBody(
      EncodeFrame(WireFormat::kBinary, EncodeStatementRequest(sent)),
      WireFormat::kBinary);
  ASSERT_TRUE(bag1_default.ok()) << bag1_default.status();
  EXPECT_EQ(bag1_default->session, kDefaultSession);
  auto json_default =
      DecodeStatementBody(R"js({"statement":"count X"})js", WireFormat::kJson);
  ASSERT_TRUE(json_default.ok()) << json_default.status();
  EXPECT_EQ(json_default->session, kDefaultSession);
  EXPECT_EQ(json_default->timeout_ms, 0u);
  EXPECT_EQ(json_default->memlimit_bytes, 0u);
  // A JSON session that is present but empty stays empty (and is then
  // refused as a session name): only absence means the default.
  auto json_empty = DecodeStatementBody(
      R"js({"session":"","statement":"count X"})js", WireFormat::kJson);
  ASSERT_TRUE(json_empty.ok()) << json_empty.status();
  EXPECT_EQ(json_empty->session, "");
}

TEST(WireBinaryTest, BinaryFramesRoundTrip) {
  const std::string payload = ValueToWireBinary(MakeFixtureBag());
  const std::string frame = EncodeFrame(WireFormat::kBinary, payload);
  size_t consumed = 0;
  auto decoded = DecodeFrame(frame, &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->format, WireFormat::kBinary);
  EXPECT_EQ(decoded->payload, payload);
  // A frame cut mid-payload is retryable (read more), not poison.
  auto short_frame = DecodeFrame(frame.substr(0, frame.size() - 1), &consumed);
  ASSERT_FALSE(short_frame.ok());
  EXPECT_EQ(short_frame.status().code(), StatusCode::kUnavailable);
}

Value AtomBag(const std::string& stem, int entries) {
  Bag::Builder builder(Type::Atom());
  for (int i = 0; i < entries; ++i) {
    builder.Add(Value::Atom(GlobalAtomTable().Intern(stem + std::to_string(i))),
                static_cast<uint64_t>(i + 1));
  }
  return Value::FromBag(*std::move(builder).Build());
}

TEST(WireStreamerTest, ProducesExactlyTheMaterializedJson) {
  const Value fixture = MakeFixtureBag();
  const Value nested = AtomBag("stream_inner_", 500);
  Bag::Builder one_entry(nested.type());
  one_entry.Add(nested, BigNat::TwoPow(70));
  const std::vector<std::pair<std::string, Value>> inputs = {
      {"fixture", fixture},
      {"non-bag root", Value::Tuple({Value::Atom(GlobalAtomTable().Intern(
                                         "stream_a")),
                                     fixture})},
      {"empty bag", AtomBag("stream_none_", 0)},
      {"one large nested entry",
       Value::FromBag(*std::move(one_entry).Build())},
      {"many entries", AtomBag("stream_many_", 300)},
  };
  for (const auto& [name, value] : inputs) {
    const std::string expected =
        "{\"result\":" + ValueToWireJson(value) + ",\"ok\":true}";
    // Any budget must yield identical bytes — only the slicing differs.
    for (const size_t budget :
         {size_t{1}, size_t{7}, size_t{64}, size_t{1 << 20}}) {
      WireJsonStreamer streamer("{\"result\":", value, ",\"ok\":true}");
      std::string produced;
      size_t slices = 1;
      while (streamer.Produce(budget, &produced)) {
        ASSERT_LT(++slices, size_t{100000});
      }
      EXPECT_TRUE(streamer.done());
      EXPECT_EQ(produced, expected) << name << " budget=" << budget;
      if (name == "many entries" && budget <= 7) {
        // Slices end at entry boundaries: the prefix, then one per entry
        // (the last one carrying the tail and suffix).
        EXPECT_EQ(slices, size_t{301}) << budget;
      } else if (name == "many entries" && budget == 64) {
        // Each ~40-byte entry fits once or twice into 64 bytes.
        EXPECT_GE(slices, expected.size() / 128) << budget;
        EXPECT_LE(slices, expected.size() / 64 + 1) << budget;
      }
    }
  }
}

TEST(WireTest, Bag1FrameCapRefusesResultsItWouldPass) {
  const Envelope envelope =
      SuccessEnvelope("cap", "out", AtomBag("frame_cap_", 300), 5);
  const std::string payload = EncodeStatementResponse(envelope.body);
  // At the cap the frame is sent, byte for byte.
  HttpResponse framed;
  framed.content_type = kBag1ContentType;
  framed.body = EncodeFrame(WireFormat::kBinary, payload);
  const EncodedEnvelope at_cap =
      EncodeEnvelope(envelope, WireFormat::kBinary, /*close=*/false,
                     /*stream_entries_threshold=*/0, payload.size());
  EXPECT_EQ(at_cap.bytes, FormatHttpResponse(framed));
  EXPECT_EQ(at_cap.outcome, "ok");
  // One byte past it, the answer is the typed resource error, a 507.
  const EncodedEnvelope past_cap =
      EncodeEnvelope(envelope, WireFormat::kBinary, /*close=*/false,
                     /*stream_entries_threshold=*/0, payload.size() - 1);
  EXPECT_EQ(past_cap.outcome, "error");
  EXPECT_EQ(past_cap.bytes.rfind("HTTP/1.1 507 ", 0), 0u) << past_cap.bytes;
  const std::string body =
      past_cap.bytes.substr(past_cap.bytes.find("\r\n\r\n") + 4);
  size_t consumed = 0;
  auto frame = DecodeFrame(body, &consumed);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(consumed, body.size());
  auto refusal = DecodeStatementResponse(frame->payload);
  ASSERT_TRUE(refusal.ok()) << refusal.status();
  EXPECT_FALSE(refusal->ok);
  EXPECT_FALSE(refusal->has_result);
  EXPECT_EQ(refusal->outcome, "error");
  EXPECT_EQ(refusal->error_code,
            StatusCodeName(StatusCode::kResourceExhausted));
  EXPECT_NE(refusal->error_message.find("frame cap"), std::string::npos);
  // The writer stops at the first entry past the cap and leaves the buffer
  // as it found it, for a flat bag and for a bag of bags alike.
  Bag::Builder base(Type::Atom());
  for (int i = 0; i < 6; ++i) {
    base.AddOne(MakeAtom("frame_cap_pow_" + std::to_string(i)));
  }
  auto power = Powerset(*std::move(base).Build());
  ASSERT_TRUE(power.ok());
  for (const Value& result :
       {envelope.body.result, Value::FromBag(*std::move(power))}) {
    WireStatementResponse response = envelope.body;
    response.result = result;
    std::string out = "kept";
    const Status status = AppendResponseFrame(response, 100, &out);
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(out, "kept");
    EXPECT_TRUE(AppendResponseFrame(response, kMaxFrameBytes, &out).ok());
    EXPECT_EQ(out, "kept" + EncodeFrame(WireFormat::kBinary,
                                        EncodeStatementResponse(response)));
  }
}

// An executor lane encodes the first kLaneEncodeBytes of a streamed body
// and the event loop the rest. Whatever the split, the wire bytes must be
// those the loop alone wrote: one chunk per Produce(kStreamSliceBytes).
TEST(LaneEncodingTest, LanePrefixPlusLoopRestIsTheLoopOnlyBody) {
  const Value result = AtomBag("lane_split_", 12000);
  Envelope envelope =
      SuccessEnvelope("lane", result.ToString(), result, /*wall_us=*/42);
  const auto encode = [&] {
    return EncodeEnvelope(envelope, WireFormat::kJson, /*close=*/false,
                          /*stream_entries_threshold=*/512);
  };

  // The loop-only bytes: the head, then one Produce(kStreamSliceBytes) per
  // chunk, then the last chunk.
  EncodedEnvelope loop_only = encode();
  ASSERT_NE(loop_only.stream, nullptr);
  std::string expected = loop_only.bytes;
  size_t chunks = 0;
  while (true) {
    std::string slice;
    const bool more = loop_only.stream->Produce(kStreamSliceBytes, &slice);
    AppendHttpChunk(slice, &expected);
    ++chunks;
    if (!more) break;
  }
  AppendHttpLastChunk(&expected);
  // The body spans more chunks than the lane encodes, so every budget
  // below splits it somewhere else (or not at all).
  ASSERT_GT(chunks, kLaneEncodeBytes / kStreamSliceBytes + 1);

  // The same body, materialized, is what the chunks carry.
  const std::string materialized =
      EncodeEnvelope(envelope, WireFormat::kJson, false).bytes;
  const std::string body =
      materialized.substr(materialized.find("\r\n\r\n") + 4);
  EXPECT_GT(body.size(), kLaneEncodeBytes);

  for (const size_t budget : {size_t{0}, kStreamSliceBytes, kLaneEncodeBytes,
                              std::numeric_limits<size_t>::max()}) {
    EncodedEnvelope split = encode();
    const size_t head = split.bytes.size();
    PrestreamEncoded(&split, budget);
    if (budget == 0) {
      EXPECT_EQ(split.bytes.size(), head);
    }
    const bool ended = budget == std::numeric_limits<size_t>::max();
    EXPECT_EQ(split.stream == nullptr, ended) << budget;
    std::string wire = std::move(split.bytes);
    while (split.stream != nullptr) {
      if (!AppendStreamChunk(*split.stream, &wire)) split.stream.reset();
    }
    EXPECT_EQ(wire, expected) << "budget=" << budget;

    std::string dechunked;
    size_t at = wire.find("\r\n\r\n") + 4;
    while (true) {
      const size_t line_end = wire.find("\r\n", at);
      const size_t len = std::strtoul(wire.c_str() + at, nullptr, 16);
      if (len == 0) break;
      dechunked.append(wire, line_end + 2, len);
      at = line_end + 2 + len + 2;
    }
    EXPECT_EQ(dechunked, body) << "budget=" << budget;
  }
}

// --------------------------------------------- server: event-loop paths

// A persistent-connection client: sends requests on one socket and parses
// Content-Length and chunked responses incrementally, like a real
// keep-alive peer.
class KeepAliveClient {
 public:
  explicit KeepAliveClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~KeepAliveClient() { Close(); }

  bool connected() const { return fd_ >= 0; }
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  void HalfClose() { ::shutdown(fd_, SHUT_WR); }

  static std::string Request(const std::string& method,
                             const std::string& path, const std::string& body,
                             const std::string& content_type =
                                 "application/json") {
    return method + " " + path + " HTTP/1.1\r\nHost: t\r\nContent-Type: " +
           content_type + "\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
  }

  bool Send(const std::string& bytes) { return WriteAll(fd_, bytes).ok(); }

  // Reads one full response (dechunking if needed). False on EOF or error.
  bool ReadResponse(ClientResponse* out) {
    size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!ReadMore()) return false;
    }
    const std::string head = buf_.substr(0, head_end + 4);
    out->status = std::atoi(head.c_str() + 9);
    std::string lower = head;
    for (char& ch : lower) {
      ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    }
    const size_t body_start = head_end + 4;
    if (lower.find("transfer-encoding: chunked") != std::string::npos) {
      std::string body;
      size_t pos = body_start;
      while (true) {
        size_t line_end;
        while ((line_end = buf_.find("\r\n", pos)) == std::string::npos) {
          if (!ReadMore()) return false;
        }
        const size_t len = std::strtoul(buf_.c_str() + pos, nullptr, 16);
        pos = line_end + 2;
        while (buf_.size() < pos + len + 2) {
          if (!ReadMore()) return false;
        }
        if (len == 0) break;
        body.append(buf_, pos, len);
        pos += len + 2;
      }
      out->body = std::move(body);
      out->raw = buf_.substr(0, pos + 2);
      buf_.erase(0, pos + 2);
      return true;
    }
    size_t len = 0;
    const size_t cl = lower.find("content-length:");
    if (cl != std::string::npos) {
      len = std::strtoul(lower.c_str() + cl + 15, nullptr, 10);
    }
    while (buf_.size() < body_start + len) {
      if (!ReadMore()) return false;
    }
    out->body = buf_.substr(body_start, len);
    out->raw = buf_.substr(0, body_start + len);
    buf_.erase(0, body_start + len);
    return true;
  }

 private:
  bool ReadMore() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

TEST(ServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  KeepAliveClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send(KeepAliveClient::Request(
      "POST", "/v1/statement",
      R"js({"session":"ka","statement":"let X = {{a, a, b}}"})js")));
  ClientResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 200) << r.raw;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Send(KeepAliveClient::Request(
        "POST", "/v1/statement",
        R"js({"session":"ka","statement":"count X"})js")));
    ASSERT_TRUE(client.ReadResponse(&r)) << "request " << i;
    EXPECT_EQ(r.status, 200) << r.raw;
    EXPECT_NE(r.body.find("\"outcome\":\"ok\""), std::string::npos);
  }
  client.Close();

  (*server)->RequestShutdown();
  (*server)->Wait();
  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.keepalive_reuses, 4u);
}

TEST(ServerTest, PipelinedRequestsAnswerInOrder) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  KeepAliveClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  // Three requests in one write: the server must answer all three, in
  // order, on the one connection — statement, statement, inline GET.
  std::string burst;
  burst += KeepAliveClient::Request(
      "POST", "/v1/statement",
      R"js({"session":"pipe","statement":"let X = {{a, a, b}}"})js");
  burst += KeepAliveClient::Request(
      "POST", "/v1/statement",
      R"js({"session":"pipe","statement":"eval uplus(X, X)"})js");
  burst += KeepAliveClient::Request("GET", "/healthz", "");
  ASSERT_TRUE(client.Send(burst));

  ClientResponse first, second, third;
  ASSERT_TRUE(client.ReadResponse(&first));
  ASSERT_TRUE(client.ReadResponse(&second));
  ASSERT_TRUE(client.ReadResponse(&third));
  EXPECT_EQ(first.status, 200) << first.raw;
  EXPECT_NE(first.body.find("\"session\":\"pipe\""), std::string::npos);
  EXPECT_EQ(second.status, 200) << second.raw;
  EXPECT_NE(second.body.find("\"n\":\"4\""), std::string::npos);
  EXPECT_EQ(third.status, 200) << third.raw;
  EXPECT_NE(third.body.find("\"status\":\"serving\""), std::string::npos);
  client.Close();

  (*server)->RequestShutdown();
  (*server)->Wait();
  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_GE(stats.pipelined, 1u);
}

TEST(ServerTest, HalfClosedClientStillGetsItsResponse) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  KeepAliveClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  // shutdown(SHUT_WR) right after the request: the server sees EOF while
  // the statement executes, and must still deliver the response.
  ASSERT_TRUE(client.Send(KeepAliveClient::Request(
      "POST", "/v1/statement",
      R"js({"session":"half","statement":"count '{{a, b}}"})js")));
  client.HalfClose();
  ClientResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 200) << r.raw;
  EXPECT_NE(r.body.find("\"outcome\":\"ok\""), std::string::npos);

  (*server)->RequestShutdown();
  (*server)->Wait();
  EXPECT_EQ((*server)->stats().io_errors, 0u);
}

TEST(HttpTest, MidRequestEofIsAnIoError) {
  // The reader holds a parsed head that still waits for its body...
  const std::string torn =
      "POST /v1/statement HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort";
  HttpReader reader;
  reader.Feed(torn);
  HttpRequest request;
  auto got = reader.Next(&request);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_FALSE(*got);
  EXPECT_TRUE(reader.mid_request());

  // ...so bagalgd counts an EOF there as a vanished peer: one io error,
  // and the connection closes without an answer.
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  KeepAliveClient client((*server)->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(torn));
  client.HalfClose();
  ClientResponse r;
  EXPECT_FALSE(client.ReadResponse(&r)) << r.raw;
  (*server)->RequestShutdown();
  (*server)->Wait();
  EXPECT_EQ((*server)->stats().io_errors, 1u);
}

TEST(ServerTest, Bag1BinaryStatementsSkipJsonBothWays) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  KeepAliveClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  auto post_bag1 = [&](const std::string& statement,
                       WireStatementResponse* out) {
    WireStatementRequest request;
    request.session = "bin";
    request.statement = statement;
    const std::string body =
        EncodeFrame(WireFormat::kBinary, EncodeStatementRequest(request));
    ASSERT_TRUE(client.Send(KeepAliveClient::Request(
        "POST", "/v1/statement", body, "application/x-bag1")));
    ClientResponse r;
    ASSERT_TRUE(client.ReadResponse(&r));
    EXPECT_EQ(r.status, 200) << r.raw;
    EXPECT_NE(r.raw.find("application/x-bag1"), std::string::npos);
    size_t consumed = 0;
    auto frame = DecodeFrame(r.body, &consumed);
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->format, WireFormat::kBinary);
    EXPECT_EQ(consumed, r.body.size());
    auto decoded = DecodeStatementResponse(frame->payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    *out = std::move(*decoded);
  };

  WireStatementResponse let;
  // 2^64 as a literal multiplicity: the binary path must carry the exact
  // BigNat through uplus, where JSON doubles would have rounded.
  post_bag1("let X = {{a*18446744073709551616}}", &let);
  EXPECT_TRUE(let.ok);
  EXPECT_EQ(let.outcome, "ok");

  WireStatementResponse eval;
  post_bag1("eval uplus(X, X)", &eval);
  EXPECT_TRUE(eval.ok);
  ASSERT_TRUE(eval.has_result);
  ASSERT_TRUE(eval.result.IsBag());
  ASSERT_EQ(eval.result.bag().entries().size(), 1u);
  EXPECT_EQ(eval.result.bag().entries()[0].count.ToString(),
            "36893488147419103232");  // 2^65, exact

  // A truncated frame is a typed 400, and the connection survives it.
  WireStatementRequest request;
  request.session = "bin";
  request.statement = "count X";
  const std::string full =
      EncodeFrame(WireFormat::kBinary, EncodeStatementRequest(request));
  const std::string cut = full.substr(0, full.size() - 2);
  ASSERT_TRUE(client.Send(KeepAliveClient::Request(
      "POST", "/v1/statement", cut, "application/x-bag1")));
  ClientResponse bad;
  ASSERT_TRUE(client.ReadResponse(&bad));
  EXPECT_EQ(bad.status, 400) << bad.raw;
  size_t consumed = 0;
  auto bad_frame = DecodeFrame(bad.body, &consumed);
  ASSERT_TRUE(bad_frame.ok()) << bad_frame.status();
  auto bad_resp = DecodeStatementResponse(bad_frame->payload);
  ASSERT_TRUE(bad_resp.ok()) << bad_resp.status();
  EXPECT_FALSE(bad_resp->ok);

  WireStatementResponse after;
  post_bag1("count X", &after);
  EXPECT_TRUE(after.ok);
  client.Close();

  (*server)->RequestShutdown();
  (*server)->Wait();
  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.bag1_requests, 4u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.errors, 1u);
}

TEST(ServerTest, LargeResultsStreamChunked) {
  ServerOptions options;
  options.stream_entries_threshold = 4;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  KeepAliveClient client((*server)->port());
  ASSERT_TRUE(client.connected());

  // pow({{a,b,c}}) has 8 distinct subbags — over the threshold of 4, so
  // the response must arrive chunked and still be byte-perfect JSON.
  ASSERT_TRUE(client.Send(KeepAliveClient::Request(
      "POST", "/v1/statement",
      R"js({"session":"big","statement":"eval pow('{{a, b, c}})"})js")));
  ClientResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 200) << r.raw;
  EXPECT_NE(r.raw.find("Transfer-Encoding: chunked"), std::string::npos);
  auto doc = ParseJson(r.body);
  ASSERT_TRUE(doc.ok()) << doc.status() << "\n" << r.body;
  const JsonValue* result = doc->Find("result");
  ASSERT_NE(result, nullptr);
  auto value = WireJsonToValue(*result);
  ASSERT_TRUE(value.ok()) << value.status();
  ASSERT_TRUE(value->IsBag());
  EXPECT_EQ(value->bag().entries().size(), 8u);

  // The connection re-arms after a chunked response: keep-alive holds.
  ASSERT_TRUE(client.Send(KeepAliveClient::Request("GET", "/healthz", "")));
  ClientResponse next;
  ASSERT_TRUE(client.ReadResponse(&next));
  EXPECT_EQ(next.status, 200);
  client.Close();

  (*server)->RequestShutdown();
  (*server)->Wait();
  EXPECT_EQ((*server)->stats().streamed_responses, 1u);
}

TEST(ServerTest, EpollMetricsAreExposed) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  PostStatement(port, R"js({"session":"m","statement":"count '{{a}}"})js");
  auto metrics = Fetch(port, "GET", "/metrics", "");
  EXPECT_EQ(metrics.status, 200);
  for (const char* name :
       {"bagalg_server_epoll_fds", "bagalg_server_epoll_ready_depth",
        "bagalg_server_epoll_loop_iter_us", "bagalg_server_conn_state_reading",
        "bagalg_server_conn_state_executing",
        "bagalg_server_conn_state_writing",
        "bagalg_server_http_keepalive_reuses_total",
        "bagalg_server_http_pipelined_total",
        "bagalg_server_wire_bag1_requests_total"}) {
    EXPECT_NE(metrics.body.find(name), std::string::npos) << name;
  }
  // The loop registers at least the listener + wakeup fd.
  EXPECT_GE((*server)->stats().epoll_fds, 2u);

  (*server)->RequestShutdown();
  (*server)->Wait();
}

// The value of a sample in a Prometheus exposition, or -1 when absent.
double PromValue(const std::string& text, const std::string& name) {
  const size_t at = text.find("\n" + name + " ");
  if (at == std::string::npos) return -1;
  return std::strtod(text.c_str() + at + name.size() + 2, nullptr);
}

TEST(ServerTest, ThreadCpuCountersGrowWithWork) {
  ServerOptions options;
  options.executors = 2;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  const char* kLoop = "bagalg_server_thread_loop_cpu_us_total";
  const char* kLane = "bagalg_server_thread_lane_cpu_us_total";
  const std::string before = Fetch(port, "GET", "/metrics", "").body;
  ASSERT_GE(PromValue(before, kLoop), 0) << before;
  ASSERT_GE(PromValue(before, kLane), 0) << before;
  // getrusage(RUSAGE_THREAD) may advance in whole scheduler ticks (4 ms
  // on a 250 Hz kernel), so the statement must use several of them.
  const ClientResponse work = PostStatement(
      port, R"js({"session":"cpu","statement":"count pow('{{a,b,c,d,e,f,)js"
            R"js(g,h,i,j,k,l,m,n}})"})js");
  EXPECT_EQ(work.status, 200) << work.raw;
  const std::string after = Fetch(port, "GET", "/metrics", "").body;
  EXPECT_GT(PromValue(after, kLoop), PromValue(before, kLoop));
  EXPECT_GT(PromValue(after, kLane), PromValue(before, kLane));

  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, ThreadContextSwitchCountersGrowWithWork) {
  ServerOptions options;
  options.executors = 2;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  // The loop blocks in epoll_wait between requests and a lane blocks on
  // the run queue before its first job: both count voluntary switches.
  const char* kLoop = "bagalg_server_thread_loop_voluntary_ctx_switches_total";
  const char* kLane = "bagalg_server_thread_lane_voluntary_ctx_switches_total";
  const std::string before = Fetch(port, "GET", "/metrics", "").body;
  ASSERT_GE(PromValue(before, kLoop), 0) << before;
  ASSERT_GE(PromValue(before, kLane), 0) << before;
  for (int i = 0; i < 3; ++i) {
    const ClientResponse work = PostStatement(
        port, R"js({"session":"csw","statement":"count '{{a, b}}"})js");
    EXPECT_EQ(work.status, 200) << work.raw;
  }
  const std::string after = Fetch(port, "GET", "/metrics", "").body;
  EXPECT_GT(PromValue(after, kLoop), PromValue(before, kLoop));
  EXPECT_GT(PromValue(after, kLane), PromValue(before, kLane));

  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, SurvivesInjectedIoFaults) {
  ServerOptions options;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  fault::FaultSpec spec;
  spec.point = fault::FaultPoint::kIo;
  spec.probability = 0.05;
  spec.seed = 1234;
  fault::Configure(spec);
  int ok = 0, torn = 0;
  for (int i = 0; i < 40; ++i) {
    auto r = PostStatement(
        port, R"js({"session":"chaos","statement":"count '{{a, b}}"})js");
    // Either the statement answered, or injected io tore the connection —
    // nothing in between, and never a hang or crash.
    if (r.status == 200) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, 0) << r.raw;
      ++torn;
    }
  }
  fault::Disarm();

  // The server is intact after the storm.
  auto after = PostStatement(
      port, R"js({"session":"chaos","statement":"count '{{a, b}}"})js");
  EXPECT_EQ(after.status, 200) << after.raw;
  EXPECT_GT(ok, 0);

  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, ConcurrentKeepAliveSessions) {
  ServerOptions options;
  options.executors = 4;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  constexpr int kClients = 16;
  constexpr int kPerClient = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0}, unexpected{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      KeepAliveClient client(port);
      if (!client.connected()) {
        unexpected.fetch_add(kPerClient);
        return;
      }
      const std::string session = "kas" + std::to_string(t);
      for (int i = 0; i < kPerClient; ++i) {
        if (!client.Send(KeepAliveClient::Request(
                "POST", "/v1/statement",
                "{\"session\":\"" + session +
                    "\",\"statement\":\"count pow('{{a,b,c}})\"}"))) {
          unexpected.fetch_add(1);
          continue;
        }
        ClientResponse r;
        if (client.ReadResponse(&r) && r.status == 200) {
          ok.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(ok.load(), kClients * kPerClient);

  (*server)->RequestShutdown();
  (*server)->Wait();
  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.requests,
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.keepalive_reuses,
            static_cast<uint64_t>(kClients * (kPerClient - 1)));
}

TEST(ServerTest, SlowSessionDoesNotDelayOtherSessions) {
  ServerOptions options;
  options.executors = 2;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();
  PostStatement(port,
                R"js({"session":"s","statement":)js"
                R"js("let X = {{a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p}}"})js");

  // Connection A pipelines a slow statement (it runs for hundreds of
  // milliseconds before its deadline or the powerset cap stops it) and a
  // fast one behind it, both for session s.
  KeepAliveClient a(port);
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(a.Send(
      KeepAliveClient::Request(
          "POST", "/v1/statement",
          R"js({"session":"s","statement":"eval pow(pow(X))",)js"
          R"js("timeout_ms":1500})js") +
      KeepAliveClient::Request(
          "POST", "/v1/statement",
          R"js({"session":"s","statement":"eval '{{a}}"})js")));
  std::chrono::steady_clock::time_point a_first_at;
  ClientResponse a_first;
  std::thread a_reader([&] {
    if (a.ReadResponse(&a_first)) {
      a_first_at = std::chrono::steady_clock::now();
    }
  });

  // Wait until both of A's statements are admitted, then until the
  // queue depth (the /healthz gauge) reads 0. s's second statement stays
  // queued behind its session's running one, so the depth need not reach
  // 0 while the slow statement runs: that wait is bounded.
  const auto admitted_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((*server)->stats().requests < 3 &&
         std::chrono::steady_clock::now() < admitted_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ((*server)->stats().requests, 3u);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  while ((*server)->stats().queue_depth != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Connection B: a fast statement of session t must not wait for s.
  KeepAliveClient b(port);
  ClientResponse t_answer;
  EXPECT_TRUE(b.connected() &&
              b.Send(KeepAliveClient::Request(
                  "POST", "/v1/statement",
                  R"js({"session":"t","statement":"eval '{{b}}"})js")) &&
              b.ReadResponse(&t_answer));
  const auto t_at = std::chrono::steady_clock::now();
  // Outcomes are counted before their responses are written: when t is
  // answered, s's slow statement must not have finished yet.
  const ServerStats at_t = (*server)->stats();
  a_reader.join();
  EXPECT_EQ(at_t.errors + at_t.tripped, 0u)
      << "s's slow statement finished before t was answered";
  EXPECT_EQ(t_answer.status, 200) << t_answer.raw;
  EXPECT_GE(a_first.status, 400) << a_first.raw;
  EXPECT_LT(t_at, a_first_at) << "t waited for s's slow statement";
  ClientResponse a_second;
  ASSERT_TRUE(a.ReadResponse(&a_second));
  EXPECT_EQ(a_second.status, 200) << a_second.raw;

  a.Close();
  b.Close();
  (*server)->RequestShutdown();
  (*server)->Wait();
}

TEST(ServerTest, PipelinedSessionsKeepProgramOrder) {
  ServerOptions options;
  options.executors = 4;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  // 8 sessions over 4 keep-alive connections, two sessions a connection.
  // Each session writes 50 `let X` / `eval X` pairs, pipelined in bursts
  // of 10 pairs per session; every eval must see its own preceding let.
  constexpr int kConns = 4;
  constexpr int kSessionsPerConn = 2;
  constexpr int kPairs = 50;
  constexpr int kBurst = 10;
  std::vector<std::thread> threads;
  std::atomic<int> wrong{0}, failed{0};
  for (int t = 0; t < kConns; ++t) {
    threads.emplace_back([&, t] {
      KeepAliveClient client(port);
      if (!client.connected()) {
        failed.fetch_add(1);
        return;
      }
      for (int k0 = 0; k0 < kPairs; k0 += kBurst) {
        std::string burst;
        std::vector<std::string> want;  // "" for a let's response
        for (int k = k0; k < k0 + kBurst; ++k) {
          for (int s = 0; s < kSessionsPerConn; ++s) {
            const std::string session =
                "po" + std::to_string(t * kSessionsPerConn + s);
            const std::string atom = session + "k" + std::to_string(k);
            burst += KeepAliveClient::Request(
                "POST", "/v1/statement",
                "{\"session\":\"" + session +
                    "\",\"statement\":\"let X = {{" + atom + "}}\"}");
            burst += KeepAliveClient::Request(
                "POST", "/v1/statement",
                "{\"session\":\"" + session +
                    "\",\"statement\":\"eval X\"}");
            want.push_back("");
            want.push_back("\"output\":\"{{" + atom + "}}\"");
          }
        }
        if (!client.Send(burst)) {
          failed.fetch_add(1);
          return;
        }
        for (const std::string& expected : want) {
          ClientResponse r;
          if (!client.ReadResponse(&r) || r.status != 200) {
            failed.fetch_add(1);
            return;
          }
          if (!expected.empty() && r.body.find(expected) == std::string::npos) {
            ADD_FAILURE() << "want " << expected << ", got " << r.body;
            wrong.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong.load(), 0);

  (*server)->RequestShutdown();
  (*server)->Wait();
  const ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.ok, static_cast<uint64_t>(kConns * kSessionsPerConn *
                                            kPairs * 2));
}

// ------------------------------------------------- golden response bytes

// Renders response bytes as one printable line: CR and LF as \r and \n,
// backslash doubled, any other non-printable byte as \xNN.
std::string Printable(std::string_view bytes) {
  std::string out;
  for (const char ch : bytes) {
    const auto byte = static_cast<unsigned char>(ch);
    if (ch == '\r') {
      out += "\\r";
    } else if (ch == '\n') {
      out += "\\n";
    } else if (ch == '\\') {
      out += "\\\\";
    } else if (byte < 0x20 || byte >= 0x7f) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\x%02x", byte);
      out += hex;
    } else {
      out.push_back(ch);
    }
  }
  return out;
}

// Masks the two body fields that legitimately vary between runs — wall_us
// (JSON digits, or the BAG1 u64) and the flight-recorder dump.
std::string MaskBody(std::string body, bool bag1) {
  if (bag1) {
    // Frame header, ok byte, then the outcome and output strings.
    size_t at = kFrameHeaderBytes + 1;
    for (int i = 0; i < 2 && at + 4 <= body.size(); ++i) {
      uint32_t len = 0;
      std::memcpy(&len, body.data() + at, 4);  // little-endian host
      at += 4 + len;
    }
    if (at + 8 <= body.size()) body.replace(at, 8, 8, '\0');
  } else {
    const std::string wall = "\"wall_us\":";
    if (size_t at = body.find(wall); at != std::string::npos) {
      at += wall.size();
      size_t end = at;
      while (end < body.size() && std::isdigit(body[end])) ++end;
      body.replace(at, end - at, "W");
    }
    const std::string flight = "\"flight\":\"";
    if (size_t at = body.find(flight); at != std::string::npos) {
      at += flight.size();
      size_t end = at;
      while (end < body.size() && body[end] != '"') {
        end += body[end] == '\\' ? 2 : 1;
      }
      body.replace(at, end - at, "F");
    }
  }
  return body;
}

// Masks a response's varying fields (MaskBody) and renders it printable.
// The received Content-Length must match the received body; the golden
// shows the length of the masked body. A chunked body (already de-chunked
// by KeepAliveClient) is shown after "[chunked]".
std::string MaskResponse(const ClientResponse& r) {
  const size_t head_end = r.raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return "no response: " + r.raw;
  std::string head = r.raw.substr(0, head_end + 4);
  const std::string body = MaskBody(
      r.body, head.find("application/x-bag1") != std::string::npos);
  const std::string length = "Content-Length: ";
  if (size_t at = head.find(length); at != std::string::npos) {
    at += length.size();
    const size_t end = head.find("\r\n", at);
    EXPECT_EQ(head.substr(at, end - at), std::to_string(r.body.size()))
        << r.raw;
    head.replace(at, end - at, std::to_string(body.size()));
    return Printable(head + body);
  }
  return Printable(head) + "[chunked]" + Printable(body);
}

std::string Bag1Body(const std::string& session, const std::string& statement,
                     WireFormat format = WireFormat::kBinary) {
  WireStatementRequest request;
  request.session = session;
  request.statement = statement;
  return EncodeFrame(format, EncodeStatementRequest(request));
}

// Every statement-route response shape, byte for byte (wall_us and flight
// dumps masked): success small, streamed and BAG1; a let after an eval
// (no stale result); every 400 branch; 404,
// 405, 429, the 503s, close-session 200/400/404, and a 504 with a flight
// dump.
TEST(GoldenResponseTest, StatementRouteBytesAreStable) {
  std::vector<std::pair<std::string, std::string>> got;
  auto exchange = [&](KeepAliveClient& client, const std::string& name,
                      const std::string& request) {
    ClientResponse r;
    if (!client.Send(request) || !client.ReadResponse(&r)) {
      got.emplace_back(name, "no response");
      return;
    }
    got.emplace_back(name, MaskResponse(r));
  };
  auto post = [](const std::string& body) {
    return KeepAliveClient::Request("POST", "/v1/statement", body);
  };
  auto post_bag1 = [](const std::string& body) {
    return KeepAliveClient::Request("POST", "/v1/statement", body,
                                    "application/x-bag1");
  };

  {
    ServerOptions options;
    options.stream_entries_threshold = 4;
    options.max_sessions = 1;
    auto server = Server::Start(options);
    ASSERT_TRUE(server.ok()) << server.status();
    KeepAliveClient c((*server)->port());
    ASSERT_TRUE(c.connected());
    exchange(c, "let_2pow100",
             post(R"js({"session":"g","statement":"let X = )js"
                  R"js({{a*1267650600228229401496703205376, b}}"})js"));
    exchange(c, "let_16",
             post(R"js({"session":"g","statement":)js"
                  R"js("let Y = {{a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p}}"})js"));
    exchange(c, "json_small",
             post(R"js({"session":"g","statement":"eval X"})js"));
    exchange(c, "json_streamed",
             post(R"js({"session":"g",)js"
                  R"js("statement":"eval uplus(X, '{{c, d, e}})"})js"));
    exchange(c, "bag1_success", post_bag1(Bag1Body("g", "eval X")));
    exchange(c, "let_after_eval",
             post(R"js({"session":"g","statement":"let Z = {{z}}"})js"));
    exchange(c, "bad_json", post("{not json"));
    exchange(c, "non_object", post("[1]"));
    exchange(c, "missing_statement", post(R"js({"session":"g"})js"));
    exchange(c, "statement_not_string",
             post(R"js({"session":"g","statement":7})js"));
    exchange(c, "bad_session",
             post(R"js({"session":"../etc","statement":"count X"})js"));
    const std::string frame = Bag1Body("g", "count X");
    exchange(c, "bag1_truncated",
             post_bag1(frame.substr(0, frame.size() - 2)));
    exchange(c, "bag1_json_tag",
             post_bag1(Bag1Body("g", "count X", WireFormat::kJson)));
    exchange(c, "bag1_bad_payload",
             post_bag1(EncodeFrame(WireFormat::kBinary, "xx")));
    exchange(c, "not_found", KeepAliveClient::Request("GET", "/nope", ""));
    exchange(c, "method_not_allowed",
             KeepAliveClient::Request("GET", "/v1/statement", ""));
    exchange(c, "session_cap",
             post(R"js({"session":"other","statement":"count '{{a}}"})js"));
    exchange(c, "deadline",
             post(R"js({"session":"g","statement":"eval pow(pow(Y))",)js"
                  R"js("timeout_ms":30})js"));
    exchange(c, "close_ok",
             KeepAliveClient::Request("POST", "/v1/session/close",
                                      R"js({"session":"g"})js"));
    exchange(c, "close_missing",
             KeepAliveClient::Request("POST", "/v1/session/close",
                                      R"js({"session":"g"})js"));
    exchange(c, "close_session_number",
             KeepAliveClient::Request("POST", "/v1/session/close",
                                      R"js({"session":7})js"));
    exchange(c, "count_non_bag",
             post(R"js({"session":"h","statement":"count 'a"})js"));
    exchange(c, "timeout_string",
             post(R"js({"session":"h","statement":"count '{{a}}",)js"
                  R"js("timeout_ms":"10"})js"));
    exchange(c, "timeout_negative",
             post(R"js({"session":"h","statement":"count '{{a}}",)js"
                  R"js("timeout_ms":-1})js"));
    exchange(c, "timeout_fraction",
             post(R"js({"session":"h","statement":"count '{{a}}",)js"
                  R"js("timeout_ms":10.5})js"));
    exchange(c, "memlimit_bool",
             post(R"js({"session":"h","statement":"count '{{a}}",)js"
                  R"js("memlimit_bytes":true})js"));
    exchange(c, "session_number",
             post(R"js({"session":7,"statement":"count '{{a}}"})js"));
    (*server)->RequestShutdown();
    exchange(c, "draining",
             post(R"js({"session":"h","statement":"count '{{a}}"})js"));
    c.Close();
    (*server)->Wait();
    // The six 200s and close_ok; count_non_bag counts as an error.
    EXPECT_EQ((*server)->stats().ok, 7u);
  }
  {
    ServerOptions options;
    options.queue_capacity = 0;
    auto server = Server::Start(options);
    ASSERT_TRUE(server.ok()) << server.status();
    KeepAliveClient c((*server)->port());
    ASSERT_TRUE(c.connected());
    exchange(c, "queue_full",
             post(R"js({"session":"q","statement":"count '{{a}}"})js"));
    c.Close();
    (*server)->RequestShutdown();
    (*server)->Wait();
  }
  {
    ServerOptions options;
    options.max_connections = 1;
    auto server = Server::Start(options);
    ASSERT_TRUE(server.ok()) << server.status();
    KeepAliveClient c((*server)->port());
    ASSERT_TRUE(c.connected());
    exchange(c, "first_connection",
             KeepAliveClient::Request("GET", "/nope", ""));
    got.emplace_back("connection_cap", MaskResponse(Fetch(
                                           (*server)->port(), "GET",
                                           "/healthz", "")));
    c.Close();
    (*server)->RequestShutdown();
    (*server)->Wait();
  }

  const std::map<std::string, std::string> expected = {
      {"let_2pow100",
       R"g(HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Len)g"
       R"g(gth: 73\r\n\r\n{"ok":true,"outcome":"ok","session":"g","output":)g"
       R"g("X : {{U}}","wall_us":W})g"},
      {"let_16",
       R"g(HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Len)g"
       R"g(gth: 73\r\n\r\n{"ok":true,"outcome":"ok","session":"g","output":)g"
       R"g("Y : {{U}}","wall_us":W})g"},
      {"json_small",
       R"g(HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Len)g"
       R"g(gth: 234\r\n\r\n{"ok":true,"outcome":"ok","session":"g","output")g"
       R"g(:"{{a*1267650600228229401496703205376, b}}","result":{"bag":{"ty)g"
       R"g(pe":"{{U}}","entries":[{"v":{"atom":"a"},"n":"126765060022822940)g"
       R"g(1496703205376"},{"v":{"atom":"b"},"n":"1"}]}},"wall_us":W})g"},
      {"json_streamed",
       R"g(HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-En)g"
       R"g(coding: chunked\r\n\r\n[chunked]{"ok":true,"outcome":"ok","sessi)g"
       R"g(on":"g","output":"{{a*1267650600228229401496703205376, b, c, d, )g"
       R"g(e}}","result":{"bag":{"type":"{{U}}","entries":[{"v":{"atom":"a")g"
       R"g(},"n":"1267650600228229401496703205376"},{"v":{"atom":"b"},"n":")g"
       R"g(1"},{"v":{"atom":"c"},"n":"1"},{"v":{"atom":"d"},"n":"1"},{"v":{)g"
       R"g("atom":"e"},"n":"1"}]}},"wall_us":W})g"},
      {"bag1_success",
       R"g(HTTP/1.1 200 OK\r\nContent-Type: application/x-bag1\r\nContent-L)g"
       R"g(ength: 156\r\n\r\nBAG1\x01\x02\x00\x00\x90\x00\x00\x00\x01\x02\x)g"
       R"g(00\x00\x00ok(\x00\x00\x00{{a*1267650600228229401496703205376, b})g"
       R"g(}\x00\x00\x00\x00\x00\x00\x00\x00\x01\x03\x01\x00\x00\x00U\x02\x)g"
       R"g(00\x00\x00\x00\x00\x00\x00\x01\x01\x00\x00\x00a\x01\x1f\x00\x00\)g"
       R"g(x001267650600228229401496703205376\x01\x01\x00\x00\x00b\x00\x01\)g"
       R"g(x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\)g"
       R"g(x00\x00\x00\x00)g"},
      {"let_after_eval",
       R"g(HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Len)g"
       R"g(gth: 73\r\n\r\n{"ok":true,"outcome":"ok","session":"g","output":)g"
       R"g("Z : {{U}}","wall_us":W})g"},
      {"bad_json",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nCo)g"
       R"g(ntent-Length: 120\r\n\r\n{"ok":false,"outcome":"error","error":{)g"
       R"g("code":"ParseError","message":"json: expected '\\"' at byte 1",")g"
       R"g(retryable":false}})g"},
      {"non_object",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nCo)g"
       R"g(ntent-Length: 130\r\n\r\n{"ok":false,"outcome":"error","error":{)g"
       R"g("code":"InvalidArgument","message":"request body must be a JSON )g"
       R"g(object","retryable":false}})g"},
      {"missing_statement",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nCo)g"
       R"g(ntent-Length: 124\r\n\r\n{"ok":false,"outcome":"error","error":{)g"
       R"g("code":"InvalidArgument","message":"missing \\"statement\\" stri)g"
       R"g(ng","retryable":false}})g"},
      {"statement_not_string",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nCo)g"
       R"g(ntent-Length: 124\r\n\r\n{"ok":false,"outcome":"error","error":{)g"
       R"g("code":"InvalidArgument","message":"missing \\"statement\\" stri)g"
       R"g(ng","retryable":false}})g"},
      {"bad_session",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nCo)g"
       R"g(ntent-Length: 133\r\n\r\n{"ok":false,"outcome":"error","error":{)g"
       R"g("code":"InvalidArgument","message":"session names are [A-Za-z0-9)g"
       R"g(_-]{1,64}","retryable":false}})g"},
      {"bag1_truncated",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/x-bag1\r\n)g"
       R"g(Content-Length: 84\r\n\r\nBAG1\x01\x02\x00\x00H\x00\x00\x00\x00\)g"
       R"g(x05\x00\x00\x00error\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00)g"
       R"g(\x00\x00\n\x00\x00\x00ParseError\x1a\x00\x00\x00wire: truncated )g"
       R"g(BAG1 frame\x00\x00\x00\x00\x00)g"},
      {"bag1_json_tag",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/x-bag1\r\n)g"
       R"g(Content-Length: 111\r\n\r\nBAG1\x01\x02\x00\x00c\x00\x00\x00\x00)g"
       R"g(\x05\x00\x00\x00error\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x0)g"
       R"g(0\x00\x00\n\x00\x00\x00ParseError5\x00\x00\x00wire: BAG1 stateme)g"
       R"g(nt frames use the binary format tag\x00\x00\x00\x00\x00)g"},
      {"bag1_bad_payload",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/x-bag1\r\n)g"
       R"g(Content-Length: 86\r\n\r\nBAG1\x01\x02\x00\x00J\x00\x00\x00\x00\)g"
       R"g(x05\x00\x00\x00error\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00)g"
       R"g(\x00\x00\n\x00\x00\x00ParseError\x1c\x00\x00\x00wire: truncated )g"
       R"g(binary value\x00\x00\x00\x00\x00)g"},
      {"not_found",
       R"g(HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nCont)g"
       R"g(ent-Length: 112\r\n\r\n{"ok":false,"outcome":"error","error":{"c)g"
       R"g(ode":"NotFound","message":"no such endpoint: /nope","retryable":)g"
       R"g(false}})g"},
      {"method_not_allowed",
       R"g(HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/jso)g"
       R"g(n\r\nContent-Length: 131\r\n\r\n{"ok":false,"outcome":"error","e)g"
       R"g(rror":{"code":"InvalidArgument","message":"method not allowed on)g"
       R"g( /v1/statement","retryable":false}})g"},
      {"session_cap",
       R"g(HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/js)g"
       R"g(on\r\nContent-Length: 115\r\nRetry-After: 1\r\n\r\n{"ok":false,")g"
       R"g(outcome":"shed","error":{"code":"Unavailable","message":"session)g"
       R"g( limit reached (1)","retryable":true}})g"},
      {"deadline",
       R"g(HTTP/1.1 504 Gateway Timeout\r\nContent-Type: application/json\r)g"
       R"g(\nContent-Length: 140\r\nRetry-After: 1\r\n\r\n{"ok":false,"outc)g"
       R"g(ome":"deadline","error":{"code":"DeadlineExceeded","message":"wa)g"
       R"g(ll-clock deadline exceeded","retryable":true},"flight":"F"})g"},
      {"close_ok",
       R"g(HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Len)g"
       R"g(gth: 39\r\n\r\n{"ok":true,"outcome":"ok","closed":"g"})g"},
      {"close_missing",
       R"g(HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nCont)g"
       R"g(ent-Length: 107\r\n\r\n{"ok":false,"outcome":"error","error":{"c)g"
       R"g(ode":"NotFound","message":"no such session: g","retryable":false)g"
       R"g(}})g"},
      {"close_session_number",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nCo)g"
       R"g(ntent-Length: 124\r\n\r\n{"ok":false,"outcome":"error","error":{)g"
       R"g("code":"InvalidArgument","message":"\\"session\\" must be a stri)g"
       R"g(ng","retryable":false}})g"},
      {"draining",
       R"g(HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/js)g"
       R"g(on\r\nContent-Length: 111\r\nRetry-After: 1\r\n\r\n{"ok":false,")g"
       R"g(outcome":"shed","error":{"code":"Unavailable","message":"drainin)g"
       R"g(g for shutdown","retryable":true}})g"},
      {"queue_full",
       R"g(HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json)g"
       R"g(\r\nContent-Length: 110\r\nRetry-After: 1\r\n\r\n{"ok":false,"ou)g"
       R"g(tcome":"shed","error":{"code":"Unavailable","message":"admission)g"
       R"g( queue full","retryable":true}})g"},
      {"first_connection",
       R"g(HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nCont)g"
       R"g(ent-Length: 112\r\n\r\n{"ok":false,"outcome":"error","error":{"c)g"
       R"g(ode":"NotFound","message":"no such endpoint: /nope","retryable":)g"
       R"g(false}})g"},
      {"connection_cap",
       R"g(HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/js)g"
       R"g(on\r\nContent-Length: 114\r\nRetry-After: 1\r\nConnection: close)g"
       R"g(\r\n\r\n{"ok":false,"outcome":"shed","error":{"code":"Unavailabl)g"
       R"g(e","message":"connection limit reached","retryable":true}})g"},
      // count of a non-bag is an error everywhere, and an ill-typed JSON
      // field is a 400 naming it instead of silently taking its default.
      {"count_non_bag",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nCo)g"
       R"g(ntent-Length: 123\r\n\r\n{"ok":false,"outcome":"error","error":{)g"
       R"g("code":"InvalidArgument","message":"count requires a bag result")g"
       R"g(,"retryable":false}})g"},
      {"timeout_string",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nCo)g"
       R"g(ntent-Length: 141\r\n\r\n{"ok":false,"outcome":"error","error":{)g"
       R"g("code":"InvalidArgument","message":"\\"timeout_ms\\" must be a n)g"
       R"g(on-negative integer","retryable":false}})g"},
      {"timeout_negative",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nCo)g"
       R"g(ntent-Length: 141\r\n\r\n{"ok":false,"outcome":"error","error":{)g"
       R"g("code":"InvalidArgument","message":"\\"timeout_ms\\" must be a n)g"
       R"g(on-negative integer","retryable":false}})g"},
      {"timeout_fraction",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nCo)g"
       R"g(ntent-Length: 141\r\n\r\n{"ok":false,"outcome":"error","error":{)g"
       R"g("code":"InvalidArgument","message":"\\"timeout_ms\\" must be a n)g"
       R"g(on-negative integer","retryable":false}})g"},
      {"memlimit_bool",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nCo)g"
       R"g(ntent-Length: 145\r\n\r\n{"ok":false,"outcome":"error","error":{)g"
       R"g("code":"InvalidArgument","message":"\\"memlimit_bytes\\" must be)g"
       R"g( a non-negative integer","retryable":false}})g"},
      {"session_number",
       R"g(HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nCo)g"
       R"g(ntent-Length: 124\r\n\r\n{"ok":false,"outcome":"error","error":{)g"
       R"g("code":"InvalidArgument","message":"\\"session\\" must be a stri)g"
       R"g(ng","retryable":false}})g"},
  };
  for (const auto& [name, response] : got) {
    const auto it = expected.find(name);
    if (it == expected.end()) {
      ADD_FAILURE() << "no golden row " << name << ": " << response;
      continue;
    }
    EXPECT_EQ(response, it->second) << name;
  }
  EXPECT_EQ(got.size(), expected.size());
}

// Two lanes encode at once, each for its own connection: a JSON result
// large enough that the lane encodes its first kLaneEncodeBytes and the
// loop streams the tail, one just under the stream threshold, and the
// large one again as BAG1. Every body must be the materialized encoding of
// the same result (wall_us masked).
TEST(LaneEncodingTest, ConcurrentLaneEncodedBodiesAreTheMaterializedOnes) {
  ServerOptions options;
  options.executors = 2;
  options.stream_entries_threshold = 512;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status();
  const uint16_t port = (*server)->port();

  constexpr int kConns = 2;
  std::vector<Value> wide, narrow;
  for (int t = 0; t < kConns; ++t) {
    const std::string session = "lane" + std::to_string(t);
    wide.push_back(AtomBag(session + "_wide_", 12000));
    narrow.push_back(AtomBag(session + "_narrow_", 511));
    for (const auto& [name, value] :
         {std::pair{"W", wide.back()}, std::pair{"N", narrow.back()}}) {
      const ClientResponse let = PostStatement(
          port, "{\"session\":\"" + session + "\",\"statement\":\"let " +
                    name + " = " + value.ToString() + "\"}");
      ASSERT_EQ(let.status, 200) << let.raw.substr(0, 200);
    }
  }
  // The materialized encoding of `value` as session's `eval` answer.
  const auto materialized = [](const std::string& session, const Value& value,
                               WireFormat format) {
    const std::string bytes =
        EncodeEnvelope(SuccessEnvelope(session, value.ToString(), value, 0),
                       format, /*close=*/false)
            .bytes;
    return MaskBody(bytes.substr(bytes.find("\r\n\r\n") + 4),
                    format == WireFormat::kBinary);
  };

  std::vector<KeepAliveClient> clients;
  clients.reserve(kConns);
  for (int t = 0; t < kConns; ++t) {
    clients.emplace_back(port);
    ASSERT_TRUE(clients.back().connected());
  }
  // Every request is sent before any response is read.
  for (int t = 0; t < kConns; ++t) {
    const std::string session = "lane" + std::to_string(t);
    const auto json = [&](const std::string& statement) {
      return KeepAliveClient::Request(
          "POST", "/v1/statement",
          "{\"session\":\"" + session + "\",\"statement\":\"" + statement +
              "\"}");
    };
    ASSERT_TRUE(clients[t].Send(
        json("eval W") + json("eval N") +
        KeepAliveClient::Request("POST", "/v1/statement",
                                 Bag1Body(session, "eval W"),
                                 "application/x-bag1")));
  }
  for (int t = 0; t < kConns; ++t) {
    const std::string session = "lane" + std::to_string(t);
    ClientResponse streamed, small, bag1;
    ASSERT_TRUE(clients[t].ReadResponse(&streamed));
    ASSERT_TRUE(clients[t].ReadResponse(&small));
    ASSERT_TRUE(clients[t].ReadResponse(&bag1));
    EXPECT_NE(streamed.raw.find("Transfer-Encoding: chunked"),
              std::string::npos);
    EXPECT_GT(streamed.body.size(), kLaneEncodeBytes);
    EXPECT_EQ(MaskBody(streamed.body, false),
              materialized(session, wide[t], WireFormat::kJson));
    EXPECT_NE(small.raw.find("Content-Length"), std::string::npos);
    EXPECT_EQ(MaskBody(small.body, false),
              materialized(session, narrow[t], WireFormat::kJson));
    EXPECT_EQ(MaskBody(bag1.body, true),
              materialized(session, wide[t], WireFormat::kBinary));
  }
  for (KeepAliveClient& client : clients) client.Close();

  (*server)->RequestShutdown();
  (*server)->Wait();
  EXPECT_EQ((*server)->stats().streamed_responses,
            static_cast<uint64_t>(kConns));
}

}  // namespace
}  // namespace bagalg::net
