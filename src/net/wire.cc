#include "src/net/wire.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>

#include "src/core/row_format.h"
#include "src/lang/parser.h"
#include "src/net/json_reader.h"
#include "src/obs/json.h"

namespace bagalg::net {

namespace {

// Every printer below writes the Value path for atoms, tuples and the
// outer level of a bag of bags; a flat bag's entries are written by a
// RowFormat of the printer's syntax, compiled once per element type.

void AppendValue(const Value& value, const AtomTable& table,
                 RowFormatCache& formats, std::string* out);

// A bag is its head, its entries comma-separated, and kBagTail; the
// streamer emits the same three parts in slices.
constexpr char kBagTail[] = "]}}";

void AppendBagHead(const Bag& bag, std::string* out) {
  out->append("{\"bag\":{\"type\":\"");
  obs::AppendJsonEscaped(out, bag.type().ToString());
  out->append("\",\"entries\":[");
}

void AppendAtomJson(AtomId id, const AtomTable& table, std::string* out) {
  out->append("{\"atom\":\"");
  if (const auto name = table.NameView(id)) {
    obs::AppendJsonEscaped(out, *name);
  } else {
    out->append(table.NameOf(id));  // "#<id>": no escapes
  }
  out->append("\"}");
}

/// Entry i of a bag of bags, whose entries are Values.
void AppendValueEntry(const Bag& bag, size_t i, const AtomTable& table,
                      RowFormatCache& formats, std::string* out) {
  out->append("{\"v\":");
  AppendValue(bag.entries()[i].value, table, formats, out);
  out->append(",\"n\":\"");
  bag.CountAt(i).AppendDecimal(out);
  out->append("\"}");
}

/// Appends entries [*next, DistinctCount()) of `bag`, stopping before an
/// entry once `out` holds `stop_size` bytes; advances *next past what it
/// wrote.
void AppendBagEntries(const Bag& bag, size_t* next, size_t stop_size,
                      const AtomTable& table, RowFormatCache& formats,
                      std::string* out) {
  if (const FlatRows* rows = bag.flat_rows()) {
    if (*next < rows->size()) {
      *next = formats.For(bag.element_type())
                  .Append(*rows, *next, rows->size(), table, out, stop_size);
    }
    return;
  }
  for (; *next < bag.DistinctCount(); ++*next) {
    if (out->size() >= stop_size) return;
    if (*next != 0) out->push_back(',');
    AppendValueEntry(bag, *next, table, formats, out);
  }
}

void AppendValue(const Value& value, const AtomTable& table,
                 RowFormatCache& formats, std::string* out) {
  switch (value.kind()) {
    case Value::Kind::kAtom:
      AppendAtomJson(value.atom_id(), table, out);
      return;
    case Value::Kind::kTuple: {
      out->append("{\"tuple\":[");
      bool first = true;
      for (const Value& field : value.fields()) {
        if (!first) out->push_back(',');
        first = false;
        AppendValue(field, table, formats, out);
      }
      out->append("]}");
      return;
    }
    case Value::Kind::kBag: {
      const Bag& bag = value.bag();
      AppendBagHead(bag, out);
      size_t next = 0;
      AppendBagEntries(bag, &next, std::numeric_limits<size_t>::max(), table,
                       formats, out);
      out->append(kBagTail);
      return;
    }
  }
}

void PutU32Le(uint32_t v, std::string* out) {
  const char bytes[4] = {static_cast<char>(v & 0xFF),
                         static_cast<char>((v >> 8) & 0xFF),
                         static_cast<char>((v >> 16) & 0xFF),
                         static_cast<char>((v >> 24) & 0xFF)};
  out->append(bytes, sizeof(bytes));
}

/// Overwrites the four bytes at `at` with `v`, little-endian: the length
/// of bytes written after it.
void SetU32Le(size_t at, uint32_t v, std::string* out) {
  for (size_t i = 0; i < 4; ++i) {
    (*out)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void PutU64Le(uint64_t v, std::string* out) {
  PutU32Le(static_cast<uint32_t>(v & 0xFFFFFFFFu), out);
  PutU32Le(static_cast<uint32_t>(v >> 32), out);
}

uint32_t GetU32Le(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

// ---------------------------------------------------------- binary shape

constexpr uint8_t kTagAtom = 0x01;
constexpr uint8_t kTagTuple = 0x02;
constexpr uint8_t kTagBag = 0x03;
constexpr uint8_t kMultU64 = 0x00;
constexpr uint8_t kMultDecimal = 0x01;

void PutStr(std::string_view s, std::string* out) {
  PutU32Le(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

void PutMult(const Mult& count, std::string* out) {
  if (count.FitsUint64()) {
    out->push_back(static_cast<char>(kMultU64));
    PutU64Le(count.Low64(), out);
  } else {
    out->push_back(static_cast<char>(kMultDecimal));
    const size_t length_at = out->size();
    PutU32Le(0, out);
    count.AppendDecimal(out);
    SetU32Le(length_at, static_cast<uint32_t>(out->size() - length_at - 4),
             out);
  }
}

void PutAtomBinary(AtomId id, const AtomTable& table, std::string* out) {
  out->push_back(static_cast<char>(kTagAtom));
  if (const auto name = table.NameView(id)) {
    PutStr(*name, out);
  } else {
    PutStr(table.NameOf(id), out);
  }
}

/// Appends the BAG1 bytes of `value`, unless `out` reaches `stop_size`
/// bytes before a bag entry: then returns false, having written part.
bool PutValueBinary(const Value& value, const AtomTable& table,
                    RowFormatCache& formats, size_t stop_size,
                    std::string* out) {
  switch (value.kind()) {
    case Value::Kind::kAtom:
      PutAtomBinary(value.atom_id(), table, out);
      return true;
    case Value::Kind::kTuple: {
      out->push_back(static_cast<char>(kTagTuple));
      PutU32Le(static_cast<uint32_t>(value.fields().size()), out);
      for (const Value& field : value.fields()) {
        if (!PutValueBinary(field, table, formats, stop_size, out)) {
          return false;
        }
      }
      return true;
    }
    case Value::Kind::kBag: {
      const Bag& bag = value.bag();
      out->push_back(static_cast<char>(kTagBag));
      PutStr(bag.element_type().ToString(), out);
      PutU64Le(static_cast<uint64_t>(bag.DistinctCount()), out);
      if (const FlatRows* rows = bag.flat_rows()) {
        return rows->empty() ||
               formats.For(bag.element_type())
                       .Append(*rows, 0, rows->size(), table, out,
                               stop_size) == rows->size();
      }
      for (size_t i = 0; i < bag.DistinctCount(); ++i) {
        if (out->size() >= stop_size ||
            !PutValueBinary(bag.entries()[i].value, table, formats,
                            stop_size, out)) {
          return false;
        }
        PutMult(bag.CountAt(i), out);
      }
      return true;
    }
  }
  return true;
}

/// Cursor over untrusted bytes: every Get checks the remainder first, so a
/// hostile length can never size a read past the buffer.
class BinReader {
 public:
  explicit BinReader(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }

  Result<uint8_t> GetU8() {
    if (remaining() < 1) return Truncated();
    return static_cast<uint8_t>(bytes_[pos_++]);
  }

  Result<uint32_t> GetU32() {
    if (remaining() < 4) return Truncated();
    const uint32_t v = GetU32Le(bytes_.data() + pos_);
    pos_ += 4;
    return v;
  }

  Result<uint64_t> GetU64() {
    BAGALG_ASSIGN_OR_RETURN(uint32_t lo, GetU32());
    BAGALG_ASSIGN_OR_RETURN(uint32_t hi, GetU32());
    return (static_cast<uint64_t>(hi) << 32) | lo;
  }

  Result<std::string_view> GetStr() {
    BAGALG_ASSIGN_OR_RETURN(uint32_t len, GetU32());
    if (remaining() < len) return Truncated();
    const std::string_view s = bytes_.substr(pos_, len);
    pos_ += len;
    return s;
  }

 private:
  static Status Truncated() {
    return Status::ParseError("wire: truncated binary value");
  }
  std::string_view bytes_;
  size_t pos_ = 0;
};

Result<Mult> GetMult(BinReader* in) {
  BAGALG_ASSIGN_OR_RETURN(uint8_t kind, in->GetU8());
  switch (kind) {
    case kMultU64: {
      BAGALG_ASSIGN_OR_RETURN(uint64_t v, in->GetU64());
      return Mult(v);
    }
    case kMultDecimal: {
      BAGALG_ASSIGN_OR_RETURN(std::string_view text, in->GetStr());
      return BigNat::FromDecimal(text);
    }
    default:
      return Status::ParseError("wire: unknown multiplicity kind " +
                                std::to_string(kind));
  }
}

Result<Value> GetValueBinary(BinReader* in, AtomTable* table, int depth) {
  if (depth > kMaxWireDepth) {
    return Status::ParseError("wire: value nests deeper than " +
                              std::to_string(kMaxWireDepth));
  }
  BAGALG_ASSIGN_OR_RETURN(uint8_t tag, in->GetU8());
  switch (tag) {
    case kTagAtom: {
      BAGALG_ASSIGN_OR_RETURN(std::string_view name, in->GetStr());
      if (name.empty()) {
        return Status::ParseError("wire: empty atom name");
      }
      return Value::Atom(table->Intern(name));
    }
    case kTagTuple: {
      BAGALG_ASSIGN_OR_RETURN(uint32_t arity, in->GetU32());
      // Each field needs at least a tag byte, so the remainder bounds the
      // honest arity — reject before reserving attacker-sized vectors.
      if (arity > in->remaining()) {
        return Status::ParseError("wire: tuple arity exceeds payload");
      }
      std::vector<Value> fields;
      fields.reserve(arity);
      for (uint32_t i = 0; i < arity; ++i) {
        BAGALG_ASSIGN_OR_RETURN(Value field,
                                GetValueBinary(in, table, depth + 1));
        fields.push_back(std::move(field));
      }
      return Value::Tuple(std::move(fields));
    }
    case kTagBag: {
      BAGALG_ASSIGN_OR_RETURN(std::string_view type_text, in->GetStr());
      BAGALG_ASSIGN_OR_RETURN(Type element_type,
                              lang::ParseType(type_text));
      BAGALG_ASSIGN_OR_RETURN(uint64_t count, in->GetU64());
      // Each entry is at least a tag byte plus a multiplicity kind byte.
      if (count > in->remaining()) {
        return Status::ParseError("wire: bag entry count exceeds payload");
      }
      Bag::Builder builder{std::move(element_type)};
      builder.Reserve(static_cast<size_t>(count));
      for (uint64_t i = 0; i < count; ++i) {
        BAGALG_ASSIGN_OR_RETURN(Value element,
                                GetValueBinary(in, table, depth + 1));
        BAGALG_ASSIGN_OR_RETURN(Mult mult, GetMult(in));
        builder.Add(std::move(element), std::move(mult));
      }
      // Builder re-canonicalizes and type-checks: a peer that sends
      // duplicates, misordered entries, or ill-typed elements gets a
      // well-formed bag or a typed error, never a corrupt canonical form.
      BAGALG_ASSIGN_OR_RETURN(Bag bag, std::move(builder).Build());
      return Value::FromBag(std::move(bag));
    }
    default:
      return Status::ParseError("wire: unknown value tag " +
                                std::to_string(tag));
  }
}

// ------------------------------------------------------------ JSON shape

Result<Value> JsonToValue(const JsonValue& json, AtomTable* table,
                          int depth) {
  if (depth > kMaxWireDepth) {
    return Status::ParseError("wire: value nests deeper than " +
                              std::to_string(kMaxWireDepth));
  }
  if (!json.is_object()) {
    return Status::ParseError("wire: value must be a JSON object");
  }
  if (const JsonValue* atom = json.Find("atom"); atom != nullptr) {
    if (!atom->is_string() || atom->string.empty()) {
      return Status::ParseError("wire: \"atom\" must be a nonempty string");
    }
    return Value::Atom(table->Intern(atom->string));
  }
  if (const JsonValue* tuple = json.Find("tuple"); tuple != nullptr) {
    if (tuple->kind != JsonValue::Kind::kArray) {
      return Status::ParseError("wire: \"tuple\" must be an array");
    }
    std::vector<Value> fields;
    fields.reserve(tuple->items.size());
    for (const JsonValue& item : tuple->items) {
      BAGALG_ASSIGN_OR_RETURN(Value field,
                              JsonToValue(item, table, depth + 1));
      fields.push_back(std::move(field));
    }
    return Value::Tuple(std::move(fields));
  }
  if (const JsonValue* bag = json.Find("bag"); bag != nullptr) {
    if (!bag->is_object()) {
      return Status::ParseError("wire: \"bag\" must be an object");
    }
    const JsonValue* type = bag->Find("type");
    if (type != nullptr && !type->is_string()) {
      return Status::ParseError("wire: bag \"type\" must be a string");
    }
    BAGALG_ASSIGN_OR_RETURN(
        Type bag_type,
        lang::ParseType(type != nullptr ? type->string : "{{_}}"));
    if (bag_type.kind() != Type::Kind::kBag) {
      return Status::ParseError("wire: bag \"type\" must be a bag type");
    }
    const JsonValue* entries = bag->Find("entries");
    if (entries == nullptr || entries->kind != JsonValue::Kind::kArray) {
      return Status::ParseError("wire: bag \"entries\" must be an array");
    }
    Bag::Builder builder{bag_type.element()};
    builder.Reserve(entries->items.size());
    for (const JsonValue& entry : entries->items) {
      if (!entry.is_object()) {
        return Status::ParseError("wire: bag entry must be an object");
      }
      const JsonValue* v = entry.Find("v");
      const JsonValue* n = entry.Find("n");
      if (v == nullptr || n == nullptr || !n->is_string()) {
        return Status::ParseError(
            "wire: bag entry needs \"v\" and string \"n\"");
      }
      BAGALG_ASSIGN_OR_RETURN(Value element, JsonToValue(*v, table, depth + 1));
      BAGALG_ASSIGN_OR_RETURN(Mult mult, BigNat::FromDecimal(n->string));
      builder.Add(std::move(element), std::move(mult));
    }
    BAGALG_ASSIGN_OR_RETURN(Bag rebuilt, std::move(builder).Build());
    return Value::FromBag(std::move(rebuilt));
  }
  return Status::ParseError(
      "wire: expected one of \"atom\", \"tuple\", \"bag\"");
}

AtomTable* TableOrGlobal(AtomTable* table) {
  return table != nullptr ? table : &GlobalAtomTable();
}

}  // namespace

std::string ValueToWireJson(const Value& value, const AtomTable* table) {
  std::string out;
  AppendWireJson(value, &out, table);
  return out;
}

void AppendWireJson(const Value& value, std::string* out,
                    const AtomTable* table) {
  RowFormatCache formats(RowSyntax::kWireJson);
  AppendValue(value, table != nullptr ? *table : GlobalAtomTable(), formats,
              out);
}

size_t EstimateWireBytes(const Value& value, WireFormat format,
                         const AtomTable* table) {
  constexpr size_t kSmall = 64;
  if (!value.IsBag() || value.bag().flat_rows() == nullptr) return kSmall;
  const Bag& bag = value.bag();
  const RowFormat rows_format(bag.element_type(), format == WireFormat::kJson
                                                       ? RowSyntax::kWireJson
                                                       : RowSyntax::kBag1);
  return kSmall +
         rows_format.EstimateBytes(
             *bag.flat_rows(), table != nullptr ? *table : GlobalAtomTable());
}

Result<Value> WireJsonToValue(const JsonValue& json, AtomTable* table) {
  return JsonToValue(json, TableOrGlobal(table), 0);
}

Result<Value> WireJsonToValue(std::string_view json_text, AtomTable* table) {
  BAGALG_ASSIGN_OR_RETURN(JsonValue json, ParseJson(json_text));
  return WireJsonToValue(json, table);
}

std::string ValueToWireBinary(const Value& value, const AtomTable* table) {
  std::string out;
  RowFormatCache formats(RowSyntax::kBag1);
  PutValueBinary(value, table != nullptr ? *table : GlobalAtomTable(), formats,
                 std::numeric_limits<size_t>::max(), &out);
  return out;
}

Result<Value> WireBinaryToValue(std::string_view bytes, AtomTable* table) {
  BinReader in(bytes);
  BAGALG_ASSIGN_OR_RETURN(Value value,
                          GetValueBinary(&in, TableOrGlobal(table), 0));
  if (in.remaining() != 0) {
    return Status::ParseError("wire: " + std::to_string(in.remaining()) +
                              " trailing bytes after binary value");
  }
  return value;
}

namespace {

/// Appends a frame header for a payload of `payload_bytes`.
void AppendFrameHeader(WireFormat format, uint32_t payload_bytes,
                       std::string* out) {
  out->append(kFrameMagic, sizeof(kFrameMagic));
  out->push_back(static_cast<char>(kFrameVersion));
  out->push_back(static_cast<char>(format));
  out->push_back('\0');  // reserved
  out->push_back('\0');  // reserved
  PutU32Le(payload_bytes, out);
}

}  // namespace

std::string EncodeFrame(WireFormat format, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendFrameHeader(format, static_cast<uint32_t>(payload.size()), &out);
  out.append(payload);
  return out;
}

Result<DecodedFrame> DecodeFrame(std::string_view bytes, size_t* consumed) {
  *consumed = 0;
  if (bytes.size() < kFrameHeaderBytes) {
    // Could still become a valid frame; but a wrong magic is detectable
    // from the very first bytes — fail fast instead of buffering garbage.
    const size_t have = std::min(bytes.size(), sizeof(kFrameMagic));
    if (std::memcmp(bytes.data(), kFrameMagic, have) != 0) {
      return Status::ParseError("wire: bad frame magic");
    }
    return Status::Unavailable("wire: short frame header");
  }
  if (std::memcmp(bytes.data(), kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Status::ParseError("wire: bad frame magic");
  }
  const auto version = static_cast<uint8_t>(bytes[4]);
  if (version != kFrameVersion) {
    return Status::ParseError("wire: unsupported frame version " +
                              std::to_string(version));
  }
  const auto format = static_cast<uint8_t>(bytes[5]);
  if (format != static_cast<uint8_t>(WireFormat::kJson) &&
      format != static_cast<uint8_t>(WireFormat::kBinary)) {
    return Status::ParseError("wire: unknown format tag " +
                              std::to_string(format));
  }
  const uint32_t length = GetU32Le(bytes.data() + 8);
  if (length > kMaxFrameBytes) {
    return Status::ParseError("wire: frame length " + std::to_string(length) +
                              " exceeds cap");
  }
  if (bytes.size() < kFrameHeaderBytes + length) {
    return Status::Unavailable("wire: short frame payload");
  }
  DecodedFrame frame;
  frame.format = static_cast<WireFormat>(format);
  frame.payload.assign(bytes.substr(kFrameHeaderBytes, length));
  *consumed = kFrameHeaderBytes + length;
  return frame;
}

// ------------------------------------------- binary statement envelopes

std::string EncodeStatementRequest(const WireStatementRequest& request) {
  std::string out;
  out.reserve(24 + request.session.size() + request.statement.size());
  PutStr(request.session, &out);
  PutStr(request.statement, &out);
  PutU64Le(request.timeout_ms, &out);
  PutU64Le(request.memlimit_bytes, &out);
  return out;
}

Result<WireStatementRequest> DecodeStatementRequest(std::string_view bytes) {
  BinReader in(bytes);
  WireStatementRequest request;
  BAGALG_ASSIGN_OR_RETURN(std::string_view session, in.GetStr());
  request.session.assign(session);
  BAGALG_ASSIGN_OR_RETURN(std::string_view statement, in.GetStr());
  request.statement.assign(statement);
  BAGALG_ASSIGN_OR_RETURN(request.timeout_ms, in.GetU64());
  BAGALG_ASSIGN_OR_RETURN(request.memlimit_bytes, in.GetU64());
  if (in.remaining() != 0) {
    return Status::ParseError("wire: trailing bytes after request envelope");
  }
  return request;
}

namespace {

/// A limit field of a JSON request: absent means 0 (server default);
/// present, it must be a non-negative integer.
Result<uint64_t> JsonLimitField(const JsonValue& doc, std::string_view key) {
  const JsonValue* field = doc.Find(key);
  if (field == nullptr) return uint64_t{0};
  const std::optional<uint64_t> value = field->AsUint();
  if (!value.has_value()) {
    return Status::InvalidArgument("\"" + std::string(key) +
                                   "\" must be a non-negative integer");
  }
  return *value;
}

Result<WireStatementRequest> DecodeJsonStatementRequest(
    std::string_view body) {
  BAGALG_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(body));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  WireStatementRequest request;
  const JsonValue* statement = doc.Find("statement");
  if (statement == nullptr || !statement->is_string() ||
      statement->string.empty()) {
    return Status::InvalidArgument("missing \"statement\" string");
  }
  request.statement = statement->string;
  request.session = kDefaultSession;
  if (const JsonValue* session = doc.Find("session"); session != nullptr) {
    if (!session->is_string()) {
      return Status::InvalidArgument("\"session\" must be a string");
    }
    request.session = session->string;
  }
  BAGALG_ASSIGN_OR_RETURN(request.timeout_ms,
                          JsonLimitField(doc, "timeout_ms"));
  BAGALG_ASSIGN_OR_RETURN(request.memlimit_bytes,
                          JsonLimitField(doc, "memlimit_bytes"));
  return request;
}

Result<WireStatementRequest> DecodeBag1StatementRequest(
    std::string_view body) {
  size_t consumed = 0;
  auto frame = DecodeFrame(body, &consumed);
  if (!frame.ok()) {
    // A body is complete by the time it is decoded: a short frame is
    // malformed, not a reason to wait for more bytes.
    if (frame.status().code() == StatusCode::kUnavailable) {
      return Status::ParseError("wire: truncated BAG1 frame");
    }
    return frame.status();
  }
  if (frame->format != WireFormat::kBinary) {
    return Status::ParseError(
        "wire: BAG1 statement frames use the binary format tag");
  }
  BAGALG_ASSIGN_OR_RETURN(WireStatementRequest request,
                          DecodeStatementRequest(frame->payload));
  if (request.session.empty()) request.session = kDefaultSession;
  return request;
}

}  // namespace

Result<WireStatementRequest> DecodeStatementBody(std::string_view body,
                                                 WireFormat format) {
  return format == WireFormat::kBinary ? DecodeBag1StatementRequest(body)
                                       : DecodeJsonStatementRequest(body);
}

namespace {

/// Appends EncodeStatementResponse's bytes, unless `out` reaches
/// `stop_size` bytes before an entry of the result: then returns false,
/// having written part.
bool AppendStatementResponse(const WireStatementResponse& response,
                             const AtomTable& table, size_t stop_size,
                             std::string* out) {
  out->push_back(response.ok ? '\x01' : '\x00');
  PutStr(response.outcome, out);
  PutStr(response.output, out);
  PutU64Le(response.wall_us, out);
  out->push_back(response.has_result ? '\x01' : '\x00');
  if (response.has_result) {
    RowFormatCache formats(RowSyntax::kBag1);
    if (!PutValueBinary(response.result, table, formats, stop_size, out)) {
      return false;
    }
  }
  PutStr(response.error_code, out);
  PutStr(response.error_message, out);
  out->push_back(response.retryable ? '\x01' : '\x00');
  PutStr(response.flight, out);
  return true;
}

}  // namespace

std::string EncodeStatementResponse(const WireStatementResponse& response,
                                    const AtomTable* table) {
  std::string out;
  AppendStatementResponse(response,
                          table != nullptr ? *table : GlobalAtomTable(),
                          std::numeric_limits<size_t>::max(), &out);
  return out;
}

Status AppendResponseFrame(const WireStatementResponse& response,
                           size_t max_payload_bytes, std::string* out,
                           const AtomTable* table) {
  // The length prefix is a u32: no cap may let it wrap.
  const size_t cap = std::min<size_t>(max_payload_bytes, UINT32_MAX);
  const size_t frame_start = out->size();
  AppendFrameHeader(WireFormat::kBinary, 0, out);
  const size_t payload_start = out->size();
  // Writing stops at the first entry past the cap, so a refused result
  // never holds much more than the cap.
  const bool whole = AppendStatementResponse(
      response, table != nullptr ? *table : GlobalAtomTable(),
      payload_start + cap + 1, out);
  const size_t payload = out->size() - payload_start;
  if (!whole || payload > cap) {
    out->resize(frame_start);
    std::string message = "result passes the BAG1 frame cap of ";
    message += std::to_string(cap);
    message += " bytes";
    return Status::ResourceExhausted(std::move(message));
  }
  SetU32Le(payload_start - 4, static_cast<uint32_t>(payload), out);
  return Status::Ok();
}

Result<WireStatementResponse> DecodeStatementResponse(std::string_view bytes,
                                                      AtomTable* table) {
  BinReader in(bytes);
  WireStatementResponse response;
  BAGALG_ASSIGN_OR_RETURN(uint8_t ok, in.GetU8());
  response.ok = ok != 0;
  BAGALG_ASSIGN_OR_RETURN(std::string_view outcome, in.GetStr());
  response.outcome.assign(outcome);
  BAGALG_ASSIGN_OR_RETURN(std::string_view output, in.GetStr());
  response.output.assign(output);
  BAGALG_ASSIGN_OR_RETURN(response.wall_us, in.GetU64());
  BAGALG_ASSIGN_OR_RETURN(uint8_t has_result, in.GetU8());
  response.has_result = has_result != 0;
  if (response.has_result) {
    BAGALG_ASSIGN_OR_RETURN(
        response.result, GetValueBinary(&in, TableOrGlobal(table), 0));
  }
  BAGALG_ASSIGN_OR_RETURN(std::string_view code, in.GetStr());
  response.error_code.assign(code);
  BAGALG_ASSIGN_OR_RETURN(std::string_view message, in.GetStr());
  response.error_message.assign(message);
  BAGALG_ASSIGN_OR_RETURN(uint8_t retryable, in.GetU8());
  response.retryable = retryable != 0;
  BAGALG_ASSIGN_OR_RETURN(std::string_view flight, in.GetStr());
  response.flight.assign(flight);
  if (in.remaining() != 0) {
    return Status::ParseError("wire: trailing bytes after response envelope");
  }
  return response;
}

// -------------------------------------------------- streaming JSON bodies

WireJsonStreamer::WireJsonStreamer(std::string prefix, Value value,
                                   std::string suffix,
                                   const AtomTable* table)
    : prefix_(std::move(prefix)),
      root_(std::move(value)),
      suffix_(std::move(suffix)),
      table_(table != nullptr ? table : &GlobalAtomTable()) {}

bool WireJsonStreamer::Produce(size_t budget, std::string* out) {
  // Entries stop once the slice holds `budget` bytes, and never before
  // the slice holds a piece.
  const size_t start = out->size();
  const size_t stop_size =
      start + std::min(std::max<size_t>(budget, 1),
                       std::numeric_limits<size_t>::max() - start);
  if (stage_ == Stage::kPrefix) {
    out->append(prefix_);
    prefix_.clear();
    stage_ = Stage::kEntries;
    if (root_.IsBag()) {
      AppendBagHead(root_.bag(), out);
    } else {
      AppendValue(root_, *table_, formats_, out);
    }
  }
  if (stage_ == Stage::kEntries && root_.IsBag()) {
    const Bag& bag = root_.bag();
    AppendBagEntries(bag, &next_entry_, stop_size, *table_, formats_, out);
    if (next_entry_ < bag.DistinctCount()) return true;
    out->append(kBagTail);
  }
  if (stage_ == Stage::kEntries) {
    out->append(suffix_);
    suffix_.clear();
    stage_ = Stage::kDone;
  }
  return false;
}

}  // namespace bagalg::net
