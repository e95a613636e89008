#include "src/net/envelope.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/core/row_format.h"
#include "src/net/http.h"
#include "src/obs/json.h"
#include "src/util/governor.h"

namespace bagalg::net {

namespace {

// A JSON success body is head + [",\"result\":" + value] + tail; the
// materialized and the chunked path share both ends.
void AppendJsonSuccessHead(const Envelope& envelope, std::string* out) {
  out->append("{\"ok\":true,\"outcome\":\"ok\",\"session\":\"");
  obs::AppendJsonEscaped(out, envelope.session);
  out->append("\",\"output\":\"");
  obs::AppendJsonEscaped(out, envelope.body.output);
  out->push_back('"');
  if (envelope.body.has_result) out->append(",\"result\":");
}

std::string JsonSuccessTail(const Envelope& envelope) {
  return ",\"wall_us\":" + std::to_string(envelope.body.wall_us) + "}";
}

/// About how many body bytes a success envelope takes, besides its result.
size_t EnvelopeBytes(const Envelope& envelope) {
  const WireStatementResponse& body = envelope.body;
  return 128 + envelope.session.size() + body.outcome.size() +
         body.output.size() + body.error_code.size() +
         body.error_message.size() + body.flight.size();
}

std::string JsonErrorBody(const WireStatementResponse& body) {
  std::string out =
      "{\"ok\":false,\"outcome\":" + obs::JsonQuote(body.outcome);
  out += ",\"error\":{\"code\":" + obs::JsonQuote(body.error_code);
  out += ",\"message\":" + obs::JsonQuote(body.error_message);
  out += ",\"retryable\":";
  out += body.retryable ? "true" : "false";
  out += "}";
  if (!body.flight.empty()) {
    out += ",\"flight\":" + obs::JsonQuote(body.flight);
  }
  out += "}";
  return out;
}

HttpResponse ResponseHead(const Envelope& envelope, bool close) {
  HttpResponse response;
  response.status = envelope.http_status;
  if (!envelope.retry_after.empty()) {
    response.extra_headers.emplace_back("Retry-After", envelope.retry_after);
  }
  response.close = close;
  return response;
}

EncodedEnvelope EncodeBag1(const Envelope& envelope, bool close,
                           size_t max_frame_bytes) {
  HttpResponse response = ResponseHead(envelope, close);
  response.content_type = kBag1ContentType;
  const WireStatementResponse& body = envelope.body;
  const size_t estimate =
      kFrameHeaderBytes + EnvelopeBytes(envelope) +
      (body.has_result ? EstimateWireBytes(body.result, WireFormat::kBinary)
                       : 0);
  EncodedEnvelope encoded;
  encoded.outcome = body.outcome;
  std::string& out = encoded.bytes;
  out.reserve(256 + std::min(estimate, kMaxGuessedReserveBytes));
  const PendingLength length = BeginHttpResponse(response, estimate, &out);
  const Status framed = AppendResponseFrame(body, max_frame_bytes, &out);
  if (!framed.ok()) {
    // A frame past the cap is one DecodeFrame refuses: answer the cap's
    // typed error instead. A refusal is small, so it meets no cap.
    return EncodeBag1(ErrorEnvelope(HttpStatusForCode(framed.code()), framed),
                      close, std::numeric_limits<size_t>::max());
  }
  EndHttpResponse(length, &out);
  return encoded;
}

EncodedEnvelope EncodeJson(const Envelope& envelope, bool close,
                           size_t stream_entries_threshold) {
  HttpResponse response = ResponseHead(envelope, close);
  const WireStatementResponse& body = envelope.body;
  EncodedEnvelope encoded;
  encoded.outcome = body.outcome;
  if (!body.ok) {
    response.body = JsonErrorBody(body);
    encoded.bytes = FormatHttpResponse(response);
    return encoded;
  }
  if (body.has_result && body.result.IsBag() &&
      stream_entries_threshold > 0 &&
      body.result.bag().DistinctCount() >= stream_entries_threshold) {
    std::string head;
    head.reserve(EnvelopeBytes(envelope));
    AppendJsonSuccessHead(envelope, &head);
    encoded.bytes = FormatHttpResponseHead(response, /*chunked=*/true, 0);
    encoded.stream = std::make_unique<WireJsonStreamer>(
        std::move(head), body.result, JsonSuccessTail(envelope));
    return encoded;
  }
  // The head, the body and its result written into one buffer.
  const size_t estimate =
      EnvelopeBytes(envelope) +
      (body.has_result ? EstimateWireBytes(body.result, WireFormat::kJson)
                       : 0);
  std::string& out = encoded.bytes;
  out.reserve(256 + std::min(estimate, kMaxGuessedReserveBytes));
  const PendingLength length = BeginHttpResponse(response, estimate, &out);
  AppendJsonSuccessHead(envelope, &out);
  if (body.has_result) AppendWireJson(body.result, &out);
  out.append(JsonSuccessTail(envelope));
  EndHttpResponse(length, &out);
  return encoded;
}

}  // namespace

Envelope SuccessEnvelope(std::string session, std::string output,
                         std::optional<Value> result, uint64_t wall_us) {
  Envelope envelope;
  envelope.session = std::move(session);
  envelope.body.ok = true;
  envelope.body.outcome = "ok";
  envelope.body.output = std::move(output);
  envelope.body.wall_us = wall_us;
  if (result.has_value()) {
    envelope.body.has_result = true;
    envelope.body.result = std::move(*result);
  }
  return envelope;
}

Envelope ErrorEnvelope(int http_status, const Status& status) {
  Envelope envelope;
  envelope.http_status = http_status;
  envelope.body.ok = false;
  envelope.body.outcome = StatementOutcome(status, TripKind::kNone);
  envelope.body.error_code = StatusCodeName(status.code());
  envelope.body.error_message = status.message();
  envelope.body.retryable = IsRetryable(status.code());
  if (envelope.body.retryable) envelope.retry_after.append("1");
  return envelope;
}

EncodedEnvelope EncodeEnvelope(const Envelope& envelope, WireFormat format,
                               bool close, size_t stream_entries_threshold,
                               size_t max_frame_bytes) {
  return format == WireFormat::kBinary
             ? EncodeBag1(envelope, close, max_frame_bytes)
             : EncodeJson(envelope, close, stream_entries_threshold);
}

bool AppendStreamChunk(WireJsonStreamer& stream, std::string* out) {
  // The slice is produced in place, after a size line for a full slice.
  const PendingLength chunk = BeginHttpChunk(kStreamSliceBytes, out);
  const bool more = stream.Produce(kStreamSliceBytes, out);
  EndHttpChunk(chunk, out);
  if (!more) AppendHttpLastChunk(out);
  return more;
}

void PrestreamEncoded(EncodedEnvelope* encoded, size_t budget) {
  const size_t start = encoded->bytes.size();
  while (encoded->stream != nullptr &&
         encoded->bytes.size() - start < budget) {
    if (!AppendStreamChunk(*encoded->stream, &encoded->bytes)) {
      encoded->stream.reset();
    }
  }
}

}  // namespace bagalg::net
