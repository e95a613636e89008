#include "src/net/envelope.h"

#include <utility>

#include "src/net/http.h"
#include "src/obs/json.h"
#include "src/util/governor.h"

namespace bagalg::net {

namespace {

// A JSON success body is head + [",\"result\":" + value] + tail; the
// materialized and the chunked path share both ends.
std::string JsonSuccessHead(const Envelope& envelope) {
  return "{\"ok\":true,\"outcome\":\"ok\",\"session\":" +
         obs::JsonQuote(envelope.session) +
         ",\"output\":" + obs::JsonQuote(envelope.body.output);
}

std::string JsonSuccessTail(const Envelope& envelope) {
  return ",\"wall_us\":" + std::to_string(envelope.body.wall_us) + "}";
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

EncodedEnvelope EncodeBag1(const Envelope& envelope, bool close) {
  HttpResponse response = ResponseHead(envelope, close);
  response.content_type = kBag1ContentType;
  response.body = EncodeFrame(WireFormat::kBinary,
                              EncodeStatementResponse(envelope.body));
  return {FormatHttpResponse(response), nullptr};
}

EncodedEnvelope EncodeJson(const Envelope& envelope, bool close,
                           size_t stream_entries_threshold) {
  HttpResponse response = ResponseHead(envelope, close);
  const WireStatementResponse& body = envelope.body;
  if (!body.ok) {
    response.body = JsonErrorBody(body);
    return {FormatHttpResponse(response), nullptr};
  }
  std::string head = JsonSuccessHead(envelope);
  if (body.has_result) head += ",\"result\":";
  if (body.has_result && body.result.IsBag() &&
      stream_entries_threshold > 0 &&
      body.result.bag().DistinctCount() >= stream_entries_threshold) {
    return {FormatHttpResponseHead(response, /*chunked=*/true, 0),
            std::make_unique<WireJsonStreamer>(
                std::move(head), body.result, JsonSuccessTail(envelope))};
  }
  response.body = std::move(head);
  if (body.has_result) response.body += ValueToWireJson(body.result);
  response.body += JsonSuccessTail(envelope);
  return {FormatHttpResponse(response), nullptr};
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
                               bool close, size_t stream_entries_threshold) {
  return format == WireFormat::kBinary
             ? EncodeBag1(envelope, close)
             : EncodeJson(envelope, close, stream_entries_threshold);
}

bool AppendStreamChunk(WireJsonStreamer& stream, std::string* out) {
  std::string slice;
  const bool more = stream.Produce(kStreamSliceBytes, &slice);
  AppendHttpChunk(slice, out);
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
