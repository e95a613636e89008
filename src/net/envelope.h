#ifndef BAGALG_NET_ENVELOPE_H_
#define BAGALG_NET_ENVELOPE_H_

/// \file envelope.h
/// bagalgd's response envelopes: what a statement (or a refused request on
/// any endpoint) answers, independent of the wire format, and the one
/// encoder per format that turns it into HTTP bytes. The connection code
/// builds an Envelope and never sees a body shape.
///
///   JSON success  {"ok":true,"outcome":"ok","session":S,"output":O,
///                  "result":R,"wall_us":N}        ("result" only if set)
///   JSON error    {"ok":false,"outcome":W,"error":{"code":C,"message":M,
///                  "retryable":B},"flight":F}     ("flight" only if set)
///   BAG1          one binary frame around EncodeStatementResponse(body)
///
/// A JSON success whose result bag reaches the stream threshold is sent
/// chunked: the same head and tail around a WireJsonStreamer. Every chunk
/// is one Produce(kStreamSliceBytes) call, so the chunk boundaries are the
/// same whichever thread produces which chunk.
///
/// Each body is written once, into the buffer that is sent: the HTTP head
/// goes first with a Content-Length guessed from the body's estimate (and
/// corrected at the end, moving the body only if the digit count was
/// wrong), then the JSON fields or the BAG1 frame header and payload. The
/// estimate reserves at most kMaxGuessedReserveBytes up front. A
/// streamed chunk's slice is produced in place after its size line. A
/// BAG1 result whose frame would pass the frame cap (kMaxFrameBytes, which
/// DecodeFrame enforces) is not sent: the answer is the cap's typed
/// kResourceExhausted error, a 507, with outcome "error".

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/core/value.h"
#include "src/net/wire.h"
#include "src/util/status.h"

namespace bagalg::net {

struct Envelope {
  int http_status = 200;
  std::string session;      // named in JSON success bodies
  std::string retry_after;  // nonempty → Retry-After header
  WireStatementResponse body;
};

/// A 200 carrying a statement's output and, if any, its structured result.
Envelope SuccessEnvelope(std::string session, std::string output,
                         std::optional<Value> result, uint64_t wall_us);

/// A refusal or failure: outcome StatementOutcome(status, no trip), error
/// code, message and retryable bit from `status`, and Retry-After: 1 when
/// the status is retryable. Callers that know better (a governor trip, a
/// computed retry delay) overwrite the fields.
Envelope ErrorEnvelope(int http_status, const Status& status);

/// An encoded response: complete HTTP bytes, or — when streamed — the
/// chunked head with `stream` producing the body.
struct EncodedEnvelope {
  std::string bytes;
  std::unique_ptr<WireJsonStreamer> stream;
  /// The outcome word of what `bytes` answer: the envelope's own, or
  /// "error" when a BAG1 result passed the frame cap.
  std::string outcome;
};

/// Body bytes asked of the streamer per chunk.
inline constexpr size_t kStreamSliceBytes = 64 * 1024;
/// How much of a streamed body the executor lane encodes (four chunks)
/// before it hands the rest to the event loop. It bounds what a queued
/// response holds, so it is a constant, not an option.
inline constexpr size_t kLaneEncodeBytes = 4 * kStreamSliceBytes;

/// Encodes `envelope` as BAG1 or JSON. A JSON success whose result bag has
/// at least `stream_entries_threshold` entries (0 = never) streams.
/// `close` adds Connection: close. A BAG1 payload past `max_frame_bytes`
/// is answered with the cap's 507 instead.
EncodedEnvelope EncodeEnvelope(const Envelope& envelope, WireFormat format,
                               bool close,
                               size_t stream_entries_threshold = 0,
                               size_t max_frame_bytes = kMaxFrameBytes);

/// Appends the next chunk of `stream` to `out`, and the terminating chunk
/// after the last; the slice is produced straight into `out`. Returns true
/// while more of the body remains.
bool AppendStreamChunk(WireJsonStreamer& stream, std::string* out);

/// Appends chunks of a streamed body to `encoded->bytes` until the body
/// ends (the streamer is then dropped) or at least `budget` bytes have been
/// appended. Appending the rest with AppendStreamChunk then gives the same
/// bytes as appending every chunk that way.
void PrestreamEncoded(EncodedEnvelope* encoded, size_t budget);

}  // namespace bagalg::net

#endif  // BAGALG_NET_ENVELOPE_H_
