#include "src/net/http.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "src/util/status.h"

namespace bagalg::net {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

Status ParseRequestHead(std::string_view head, HttpRequest* out) {
  const size_t line_end = head.find("\r\n");
  const std::string_view request_line = head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return Status::ParseError("http: malformed request line");
  }
  out->method = std::string(request_line.substr(0, sp1));
  std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return Status::ParseError("http: unsupported version");
  }
  out->http11 = version == "HTTP/1.1";
  if (target.empty() || target[0] != '/') {
    return Status::ParseError("http: bad request target");
  }
  const size_t q = target.find('?');
  out->path = std::string(target.substr(0, q));
  out->query =
      q == std::string_view::npos ? "" : std::string(target.substr(q + 1));

  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::ParseError("http: malformed header line");
    }
    const std::string name = ToLower(Trim(line.substr(0, colon)));
    if (name.empty()) return Status::ParseError("http: empty header name");
    out->headers[name] = std::string(Trim(line.substr(colon + 1)));
  }
  return Status::Ok();
}

}  // namespace

bool RequestWantsClose(const HttpRequest& request) {
  if (!request.http11) return true;  // no HTTP/1.0 keep-alive
  const auto it = request.headers.find("connection");
  return it != request.headers.end() &&
         ToLower(it->second).find("close") != std::string::npos;
}

// ------------------------------------------------------------ HttpReader

void HttpReader::Feed(std::string_view bytes) {
  // Compact before growing: once the consumed prefix dominates the buffer
  // (heavy pipelining), shift the live bytes down so memory stays bounded
  // by the in-flight data, not the connection's lifetime traffic.
  if (pos_ > 4096 && pos_ >= buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    scan_ -= pos_;
    if (have_head_) body_start_ -= pos_;
    pos_ = 0;
  }
  buffer_.append(bytes);
}

Result<bool> HttpReader::Next(HttpRequest* out) {
  if (!have_head_) {
    // Hunt for the head terminator, resuming where the last scan stopped
    // (minus 3 so a terminator split across Feed calls is still found).
    const size_t from = std::max(pos_, scan_ >= 3 ? scan_ - 3 : pos_);
    const size_t head_end = buffer_.find("\r\n\r\n", from);
    scan_ = buffer_.size();
    if (head_end == std::string::npos) {
      // The cap applies to *this request's* header bytes — everything
      // from pos_ — never to leftovers of previously parsed requests.
      if (buffer_.size() - pos_ > limits_.max_header_bytes) {
        return Status::ResourceExhausted(
            "http: header block exceeds " +
            std::to_string(limits_.max_header_bytes) + " bytes");
      }
      return false;
    }
    pending_ = HttpRequest();
    if (head_end - pos_ > limits_.max_header_bytes) {
      return Status::ResourceExhausted(
          "http: header block exceeds " +
          std::to_string(limits_.max_header_bytes) + " bytes");
    }
    BAGALG_RETURN_IF_ERROR(ParseRequestHead(
        std::string_view(buffer_).substr(pos_, head_end - pos_), &pending_));
    body_len_ = 0;
    if (auto it = pending_.headers.find("content-length");
        it != pending_.headers.end()) {
      char* end = nullptr;
      const unsigned long long v =
          std::strtoull(it->second.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || it->second.empty()) {
        return Status::ParseError("http: bad Content-Length");
      }
      if (v > limits_.max_body_bytes) {
        return Status::ResourceExhausted(
            "http: body of " + it->second + " bytes exceeds cap of " +
            std::to_string(limits_.max_body_bytes));
      }
      body_len_ = static_cast<size_t>(v);
    }
    if (pending_.headers.count("transfer-encoding") != 0) {
      return Status::ParseError("http: chunked bodies unsupported");
    }
    body_start_ = head_end + 4;
    have_head_ = true;
  }
  if (buffer_.size() < body_start_ + body_len_) return false;
  pending_.body = buffer_.substr(body_start_, body_len_);
  *out = std::move(pending_);
  pending_ = HttpRequest();
  // Bytes after the body — the next pipelined request — stay buffered.
  pos_ = body_start_ + body_len_;
  scan_ = pos_;
  have_head_ = false;
  return true;
}

std::string FormatHttpResponseHead(const HttpResponse& response, bool chunked,
                                   size_t content_length) {
  std::string out;
  out.reserve(256);
  out.append("HTTP/1.1 ");
  out.append(std::to_string(response.status));
  out.push_back(' ');
  out.append(HttpReasonPhrase(response.status));
  out.append("\r\nContent-Type: ");
  out.append(response.content_type);
  if (chunked) {
    out.append("\r\nTransfer-Encoding: chunked");
  } else {
    out.append("\r\nContent-Length: ");
    out.append(std::to_string(content_length));
  }
  for (const auto& [name, value] : response.extra_headers) {
    out.append("\r\n");
    out.append(name);
    out.append(": ");
    out.append(value);
  }
  if (response.close) out.append("\r\nConnection: close");
  out.append("\r\n\r\n");
  return out;
}

std::string FormatHttpResponse(const HttpResponse& response) {
  std::string out =
      FormatHttpResponseHead(response, /*chunked=*/false,
                             response.body.size());
  out.append(response.body);
  return out;
}

void AppendHttpChunk(std::string_view data, std::string* out) {
  if (data.empty()) return;
  char size_line[32];
  const int n =
      std::snprintf(size_line, sizeof(size_line), "%zx\r\n", data.size());
  out->append(size_line, static_cast<size_t>(n));
  out->append(data);
  out->append("\r\n");
}

void AppendHttpLastChunk(std::string* out) { out->append("0\r\n\r\n"); }

const char* HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Content";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 499: return "Client Closed Request";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 507: return "Insufficient Storage";
    default:  return "Status";
  }
}

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kTypeError:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kUnsupported:
      return 501;
    // Admission refusal (E001): the statement was never executed and never
    // will be — a client bug or an oversized ask, not server load.
    case StatusCode::kBudgetExceeded:
      return 422;
    // Governor memcap trip: the statement ran and outgrew its cap.
    case StatusCode::kResourceExhausted:
      return 507;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kCancelled:
      return 499;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

}  // namespace bagalg::net
