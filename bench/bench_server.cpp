// Server-stack benchmarks: the per-request costs a bagalgd deployment
// actually pays. Three layers, separately measurable so regressions
// localize:
//
//  - envelope parsing (src/net/json_reader) and wire serialization /
//    framing (src/net/wire) as pure CPU microbenches;
//  - full loopback round trips against an in-process Server — one
//    keep-alive connection issuing POST /v1/statement (engine path) and
//    GET /healthz (no-engine path), so the preflight/admission/executor
//    pipeline is on the measured path;
//  - event-loop scaling: pipelined bursts on one connection (syscalls
//    amortized across the batch), a 1000-connection keep-alive fleet with
//    every outcome typed (ok or shed — an untyped failure aborts the
//    bench), the BAG1 binary statement path against its JSON
//    equivalent on both small and large result bags, and four wide
//    results in flight at once on two lanes (serve_wide's shape).
//
// Collected by bench/run_benchmarks.sh into BENCH_bench_server.json.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/value.h"
#include "src/net/http.h"
#include "src/net/io.h"
#include "src/net/json_reader.h"
#include "src/net/server.h"
#include "src/net/wire.h"

namespace bagalg::net {
namespace {

// ------------------------------------------------------------- parsing

void BM_ParseStatementEnvelope(benchmark::State& state) {
  const std::string doc =
      R"js({"session":"bench","statement":"eval uplus(X, X)","timeout_ms":250})js";
  for (auto _ : state) {
    auto parsed = ParseJson(doc);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_ParseStatementEnvelope);

// --------------------------------------------------------------- wire

Bag MakeBag(int64_t entries) {
  Bag::Builder builder(Type::Atom());
  for (int64_t i = 0; i < entries; ++i) {
    builder.Add(Value::Atom(GlobalAtomTable().Intern(
                    "bench_wire_" + std::to_string(i))),
                static_cast<uint64_t>(i + 1));
  }
  return *std::move(builder).Build();
}

void BM_BagToWireJson(benchmark::State& state) {
  const Value bag = Value::FromBag(MakeBag(state.range(0)));
  std::string json;
  for (auto _ : state) {
    json = ValueToWireJson(bag);
    benchmark::DoNotOptimize(json);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(json.size()));
}
BENCHMARK(BM_BagToWireJson)->Arg(8)->Arg(256)->Arg(4096);

void BM_FrameRoundTrip(benchmark::State& state) {
  const std::string payload =
      ValueToWireJson(Value::FromBag(MakeBag(state.range(0))));
  for (auto _ : state) {
    const std::string frame = EncodeFrame(WireFormat::kJson, payload);
    size_t consumed = 0;
    auto decoded = DecodeFrame(frame, &consumed);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_FrameRoundTrip)->Arg(8)->Arg(4096);

// A result shaped like perfbench's serve_wide bags: 4096 distinct pairs
// [a<i>, b<j>] over 200 atoms a side, one count in twenty past 2^64.
Value WideBag() {
  constexpr uint64_t kSide = 200;
  const auto atom = [](char prefix, uint64_t i) {
    std::string name(1, prefix);
    name += std::to_string(i);
    return Value::Atom(GlobalAtom(name));
  };
  Bag::Builder builder(Type::FlatTuple(2));
  for (uint64_t k = 0; k < 4096; ++k) {
    // 9973 is prime to 200^2, so the pairs are distinct.
    const uint64_t pair = k * 9973 % (kSide * kSide);
    const Value tuple =
        Value::Tuple({atom('a', pair / kSide), atom('b', pair % kSide)});
    builder.Add(tuple, k % 20 == 0 ? BigNat::TwoPow(64) + BigNat(k)
                                   : BigNat(1 + k % 9));
  }
  return Value::FromBag(*std::move(builder).Build());
}

// Wire-JSON encoding of the wide bag while range(0) other threads render
// it as text, as bagalgd's loop thread encodes while the executor lanes
// render `output`. cpu_time is the encoding thread's own CPU, so the
// /2 : /0 ratio measures what printing costs under contention (a lock or
// a shared cache line per atom), not how the host time-slices threads.
void BM_WireJsonWhileRendering(benchmark::State& state) {
  const Value bag = WideBag();
  std::atomic<bool> stop{false};
  std::vector<std::thread> renderers;
  for (int64_t i = 0; i < state.range(0); ++i) {
    renderers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        benchmark::DoNotOptimize(bag.ToString());
      }
    });
  }
  std::string json;
  for (auto _ : state) {
    json = ValueToWireJson(bag);
    benchmark::DoNotOptimize(json);
  }
  stop.store(true);
  for (std::thread& t : renderers) t.join();
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(json.size()));
}
BENCHMARK(BM_WireJsonWhileRendering)->Arg(0)->Arg(2);

// ------------------------------------------------------------ loopback

// One keep-alive connection to an in-process server. The response parser
// is deliberately minimal: read headers, then Content-Length body bytes.
class LoopbackClient {
 public:
  explicit LoopbackClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~LoopbackClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  bool ok() const { return fd_ >= 0; }

  static std::string BuildRequest(const std::string& method,
                                  const std::string& path,
                                  const std::string& body,
                                  const std::string& content_type =
                                      "application/json") {
    return method + " " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: " +
           content_type + "\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
  }

  bool SendRaw(const std::string& bytes) { return WriteAll(fd_, bytes).ok(); }

  // Reads one Content-Length or chunked response from the connection's
  // buffer, refilling from the socket as needed. Returns the HTTP status,
  // with -1 on connection failure; *bytes (optional) gets the response
  // size.
  int ReadResponseStatus(size_t* bytes = nullptr) {
    // Cursor-based: pipelined responses pile up in buf_ and each call
    // advances pos_ instead of memmoving the tail — the per-response cost
    // is one bounded scan, so the client does not dominate the bench.
    size_t header_end;
    while ((header_end = buf_.find("\r\n\r\n", pos_)) == std::string::npos) {
      if (!Refill()) return -1;
    }
    size_t total = header_end + 4;
    const size_t chunked = buf_.find("Transfer-Encoding: chunked", pos_);
    if (chunked != std::string::npos && chunked < header_end) {
      // Chunk by chunk up to the zero-length one and its blank line.
      while (true) {
        size_t line_end;
        while ((line_end = buf_.find("\r\n", total)) == std::string::npos) {
          if (!Refill()) return -1;
        }
        const size_t len = static_cast<size_t>(
            std::strtoull(buf_.c_str() + total, nullptr, 16));
        total = line_end + 2 + len + 2;
        while (buf_.size() < total) {
          if (!Refill()) return -1;
        }
        if (len == 0) break;
      }
    } else {
      const size_t cl = buf_.find("Content-Length: ", pos_);
      if (cl == std::string::npos || cl > header_end) return -1;
      total += static_cast<size_t>(
          std::strtoull(buf_.c_str() + cl + 16, nullptr, 10));
      while (buf_.size() < total) {
        if (!Refill()) return -1;
      }
    }
    const int status = std::atoi(buf_.c_str() + pos_ + 9);
    if (bytes != nullptr) *bytes = total - pos_;
    pos_ = total;
    if (pos_ == buf_.size()) {
      buf_.clear();
      pos_ = 0;
    } else if (pos_ > (1u << 20)) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    return status;
  }

  // Returns the raw response (headers + body), empty on failure.
  std::string RoundTrip(const std::string& method, const std::string& path,
                        const std::string& body) {
    const std::string request = method + " " + path +
                                " HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
                                std::to_string(body.size()) + "\r\n\r\n" + body;
    if (!WriteAll(fd_, request).ok()) return "";
    std::string response;
    size_t header_end = std::string::npos;
    size_t content_length = 0;
    char chunk[8192];
    while (true) {
      if (header_end == std::string::npos) {
        header_end = response.find("\r\n\r\n");
        if (header_end != std::string::npos) {
          const size_t cl = response.find("Content-Length: ");
          if (cl == std::string::npos || cl > header_end) return "";
          content_length = static_cast<size_t>(
              std::strtoull(response.c_str() + cl + 16, nullptr, 10));
        }
      }
      if (header_end != std::string::npos &&
          response.size() >= header_end + 4 + content_length) {
        return response;
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      response.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  bool Refill() {
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

uint16_t SharedServerPort() {
  static const uint16_t port = [] {
    ServerOptions options;
    options.executors = 2;
    // Leaked deliberately: the server serves every benchmark iteration
    // until process exit.
    auto started = Server::Start(std::move(options));
    static std::unique_ptr<Server> server = std::move(*started);
    LoopbackClient setup(server->port());
    setup.RoundTrip(
        "POST", "/v1/statement",
        R"js({"session":"bench","statement":"let X = {{a, a, b, c}}"})js");
    // A 256-entry bag for the serialization-bound benches (under the
    // 512-entry streaming threshold, so responses use Content-Length).
    std::string literal = "let BIG = {{";
    for (int i = 0; i < 256; ++i) {
      if (i != 0) literal += ", ";
      literal += "w" + std::to_string(i);
    }
    literal += "}}";
    setup.RoundTrip("POST", "/v1/statement",
                    "{\"session\":\"bench\",\"statement\":\"" + literal +
                        "\"}");
    return server->port();
  }();
  return port;
}

void BM_LoopbackStatement(benchmark::State& state) {
  LoopbackClient client(SharedServerPort());
  if (!client.ok()) {
    state.SkipWithError("loopback connect failed");
    return;
  }
  const std::string body =
      R"js({"session":"bench","statement":"eval uplus(X, X)"})js";
  for (auto _ : state) {
    const std::string response =
        client.RoundTrip("POST", "/v1/statement", body);
    if (response.find("\"outcome\":\"ok\"") == std::string::npos) {
      state.SkipWithError("statement round trip failed");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LoopbackStatement);

void BM_LoopbackHealthz(benchmark::State& state) {
  LoopbackClient client(SharedServerPort());
  if (!client.ok()) {
    state.SkipWithError("loopback connect failed");
    return;
  }
  for (auto _ : state) {
    const std::string response = client.RoundTrip("GET", "/healthz", "");
    if (response.find("200 OK") == std::string::npos) {
      state.SkipWithError("healthz round trip failed");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LoopbackHealthz);

void BM_LoopbackStatementPipelined(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  LoopbackClient client(SharedServerPort());
  if (!client.ok()) {
    state.SkipWithError("loopback connect failed");
    return;
  }
  const std::string request = LoopbackClient::BuildRequest(
      "POST", "/v1/statement",
      R"js({"session":"bench","statement":"eval uplus(X, X)"})js");
  std::string batch;
  for (int i = 0; i < depth; ++i) batch += request;
  for (auto _ : state) {
    if (!client.SendRaw(batch)) {
      state.SkipWithError("pipelined write failed");
      return;
    }
    for (int i = 0; i < depth; ++i) {
      if (client.ReadResponseStatus() != 200) {
        state.SkipWithError("pipelined response not ok");
        return;
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * depth);
}
BENCHMARK(BM_LoopbackStatementPipelined)->Arg(16)->Arg(64);

void BM_LoopbackStatementBag1(benchmark::State& state) {
  LoopbackClient client(SharedServerPort());
  if (!client.ok()) {
    state.SkipWithError("loopback connect failed");
    return;
  }
  WireStatementRequest statement;
  statement.session = "bench";
  statement.statement = "eval uplus(X, X)";
  const std::string request = LoopbackClient::BuildRequest(
      "POST", "/v1/statement",
      EncodeFrame(WireFormat::kBinary, EncodeStatementRequest(statement)),
      "application/x-bag1");
  for (auto _ : state) {
    if (!client.SendRaw(request) || client.ReadResponseStatus() != 200) {
      state.SkipWithError("bag1 round trip failed");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LoopbackStatementBag1);

// The serialization-bound pair: the same 256-entry stored bag fetched as
// a JSON envelope and as a BAG1 binary frame. The delta is the price of
// JSON quoting/escaping plus client-side re-parse avoidance.
void LargeBagRoundTrips(benchmark::State& state, const char* content_type,
                        const std::string& request) {
  LoopbackClient client(SharedServerPort());
  if (!client.ok()) {
    state.SkipWithError("loopback connect failed");
    return;
  }
  (void)content_type;
  int64_t bytes = 0;
  for (auto _ : state) {
    size_t response_bytes = 0;
    if (!client.SendRaw(request) ||
        client.ReadResponseStatus(&response_bytes) != 200) {
      state.SkipWithError("large-bag round trip failed");
      return;
    }
    bytes += static_cast<int64_t>(response_bytes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(bytes);
}

void BM_LoopbackLargeBagJson(benchmark::State& state) {
  LargeBagRoundTrips(
      state, "application/json",
      LoopbackClient::BuildRequest(
          "POST", "/v1/statement",
          R"js({"session":"bench","statement":"eval BIG"})js"));
}
BENCHMARK(BM_LoopbackLargeBagJson);

void BM_LoopbackLargeBagBag1(benchmark::State& state) {
  WireStatementRequest statement;
  statement.session = "bench";
  statement.statement = "eval BIG";
  LargeBagRoundTrips(
      state, "application/x-bag1",
      LoopbackClient::BuildRequest(
          "POST", "/v1/statement",
          EncodeFrame(WireFormat::kBinary, EncodeStatementRequest(statement)),
          "application/x-bag1"));
}
BENCHMARK(BM_LoopbackLargeBagBag1);

// The headline event-loop bench: a fleet of keep-alive connections, every
// one with a statement in flight before any response is read. Each
// outcome must be typed — 200 served or 429/503 shed; anything else
// (torn connection, untyped status) aborts the benchmark.
void BM_LoopbackConcurrentKeepAlive(benchmark::State& state) {
  const int fleet = static_cast<int>(state.range(0));
  static const uint16_t port = [] {
    ServerOptions options;
    options.executors = 4;
    options.queue_capacity = 2048;
    auto started = Server::Start(std::move(options));
    static std::unique_ptr<Server> server = std::move(*started);
    return server->port();
  }();
  std::vector<std::unique_ptr<LoopbackClient>> clients;
  clients.reserve(static_cast<size_t>(fleet));
  for (int i = 0; i < fleet; ++i) {
    auto client = std::make_unique<LoopbackClient>(port);
    if (!client->ok()) {
      state.SkipWithError("fleet connect failed");
      return;
    }
    clients.push_back(std::move(client));
  }
  std::vector<std::string> requests;
  requests.reserve(8);
  for (int s = 0; s < 8; ++s) {
    requests.push_back(LoopbackClient::BuildRequest(
        "POST", "/v1/statement",
        "{\"session\":\"fleet" + std::to_string(s) +
            "\",\"statement\":\"count '{{a, b}}\"}"));
  }
  int64_t served = 0, shed = 0;
  for (auto _ : state) {
    for (int i = 0; i < fleet; ++i) {
      if (!clients[static_cast<size_t>(i)]->SendRaw(
              requests[static_cast<size_t>(i % 8)])) {
        state.SkipWithError("fleet write failed");
        return;
      }
    }
    for (int i = 0; i < fleet; ++i) {
      const int status =
          clients[static_cast<size_t>(i)]->ReadResponseStatus();
      if (status == 200) {
        ++served;
      } else if (status == 429 || status == 503) {
        ++shed;
      } else {
        state.SkipWithError("untyped outcome in fleet");
        return;
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * fleet);
  state.counters["served"] =
      benchmark::Counter(static_cast<double>(served));
  state.counters["shed"] = benchmark::Counter(static_cast<double>(shed));
}
BENCHMARK(BM_LoopbackConcurrentKeepAlive)
    ->Arg(128)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// serve_wide's shape on two lanes: four keep-alive connections, each with
// its own session holding a 4096-entry bag of pairs (1 in 20 counts past
// 2^64), and each with one `eval` of it in flight before any response is
// read — two as JSON (streamed: past the 512-entry threshold), two as
// BAG1. What it measures is how much of the encoding runs in parallel.
void BM_LoopbackWideInFlight(benchmark::State& state) {
  constexpr int kConns = 4;
  static const uint16_t port = [] {
    ServerOptions options;
    options.executors = 2;
    auto started = Server::Start(std::move(options));
    static std::unique_ptr<Server> server = std::move(*started);
    std::string literal = "let W = {{";
    for (int i = 0; i < 4096; ++i) {
      if (i != 0) literal += ", ";
      literal += "[a" + std::to_string(i / 64) + ", b" +
                 std::to_string(i % 64) + "]*";
      literal += i % 20 == 0 ? "18446744073709551616" : std::to_string(i % 9 + 1);
    }
    literal += "}}";
    for (int c = 0; c < kConns; ++c) {
      LoopbackClient setup(server->port());
      setup.RoundTrip("POST", "/v1/statement",
                      "{\"session\":\"wide" + std::to_string(c) +
                          "\",\"statement\":\"" + literal + "\"}");
    }
    return server->port();
  }();
  std::vector<std::unique_ptr<LoopbackClient>> clients;
  std::vector<std::string> requests;
  for (int c = 0; c < kConns; ++c) {
    clients.push_back(std::make_unique<LoopbackClient>(port));
    if (!clients.back()->ok()) {
      state.SkipWithError("loopback connect failed");
      return;
    }
    const std::string session = "wide" + std::to_string(c);
    if (c % 2 == 0) {
      requests.push_back(LoopbackClient::BuildRequest(
          "POST", "/v1/statement",
          "{\"session\":\"" + session + "\",\"statement\":\"eval W\"}"));
    } else {
      WireStatementRequest statement;
      statement.session = session;
      statement.statement = "eval W";
      requests.push_back(LoopbackClient::BuildRequest(
          "POST", "/v1/statement",
          EncodeFrame(WireFormat::kBinary, EncodeStatementRequest(statement)),
          "application/x-bag1"));
    }
  }
  int64_t bytes = 0;
  for (auto _ : state) {
    for (int c = 0; c < kConns; ++c) {
      if (!clients[static_cast<size_t>(c)]->SendRaw(
              requests[static_cast<size_t>(c)])) {
        state.SkipWithError("wide write failed");
        return;
      }
    }
    for (int c = 0; c < kConns; ++c) {
      size_t response_bytes = 0;
      if (clients[static_cast<size_t>(c)]->ReadResponseStatus(
              &response_bytes) != 200) {
        state.SkipWithError("wide response not ok");
        return;
      }
      bytes += static_cast<int64_t>(response_bytes);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kConns);
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_LoopbackWideInFlight)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bagalg::net

BENCHMARK_MAIN();
