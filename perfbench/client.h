#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

/// \file client.h
/// The load generator's view of bagalgd: the server as a child process
/// (spawn, /proc sampling, stop), non-blocking client sockets, an
/// incremental HTTP/1.1 response parser (Content-Length and chunked
/// bodies), and a Prometheus text parser for /metrics scrapes.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/result.h"

namespace perfbench {

/// Monotonic clock in nanoseconds.
uint64_t NowNs();

struct HttpResponseMessage {
  int status = 0;
  std::string body;  // de-chunked
};

/// Incremental response parser for one keep-alive connection.
class ResponseParser {
 public:
  void Feed(const char* data, size_t n) { buffer_.append(data, n); }
  /// ok(true): *out holds the next response. ok(false): need more bytes.
  /// Error: the byte stream is not HTTP/1.1 the parser understands.
  bagalg::Result<bool> Next(HttpResponseMessage* out);

 private:
  std::string buffer_;
  size_t pos_ = 0;
};

/// A connected loopback TCP client socket (non-blocking, TCP_NODELAY).
/// Owns the descriptor.
class ClientSocket {
 public:
  ClientSocket() = default;
  ~ClientSocket();
  ClientSocket(const ClientSocket&) = delete;
  ClientSocket& operator=(const ClientSocket&) = delete;
  ClientSocket(ClientSocket&& other) noexcept;
  ClientSocket& operator=(ClientSocket&& other) noexcept;

  static bagalg::Result<ClientSocket> Connect(uint16_t port);
  int fd() const { return fd_; }

  /// Blocking request/response for setup and scrapes: writes `request`
  /// whole, then reads until `count` responses are parsed.
  bagalg::Result<std::vector<HttpResponseMessage>> Exchange(
      const std::string& request, size_t count, ResponseParser* parser,
      int timeout_ms);

 private:
  void Close();

  int fd_ = -1;
};

/// CPU time and peak memory of a process, from /proc/<pid>/{stat,status}.
struct ProcSample {
  uint64_t cpu_us = 0;     // utime + stime
  uint64_t hwm_kb = 0;     // VmHWM
};

/// The server under test, started as its own process. The destructor
/// stops it (SIGTERM, then SIGKILL after a grace period) and reaps it.
class ServerProcess {
 public:
  /// Starts `binary` with `args`, BAGALG_THREADS=`threads`, stderr to
  /// `log_path`, and waits for its "bagalgd listening on HOST:PORT" line.
  static bagalg::Result<ServerProcess> Spawn(const std::string& binary,
                                             const std::vector<std::string>& args,
                                             unsigned threads,
                                             const std::string& log_path);
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ServerProcess(ServerProcess&& other) noexcept;
  ServerProcess& operator=(ServerProcess&& other) noexcept;

  uint16_t port() const { return port_; }
  bagalg::Result<ProcSample> Sample() const;
  /// Graceful stop; ok when the server exited with status 0.
  bagalg::Status Stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// Prometheus text exposition → sample ("name{labels}") → value.
std::map<std::string, double> ParsePrometheus(const std::string& text);

/// The exposition name of a registry metric: "server.outcome.ok" →
/// "bagalg_server_outcome_ok".
std::string PromName(const std::string& metric);

/// Quantile q of a histogram given as the difference of two scrapes of
/// its cumulative pow-2 buckets, linearly interpolated inside the bucket.
double HistogramDeltaQuantile(const std::map<std::string, double>& before,
                              const std::map<std::string, double>& after,
                              const std::string& metric, double q);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
