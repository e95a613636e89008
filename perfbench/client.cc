#include "perfbench/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {

using bagalg::Result;
using bagalg::Status;

uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// --------------------------------------------------------------- parser

namespace {

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

}  // namespace

Result<bool> ResponseParser::Next(HttpResponseMessage* out) {
  const size_t head_end = buffer_.find("\r\n\r\n", pos_);
  if (head_end == std::string::npos) return false;
  // Status line: HTTP/1.1 NNN Reason
  const size_t line_end = buffer_.find("\r\n", pos_);
  const std::string status_line = buffer_.substr(pos_, line_end - pos_);
  if (status_line.rfind("HTTP/1.", 0) != 0 || status_line.size() < 12) {
    return Status::ParseError("bad HTTP status line: " + status_line);
  }
  const int status = std::atoi(status_line.c_str() + 9);
  size_t content_length = 0;
  bool chunked = false;
  size_t at = line_end + 2;
  while (at < head_end) {
    const size_t eol = buffer_.find("\r\n", at);
    const std::string line = buffer_.substr(at, eol - at);
    at = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string name = Lower(line.substr(0, colon));
    std::string value = line.substr(colon + 1);
    value.erase(0, value.find_first_not_of(' '));
    if (name == "content-length") {
      content_length = static_cast<size_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else if (name == "transfer-encoding") {
      chunked = Lower(value).find("chunked") != std::string::npos;
    }
  }
  size_t body_at = head_end + 4;
  std::string body;
  if (!chunked) {
    if (buffer_.size() - body_at < content_length) return false;
    body = buffer_.substr(body_at, content_length);
    body_at += content_length;
  } else {
    while (true) {
      const size_t eol = buffer_.find("\r\n", body_at);
      if (eol == std::string::npos) return false;
      const size_t size = static_cast<size_t>(
          std::strtoull(buffer_.c_str() + body_at, nullptr, 16));
      const size_t data_at = eol + 2;
      if (buffer_.size() < data_at + size + 2) return false;
      if (size == 0) {
        body_at = data_at + 2;  // the empty trailer section
        break;
      }
      body.append(buffer_, data_at, size);
      body_at = data_at + size + 2;
    }
  }
  out->status = status;
  out->body = std::move(body);
  pos_ = body_at;
  if (pos_ > (1u << 20) && pos_ * 2 > buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  } else if (pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  }
  return true;
}

// --------------------------------------------------------------- socket

ClientSocket::~ClientSocket() { Close(); }

ClientSocket::ClientSocket(ClientSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

ClientSocket& ClientSocket::operator=(ClientSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void ClientSocket::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Result<ClientSocket> ClientSocket::Connect(uint16_t port) {
  ClientSocket sock;
  sock.fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (sock.fd_ < 0) return Status::Internal("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(sock.fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Status::Unavailable("connect to bagalgd failed: " +
                               std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(sock.fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(sock.fd_, F_SETFL, ::fcntl(sock.fd_, F_GETFL) | O_NONBLOCK);
  return sock;
}

Result<std::vector<HttpResponseMessage>> ClientSocket::Exchange(
    const std::string& request, size_t count, ResponseParser* parser,
    int timeout_ms) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(timeout_ms) * 1000000ull;
  size_t written = 0;
  std::vector<HttpResponseMessage> out;
  char buf[64 * 1024];
  while (out.size() < count) {
    HttpResponseMessage msg;
    BAGALG_ASSIGN_OR_RETURN(bool got, parser->Next(&msg));
    if (got) {
      out.push_back(std::move(msg));
      continue;
    }
    const uint64_t now = NowNs();
    if (now >= deadline) return Status::DeadlineExceeded("bagalgd did not answer");
    pollfd p{fd_, static_cast<short>(POLLIN | (written < request.size() ? POLLOUT : 0)), 0};
    ::poll(&p, 1, static_cast<int>((deadline - now) / 1000000ull) + 1);
    if (written < request.size() && (p.revents & POLLOUT)) {
      const ssize_t n = ::send(fd_, request.data() + written,
                               request.size() - written, MSG_NOSIGNAL);
      if (n < 0 && errno != EAGAIN && errno != EINTR) {
        return Status::Unavailable("send to bagalgd failed");
      }
      if (n > 0) written += static_cast<size_t>(n);
    }
    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return Status::Unavailable("bagalgd closed the connection");
      if (n < 0 && errno != EAGAIN && errno != EINTR) {
        return Status::Unavailable("recv from bagalgd failed");
      }
      if (n > 0) parser->Feed(buf, static_cast<size_t>(n));
    }
  }
  return out;
}

// -------------------------------------------------------------- process

Result<ServerProcess> ServerProcess::Spawn(const std::string& binary,
                                           const std::vector<std::string>& args,
                                           unsigned threads,
                                           const std::string& log_path) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) return Status::Internal("pipe2 failed");
  const int log_fd = ::open(log_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  std::vector<std::string> argv_store = {binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string threads_env = std::to_string(threads);

  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    // The server dies with the benchmark, whatever ends the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    ::setenv("BAGALG_THREADS", threads_env.c_str(), 1);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  if (log_fd >= 0) ::close(log_fd);

  ServerProcess server;
  server.pid_ = pid;
  server.stdout_fd_ = pipe_fds[0];
  std::string seen;
  const uint64_t deadline = NowNs() + 30ull * 1000000000ull;
  const std::string marker = "bagalgd listening on ";
  while (true) {
    const size_t at = seen.find(marker);
    const size_t eol = at == std::string::npos ? at : seen.find('\n', at);
    if (eol != std::string::npos) {
      const std::string addr = seen.substr(at + marker.size(), eol - at - marker.size());
      server.port_ = static_cast<uint16_t>(
          std::atoi(addr.c_str() + addr.rfind(':') + 1));
      return server;
    }
    const uint64_t now = NowNs();
    if (now >= deadline) return Status::DeadlineExceeded("bagalgd did not start");
    pollfd p{server.stdout_fd_, POLLIN, 0};
    ::poll(&p, 1, static_cast<int>((deadline - now) / 1000000ull) + 1);
    char buf[512];
    const ssize_t n = ::read(server.stdout_fd_, buf, sizeof(buf));
    if (n == 0) return Status::Unavailable("bagalgd exited during start-up");
    if (n > 0) seen.append(buf, static_cast<size_t>(n));
  }
}

ServerProcess::~ServerProcess() { (void)Stop(); }

ServerProcess::ServerProcess(ServerProcess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      stdout_fd_(std::exchange(other.stdout_fd_, -1)),
      port_(other.port_) {}

ServerProcess& ServerProcess::operator=(ServerProcess&& other) noexcept {
  if (this != &other) {
    (void)Stop();
    pid_ = std::exchange(other.pid_, -1);
    stdout_fd_ = std::exchange(other.stdout_fd_, -1);
    port_ = other.port_;
  }
  return *this;
}

Result<ProcSample> ServerProcess::Sample() const {
  ProcSample s;
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return Status::Unavailable("no /proc stat");
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  const uint64_t hz = static_cast<uint64_t>(::sysconf(_SC_CLK_TCK));
  s.cpu_us = (utime + stime) * 1000000ull / hz;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      s.hwm_kb = std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return s;
}

Status ServerProcess::Stop() {
  if (pid_ <= 0) return Status::Ok();
  ::kill(pid_, SIGTERM);
  int wstatus = 0;
  bool exited = false;
  const uint64_t deadline = NowNs() + 15ull * 1000000000ull;
  while (NowNs() < deadline) {
    const pid_t r = ::waitpid(pid_, &wstatus, WNOHANG);
    if (r == pid_) {
      exited = true;
      break;
    }
    ::usleep(5000);
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &wstatus, 0);
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  if (!exited) return Status::DeadlineExceeded("bagalgd did not drain; killed");
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("bagalgd exited abnormally");
  }
  return Status::Ok();
}

// ----------------------------------------------------------- prometheus

std::map<std::string, double> ParsePrometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

std::string PromName(const std::string& metric) {
  std::string out = "bagalg_";
  for (const char c : metric) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out;
}

double HistogramDeltaQuantile(const std::map<std::string, double>& before,
                              const std::map<std::string, double>& after,
                              const std::string& metric, double q) {
  const std::string prefix = PromName(metric) + "_bucket{le=\"";
  // Collect (upper bound, delta cumulative count), finite buckets first.
  std::vector<std::pair<double, double>> buckets;
  double total = 0;
  for (auto it = after.lower_bound(prefix);
       it != after.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    const std::string le = it->first.substr(
        prefix.size(), it->first.size() - prefix.size() - 2);
    const auto b = before.find(it->first);
    const double delta = it->second - (b == before.end() ? 0 : b->second);
    if (le == "+Inf") {
      total = delta;
    } else {
      buckets.emplace_back(std::strtod(le.c_str(), nullptr), delta);
    }
  }
  if (total <= 0) return 0;
  std::sort(buckets.begin(), buckets.end());
  const double rank = q * total;
  double lower = 0, below = 0;
  for (const auto& [upper, cumulative] : buckets) {
    if (cumulative >= rank) {
      const double in_bucket = cumulative - below;
      const double frac = in_bucket > 0 ? (rank - below) / in_bucket : 1.0;
      return lower + frac * (upper - lower);
    }
    lower = upper;
    below = cumulative;
  }
  return lower;
}

}  // namespace perfbench
