// perfbench — the repository benchmark: bagalgd under one traffic mix.
//
//   perfbench --workload serve_small|exec_heavy|serve_wide --seed N
//             --seconds S --trace 0|1 --server PATH --out-dir DIR
//
// Starts bagalgd as its own process (several times, to time set-up),
// loads the workload's seeded session data, drives the statement stream
// from this one single-threaded process for S seconds after a warm-up,
// checks every response against the in-process Evaluator oracle,
// reconciles the server's /metrics outcome counters with its own counts,
// and prints every metric by name and unit. The last stdout line is the
// JSON result: end-to-end metrics with --trace 0, per-layer metrics (from
// /metrics scrapes, the load generator, and the traced in-process replay
// in replay.h) with --trace 1.

#include <sched.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/client.h"
#include "perfbench/replay.h"
#include "perfbench/workload.h"
#include "src/net/json_reader.h"
#include "src/net/wire.h"
#include "src/obs/json.h"

namespace perfbench {
namespace {

using bagalg::Result;
using bagalg::Status;
using bagalg::Value;

// Set-up is timed this many times per run (fresh server each time); the
// median is setup_s.
constexpr int kSetups = 15;
// The measured window is cut into windows of this length; latencies and
// throughput come from the calmest of them (see CalmWindows).
constexpr uint64_t kWindowNs = 1000000000ull;
constexpr double kWarmupSeconds = 1.0;
// Trace mode: /healthz queue-depth sample period.
constexpr uint64_t kHealthzPeriodNs = 20 * 1000000ull;
// A phase that has not drained this long after its end is a hang.
constexpr uint64_t kDrainTimeoutNs = 60ull * 1000000000ull;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string server;
  std::string out_dir = ".";
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value.c_str());
    } else if (flag == "--server") {
      a.server = value;
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) return Status::InvalidArgument("flags take one value each");
  if (a.workload.empty() || a.server.empty() || a.seconds <= 0 ||
      (a.trace != 0 && a.trace != 1)) {
    return Status::InvalidArgument(
        "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--server PATH [--out-dir DIR]");
  }
  return a;
}

/// The machine's CPU time counters from /proc/stat: "steal" is the time
/// the hypervisor gave this virtual machine's CPUs to someone else.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
  uint64_t at_ns = 0;  // when read
};

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTimes t;
  t.at_ns = NowNs();
  stat >> cpu;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(stat >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Share of all CPU time stolen between two readings.
double StealShare(const CpuTimes& a, const CpuTimes& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0;
}

/// Nearest-rank quantile of a sample, plus how many samples lie beyond it.
struct Quantile {
  double value_us = 0;
  size_t beyond = 0;
};

Quantile QuantileOf(std::vector<uint64_t> ns, double q) {
  Quantile out;
  if (ns.empty()) return out;
  std::sort(ns.begin(), ns.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(ns.size())));
  rank = std::clamp<size_t>(rank, 1, ns.size());
  out.value_us = static_cast<double>(ns[rank - 1]) / 1000.0;
  out.beyond = ns.size() - rank;
  return out;
}

// ------------------------------------------------------------ verifying

/// A hash of a response body that ignores its wall_us field, so repeated
/// answers to the same query on the same data hash alike.
uint64_t NormalizedHash(const std::string& body, bool bag1) {
  const std::hash<std::string_view> h;
  const std::string_view all(body);
  size_t cut = std::string_view::npos;
  size_t cut_len = 0;
  if (!bag1) {
    cut = all.rfind(",\"wall_us\":");
    cut_len = cut == std::string_view::npos ? 0 : all.size() - cut;
  } else {
    // Frame header, ok u8, outcome str, output str, then wall_us u64.
    auto str_end = [&](size_t at) -> size_t {
      if (at + 4 > all.size()) return std::string_view::npos;
      uint32_t len = 0;
      std::memcpy(&len, all.data() + at, 4);
      return at + 4 + len;
    };
    size_t at = bagalg::net::kFrameHeaderBytes + 1;
    at = str_end(at);
    if (at != std::string_view::npos) at = str_end(at);
    if (at != std::string_view::npos && at + 8 <= all.size()) {
      cut = at;
      cut_len = 8;
    }
  }
  if (cut == std::string_view::npos) return h(all);
  return h(all.substr(0, cut)) * 31 + h(all.substr(cut + cut_len));
}

/// Decodes a successful statement response into its result value.
Result<Value> DecodeResult(const std::string& body, bool bag1) {
  if (bag1) {
    size_t consumed = 0;
    BAGALG_ASSIGN_OR_RETURN(auto frame, bagalg::net::DecodeFrame(body, &consumed));
    BAGALG_ASSIGN_OR_RETURN(auto resp,
                            bagalg::net::DecodeStatementResponse(frame.payload));
    if (!resp.ok || resp.outcome != "ok" || !resp.has_result) {
      return Status::Internal("BAG1 response is not an ok result");
    }
    return resp.result;
  }
  BAGALG_ASSIGN_OR_RETURN(auto doc, bagalg::net::ParseJson(body));
  const bagalg::net::JsonValue* ok = doc.Find("ok");
  const bagalg::net::JsonValue* result = doc.Find("result");
  if (ok == nullptr || !ok->boolean || result == nullptr ||
      doc.GetString("outcome") != "ok") {
    return Status::Internal("JSON response is not an ok result");
  }
  return bagalg::net::WireJsonToValue(*result);
}

/// Checks read responses against the oracle after the run. During the run
/// it only hashes each body; the first body of every distinct hash per
/// (oracle key, wire format) is kept and decoded later, and every response
/// that hashed alike shares its verdict.
class Verifier {
 public:
  explicit Verifier(const Workload& workload) : workload_(workload) {}

  void Record(const Statement& st, std::string body) {
    const std::string key =
        st.OracleKey(workload_.UniverseOf(st.session)) + (st.bag1 ? "|b" : "|j");
    const uint64_t hash = NormalizedHash(body, st.bag1);
    std::vector<Stored>& seen = by_key_[key];
    for (Stored& s : seen) {
      if (s.hash == hash) {
        ++s.responses;
        return;
      }
    }
    if (seen.size() >= kMaxBodiesPerKey) {
      ++unverifiable_;
      return;
    }
    seen.push_back(Stored{hash, std::move(body), st, 1});
  }

  /// Responses that did not match the oracle (or could not be checked).
  uint64_t Check(Oracle& oracle, std::string* first_error) {
    uint64_t bad = unverifiable_;
    if (unverifiable_ > 0 && first_error->empty()) {
      *first_error = "responses to one query varied beyond recognition";
    }
    for (auto& [key, stored] : by_key_) {
      for (Stored& s : stored) {
        Result<Value> expected = oracle.Expected(s.statement);
        Result<Value> got = DecodeResult(s.body, s.statement.bag1);
        Status why = Status::Ok();
        if (!expected.ok()) {
          why = expected.status();
        } else if (!got.ok()) {
          why = got.status();
        } else if (*got != *expected) {
          why = Status::Internal("result differs from the oracle");
        }
        if (!why.ok()) {
          bad += s.responses;
          if (first_error->empty()) {
            *first_error = s.statement.text.substr(0, 160) + ": " + why.ToString();
          }
        }
        checked_ += s.responses;
        s.body.clear();
        s.body.shrink_to_fit();
      }
    }
    return bad;
  }

  uint64_t checked() const { return checked_; }

 private:
  static constexpr size_t kMaxBodiesPerKey = 16;
  struct Stored {
    uint64_t hash;
    std::string body;
    Statement statement;
    uint64_t responses;
  };
  const Workload& workload_;
  std::unordered_map<std::string, std::vector<Stored>> by_key_;
  uint64_t unverifiable_ = 0;
  uint64_t checked_ = 0;
};

// -------------------------------------------------------------- driving

/// Outcome class of a statement response, as the server buckets it.
enum class Outcome { kOk, kRefused, kShed, kTripped, kError };

Outcome OutcomeOfStatus(int http) {
  switch (http) {
    case 200: return Outcome::kOk;
    case 422: return Outcome::kRefused;
    case 429:
    case 503: return Outcome::kShed;
    case 499:
    case 504:
    case 507: return Outcome::kTripped;
    default: return Outcome::kError;
  }
}

struct PhaseStats {
  std::vector<uint64_t> read_ns;
  std::vector<uint64_t> write_ns;
  // The one-second window each latency above completed in, the host CPU
  // counters at every window boundary, and completions per window.
  std::vector<uint32_t> read_window;
  std::vector<uint32_t> write_window;
  std::vector<CpuTimes> marks;
  std::vector<uint64_t> completed_in;
  std::vector<uint64_t> late_ns;
  std::map<Outcome, uint64_t> outcomes;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t exec_statements = 0;
  uint64_t resp_bytes = 0;
  uint64_t wall_ns = 0;
  // Time spent sending, receiving and checking, not polling.
  uint64_t busy_ns = 0;
  std::vector<double> queue_depths;
};

struct InFlight {
  Statement statement;
  uint64_t due_ns = 0;
  bool healthz = false;
};

struct Conn {
  ClientSocket sock;
  ResponseParser parser;
  std::string out;
  size_t out_off = 0;
  bool want_out = false;
  std::deque<InFlight> inflight;
  std::deque<Statement> backlog;  // closed loop: stream order, this conn
  uint64_t free_since_ns = 0;     // closed loop: last response completed
};

class LoadGen {
 public:
  LoadGen(Workload& workload, Verifier& verifier, bool sample_queue)
      : workload_(workload), verifier_(verifier), sample_queue_(sample_queue) {}

  Status Connect(uint16_t port) {
    conns_.clear();
    for (unsigned i = 0; i < workload_.spec().connections; ++i) {
      BAGALG_ASSIGN_OR_RETURN(ClientSocket sock, ClientSocket::Connect(port));
      auto c = std::make_unique<Conn>();
      c->sock = std::move(sock);
      conns_.push_back(std::move(c));
    }
    return Status::Ok();
  }
  void Disconnect() { conns_.clear(); }

  /// Blocking exchange on connection `i` (set-up, probes, scrapes).
  Result<std::vector<HttpResponseMessage>> Exchange(size_t i,
                                                    const std::string& bytes,
                                                    size_t count) {
    return conns_[i]->sock.Exchange(bytes, count, &conns_[i]->parser, 120000);
  }

  /// Drives the stream for `seconds`, then waits for every response.
  Result<PhaseStats> Run(double seconds) {
    PhaseStats stats;
    stats_ = &stats;
    const int ep = epoll_create1(EPOLL_CLOEXEC);
    struct Closer {
      int fd;
      ~Closer() { ::close(fd); }
    } ep_closer{ep};
    for (size_t i = 0; i < conns_.size(); ++i) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      epoll_ctl(ep, EPOLL_CTL_ADD, conns_[i]->sock.fd(), &ev);
      conns_[i]->want_out = false;
    }
    const bool open = workload_.spec().loop == Loop::kOpen;
    const uint64_t start = NowNs();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    const size_t windows = static_cast<size_t>(std::ceil(seconds));
    start_ns_ = start;
    windows_ = windows;
    stats.completed_in.assign(windows, 0);
    stats.marks.push_back(ReadCpuTimes());
    const double interval_ns = open ? 1e9 / workload_.spec().offered_rate : 0;
    uint64_t issued = 0;
    next_healthz_ns_ = start;
    for (auto& c : conns_) c->free_since_ns = start;
    std::vector<epoll_event> events(16);
    uint64_t last_done = start;

    while (true) {
      const uint64_t now = NowNs();
      if (stats.marks.size() <= windows && now >= start + stats.marks.size() * kWindowNs) {
        stats.marks.push_back(ReadCpuTimes());
      }
      bool worked = false;
      if (now < end && open) {
        while (true) {
          const uint64_t due = start + static_cast<uint64_t>(
                                           static_cast<double>(issued) * interval_ns);
          if (due > now || due >= end) break;
          Statement st = workload_.Next();
          const size_t ci = workload_.ConnectionOf(st.session);
          stats.late_ns.push_back(now - due);
          Send(ci, std::move(st), due, now);
          ++issued;
          worked = true;
        }
      } else if (now < end) {
        for (size_t ci = 0; ci < conns_.size(); ++ci) {
          Conn& c = *conns_[ci];
          if (!c.inflight.empty()) continue;
          Statement st = NextFor(ci);
          stats.late_ns.push_back(now - c.free_since_ns);
          Send(ci, std::move(st), now, now);
          worked = true;
        }
      } else {
        bool idle = true;
        for (auto& c : conns_) idle = idle && c->inflight.empty();
        if (idle) break;
        if (now > end + kDrainTimeoutNs) {
          return Status::DeadlineExceeded("bagalgd stopped answering");
        }
      }
      if (worked) {
        for (size_t ci = 0; ci < conns_.size(); ++ci) {
          BAGALG_RETURN_IF_ERROR(Flush(ep, ci));
        }
        stats.busy_ns += NowNs() - now;
      }
      // Sleep until the next statement is due (open loop) or a response
      // arrives, with 1 µs timer slack; never past the next window
      // boundary, so its mark is on time.
      uint64_t wait_ns = 50000000;
      if (stats.marks.size() <= windows) {
        const uint64_t boundary = start + stats.marks.size() * kWindowNs;
        const uint64_t after = NowNs();
        wait_ns = boundary > after ? std::min(wait_ns, boundary - after) : 0;
      }
      if (open && now < end) {
        const uint64_t next_due =
            start + static_cast<uint64_t>(static_cast<double>(issued) * interval_ns);
        const uint64_t after = NowNs();
        wait_ns = next_due > after ? std::min(wait_ns, next_due - after) : 0;
      }
      const timespec timeout{static_cast<time_t>(wait_ns / 1000000000ull),
                             static_cast<long>(wait_ns % 1000000000ull)};
      const int n = epoll_pwait2(ep, events.data(), static_cast<int>(events.size()),
                                 &timeout, nullptr);
      if (n < 0 && errno != EINTR) return Status::Internal("epoll_wait failed");
      const uint64_t woke = NowNs();
      for (int i = 0; i < n; ++i) {
        const epoll_event& e = events[static_cast<size_t>(i)];
        if (e.events & EPOLLOUT) BAGALG_RETURN_IF_ERROR(Flush(ep, e.data.u64));
        if (e.events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
          BAGALG_ASSIGN_OR_RETURN(bool any, Receive(e.data.u64));
          if (any) last_done = NowNs();
        }
      }
      if (n > 0) stats.busy_ns += NowNs() - woke;
    }
    while (stats.marks.size() <= windows) stats.marks.push_back(ReadCpuTimes());
    stats.wall_ns = last_done - start;
    stats_ = nullptr;
    return stats;
  }

 private:
  Statement NextFor(size_t ci) {
    Conn& c = *conns_[ci];
    while (c.backlog.empty()) {
      Statement st = workload_.Next();
      conns_[workload_.ConnectionOf(st.session)]->backlog.push_back(std::move(st));
    }
    Statement st = std::move(c.backlog.front());
    c.backlog.pop_front();
    return st;
  }

  void Send(size_t ci, Statement st, uint64_t due, uint64_t now) {
    Conn& c = *conns_[ci];
    if (sample_queue_ && ci == 0 && now >= next_healthz_ns_) {
      // Answered when the server parses it, so it samples the queue depth
      // seen by the statement right behind it.
      c.out += EncodeGetHttp("/healthz");
      InFlight probe;
      probe.healthz = true;
      c.inflight.push_back(std::move(probe));
      next_healthz_ns_ = now + kHealthzPeriodNs;
    }
    c.out += EncodeStatementHttp(workload_.SessionName(st.session), st.text, st.bag1);
    ++stats_->attempted;
    if (st.text.rfind("exec ", 0) == 0) ++stats_->exec_statements;
    c.inflight.push_back(InFlight{std::move(st), due, false});
  }

  Status Flush(int ep, size_t ci) {
    Conn& c = *conns_[ci];
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.sock.fd(), c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return Status::Unavailable("send to bagalgd failed");
      }
      c.out_off += static_cast<size_t>(n);
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    const bool want = c.out_off < c.out.size();
    if (want != c.want_out) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u64 = ci;
      epoll_ctl(ep, EPOLL_CTL_MOD, c.sock.fd(), &ev);
      c.want_out = want;
    }
    return Status::Ok();
  }

  Result<bool> Receive(size_t ci) {
    Conn& c = *conns_[ci];
    char buf[256 * 1024];
    bool any = false;
    while (true) {
      const ssize_t n = ::recv(c.sock.fd(), buf, sizeof(buf), 0);
      if (n == 0) return Status::Unavailable("bagalgd closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return Status::Unavailable("recv from bagalgd failed");
      }
      c.parser.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
    }
    while (true) {
      HttpResponseMessage msg;
      BAGALG_ASSIGN_OR_RETURN(bool got, c.parser.Next(&msg));
      if (!got) break;
      if (c.inflight.empty()) return Status::Internal("unsolicited response");
      const uint64_t done = NowNs();
      InFlight f = std::move(c.inflight.front());
      c.inflight.pop_front();
      if (f.healthz) {
        auto doc = bagalg::net::ParseJson(msg.body);
        if (doc.ok()) {
          stats_->queue_depths.push_back(
              static_cast<double>(doc->GetUint("queue_depth", 0)));
        }
        continue;
      }
      any = true;
      c.free_since_ns = done;
      Record(f, std::move(msg), done);
    }
    return any;
  }

  void Record(InFlight& f, HttpResponseMessage msg, uint64_t done) {
    PhaseStats& s = *stats_;
    ++s.completed;
    ++s.outcomes[OutcomeOfStatus(msg.status)];
    s.resp_bytes += msg.body.size();
    const uint64_t latency = done - f.due_ns;
    const uint32_t window = static_cast<uint32_t>(
        std::min<uint64_t>((done - start_ns_) / kWindowNs, windows_ - 1));
    (f.statement.write ? s.write_ns : s.read_ns).push_back(latency);
    (f.statement.write ? s.write_window : s.read_window).push_back(window);
    ++s.completed_in[window];
    if (msg.status != 200) {
      ++s.failed;
      if (first_failure_.empty()) {
        first_failure_ = "HTTP " + std::to_string(msg.status) + " for " +
                         f.statement.text.substr(0, 120) + ": " +
                         msg.body.substr(0, 200);
      }
      return;
    }
    if (!f.statement.write) verifier_.Record(f.statement, std::move(msg.body));
  }

 public:
  const std::string& first_failure() const { return first_failure_; }

 private:
  Workload& workload_;
  Verifier& verifier_;
  bool sample_queue_;
  std::vector<std::unique_ptr<Conn>> conns_;
  PhaseStats* stats_ = nullptr;
  uint64_t start_ns_ = 0;
  size_t windows_ = 1;
  uint64_t next_healthz_ns_ = 0;
  std::string first_failure_;
};

/// The windows of the measured phase whose latencies and throughput are
/// reported. On a shared virtual machine the host takes the CPU away for
/// milliseconds at a time ("steal"); a sub-millisecond statement that
/// meets such a stall takes ten times longer, and the share of stalled
/// time moved from 0.2% to 18% within one hour. So the windows are ranked
/// by the host's steal share over each (from /proc/stat, not from any
/// latency) and the calmest quarter is kept, growing it (calmest first)
/// until every reported quantile has at least ten samples beyond it, and
/// taking in every window as calm as the calmest kept one. Without steal
/// every window ties and all are kept.
struct Calm {
  std::vector<bool> keep;
  size_t kept = 0;
  double max_steal = 0;
};

Calm CalmWindows(const PhaseStats& m) {
  const size_t n = m.completed_in.size();
  std::vector<double> steal(n, 0);
  for (size_t i = 0; i < n; ++i) steal[i] = StealShare(m.marks[i], m.marks[i + 1]);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  std::vector<size_t> reads(n, 0), writes(n, 0);
  for (const uint32_t w : m.read_window) ++reads[w];
  for (const uint32_t w : m.write_window) ++writes[w];
  Calm calm;
  calm.keep.assign(n, false);
  size_t r = 0, w = 0;
  for (const size_t i : order) {
    const bool enough = calm.kept * 4 >= n && r / 100 >= 11 && w / 10 >= 11;
    if (enough && steal[i] > calm.max_steal) break;
    calm.keep[i] = true;
    ++calm.kept;
    r += reads[i];
    w += writes[i];
    calm.max_steal = std::max(calm.max_steal, steal[i]);
  }
  return calm;
}

/// The latencies of `ns` that completed in a kept window.
std::vector<uint64_t> InCalm(const std::vector<uint64_t>& ns,
                             const std::vector<uint32_t>& window, const Calm& calm) {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < ns.size(); ++i) {
    if (calm.keep[window[i]]) out.push_back(ns[i]);
  }
  return out;
}

// ------------------------------------------------------------- set-up

struct Setup {
  ServerProcess server;
  double seconds = 0;
};

/// Spawns bagalgd, connects, loads every session's data, and answers the
/// probe read; verifies nothing yet (the probe bodies go to the verifier).
Result<Setup> SetUp(const Args& args, Workload& workload, LoadGen& loadgen,
                    Verifier& verifier, const std::vector<std::string>& flags) {
  Setup setup;
  const uint64_t t0 = NowNs();
  BAGALG_ASSIGN_OR_RETURN(
      setup.server,
      ServerProcess::Spawn(args.server, flags, workload.spec().bagalg_threads,
                           args.out_dir + "/bagalgd.log"));
  BAGALG_RETURN_IF_ERROR(loadgen.Connect(setup.server.port()));
  const WorkloadSpec& spec = workload.spec();
  for (uint32_t ci = 0; ci < spec.connections; ++ci) {
    std::string bytes;
    size_t count = 0;
    for (uint32_t s = 0; s < spec.sessions; ++s) {
      if (workload.ConnectionOf(s) != ci) continue;
      for (const std::string& line : workload.SetupStatements(s)) {
        bytes += EncodeStatementHttp(workload.SessionName(s), line, false);
        ++count;
      }
    }
    BAGALG_ASSIGN_OR_RETURN(auto responses, loadgen.Exchange(ci, bytes, count));
    for (const auto& r : responses) {
      if (r.status != 200) {
        return Status::Internal("set-up statement failed: " + r.body.substr(0, 200));
      }
    }
  }
  const Statement probe = workload.ProbeStatement(0);
  BAGALG_ASSIGN_OR_RETURN(
      auto answer,
      loadgen.Exchange(0, EncodeStatementHttp(workload.SessionName(0), probe.text, false), 1));
  setup.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  if (answer[0].status != 200) {
    return Status::Internal("probe failed: " + answer[0].body.substr(0, 200));
  }
  verifier.Record(probe, std::move(answer[0].body));
  return setup;
}

Result<std::map<std::string, double>> Scrape(LoadGen& loadgen) {
  BAGALG_ASSIGN_OR_RETURN(auto r, loadgen.Exchange(0, EncodeGetHttp("/metrics"), 1));
  if (r[0].status != 200) return Status::Internal("/metrics failed");
  return ParsePrometheus(r[0].body);
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& sample) {
  auto a = after.find(sample);
  auto b = before.find(sample);
  return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += bagalg::obs::JsonQuote(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " +
           bagalg::obs::JsonQuote(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Run(const Args& args) {
  Result<Workload> created = Workload::Create(args.workload, args.seed);
  if (!created.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", created.status().ToString().c_str());
    return 2;
  }
  Workload& workload = *created;
  const WorkloadSpec& spec = workload.spec();
  // Sleeps in the open loop end on time, not up to 50 µs late.
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  // The server inherits this placement.
  std::string cpus = "all";
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const long want = static_cast<long>(spec.cpus);
  if (want > 0 && want < nproc) {
    cpu_set_t set;
    CPU_ZERO(&set);
    cpus.clear();
    for (long c = nproc - want; c < nproc; ++c) {
      CPU_SET(static_cast<int>(c), &set);
      cpus += (cpus.empty() ? "" : ",") + std::to_string(c);
    }
    ::sched_setaffinity(0, sizeof(set), &set);
  }
  // The replay and the oracle run in this process with the server's pool.
  ::setenv("BAGALG_THREADS", std::to_string(spec.bagalg_threads).c_str(), 1);

  std::vector<std::string> flags = {
      "--port=0", "--executors=" + std::to_string(spec.executors),
  };
  if (spec.cost_budget > 0) flags.push_back("--budget=" + std::to_string(spec.cost_budget));
  Verifier verifier(workload);
  LoadGen loadgen(workload, verifier, args.trace == 1);

  // ---- set-up, timed kSetups times on fresh servers; the last one serves.
  std::vector<double> setup_s;
  Setup live;
  for (int i = 0; i < kSetups; ++i) {
    Result<Setup> s = SetUp(args, workload, loadgen, verifier, flags);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: set-up: %s\n", s.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(s->seconds);
    if (i + 1 < kSetups) {
      loadgen.Disconnect();
      Status stopped = s->server.Stop();
      if (!stopped.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", stopped.ToString().c_str());
        return 1;
      }
    } else {
      live = std::move(*s);
    }
  }
  std::sort(setup_s.begin(), setup_s.end());

  // ---- stamp
  std::string stamp;
  {
    auto health = loadgen.Exchange(0, EncodeGetHttp("/healthz"), 1);
    auto doc = health.ok() ? bagalg::net::ParseJson((*health)[0].body)
                           : Result<bagalg::net::JsonValue>(health.status());
    std::string sha = "unknown", build_type = "unknown";
    if (doc.ok()) {
      if (const auto* build = doc->Find("build")) {
        sha = build->GetString("git_sha", sha);
        build_type = build->GetString("build_type", build_type);
      }
    }
    char host[256] = {};
    ::gethostname(host, sizeof(host) - 1);
    stamp = "{\"workload\": " + bagalg::obs::JsonQuote(spec.name) +
            ", \"seed\": " + std::to_string(args.seed) +
            ", \"seconds\": " + Num(args.seconds) +
            ", \"trace\": " + std::to_string(args.trace) +
            ", \"nproc\": " + std::to_string(nproc) +
            ", \"cpus\": \"" + cpus + "\"" +
            ", \"host\": " + bagalg::obs::JsonQuote(host) +
            ", \"BAGALG_THREADS\": " + std::to_string(spec.bagalg_threads) +
            ", \"executors\": " + std::to_string(spec.executors) +
            ", \"connections\": " + std::to_string(spec.connections) +
            ", \"sessions\": " + std::to_string(spec.sessions) +
            ", \"loop\": \"" + (spec.loop == Loop::kOpen ? "open" : "closed") + "\"" +
            ", \"offered_rate_sps\": " + Num(spec.offered_rate) +
            ", \"build_type\": " + bagalg::obs::JsonQuote(build_type) +
            ", \"git_sha\": " + bagalg::obs::JsonQuote(sha) + "}";
  }

  // ---- warm-up, then the measured window between two /metrics scrapes
  Result<PhaseStats> warm = loadgen.Run(std::min(kWarmupSeconds, args.seconds));
  if (!warm.ok()) {
    std::fprintf(stderr, "perfbench: warm-up: %s\n", warm.status().ToString().c_str());
    return 1;
  }
  auto scrape0 = Scrape(loadgen);
  auto proc0 = live.server.Sample();
  const CpuTimes cpu0 = ReadCpuTimes();
  Result<PhaseStats> measured = loadgen.Run(args.seconds);
  const CpuTimes cpu1 = ReadCpuTimes();
  auto proc1 = live.server.Sample();
  auto scrape1 = Scrape(loadgen);
  if (!measured.ok() || !scrape0.ok() || !scrape1.ok() || !proc0.ok() || !proc1.ok()) {
    std::fprintf(stderr, "perfbench: measured run failed: %s\n",
                 (!measured.ok() ? measured.status() : Status::Internal("scrape/proc")).ToString().c_str());
    return 1;
  }
  loadgen.Disconnect();
  const Status stopped = live.server.Stop();
  const PhaseStats& m = *measured;

  // ---- correctness: oracle, failures, /metrics reconciliation
  Oracle oracle(workload);
  std::string first_error = loadgen.first_failure();
  const uint64_t mismatches = verifier.Check(oracle, &first_error);
  uint64_t failed = warm->failed + m.failed + mismatches;
  const uint64_t attempted = warm->attempted + m.attempted + kSetups;
  bool correct = failed == 0 && stopped.ok();
  if (!stopped.ok() && first_error.empty()) first_error = stopped.ToString();
  const std::pair<const char*, Outcome> buckets[] = {
      {"ok", Outcome::kOk}, {"refused", Outcome::kRefused}, {"shed", Outcome::kShed},
      {"tripped", Outcome::kTripped}, {"error", Outcome::kError}};
  for (const auto& [name, outcome] : buckets) {
    const double server = Delta(*scrape0, *scrape1,
                                PromName(std::string("server.outcome.") + name) + "_total");
    const auto it = m.outcomes.find(outcome);
    const double client = it == m.outcomes.end() ? 0 : static_cast<double>(it->second);
    if (server != client) {
      correct = false;
      std::fprintf(stderr, "perfbench: /metrics reconciliation: server.outcome.%s "
                   "moved by %.0f, the client counted %.0f\n", name, server, client);
    }
  }
  const double io_errors = Delta(*scrape0, *scrape1, PromName("server.io.errors") + "_total");
  if (io_errors != 0) {
    correct = false;
    std::fprintf(stderr, "perfbench: /metrics reconciliation: %.0f io errors\n", io_errors);
  }
  if (!first_error.empty()) std::fprintf(stderr, "perfbench: first failure: %s\n", first_error.c_str());

  // ---- end-to-end metrics
  const Calm calm = CalmWindows(m);
  const std::vector<uint64_t> calm_reads = InCalm(m.read_ns, m.read_window, calm);
  const std::vector<uint64_t> calm_writes = InCalm(m.write_ns, m.write_window, calm);
  uint64_t calm_completed = 0;
  uint64_t calm_ns = 0;
  for (size_t i = 0; i < calm.keep.size(); ++i) {
    if (!calm.keep[i]) continue;
    calm_completed += m.completed_in[i];
    calm_ns += m.marks[i + 1].at_ns - m.marks[i].at_ns;
  }
  const Quantile read50 = QuantileOf(calm_reads, 0.50);
  const Quantile read90 = QuantileOf(calm_reads, 0.90);
  const Quantile read99 = QuantileOf(calm_reads, 0.99);
  const Quantile write50 = QuantileOf(calm_writes, 0.50);
  const Quantile write90 = QuantileOf(calm_writes, 0.90);
  const double completed = static_cast<double>(std::max<uint64_t>(m.completed, 1));
  const double window_s = static_cast<double>(m.wall_ns) / 1e9;
  std::vector<Metric> e2e = {
      {"setup_s", setup_s[setup_s.size() / 2], "s"},
      {"throughput_sps",
       static_cast<double>(calm_completed) / (static_cast<double>(calm_ns) / 1e9),
       "1/s"},
      {"read_p50_us", read50.value_us, "us"},
      {"read_p90_us", read90.value_us, "us"},
      {"write_p50_us", write50.value_us, "us"},
      {"write_p90_us", write90.value_us, "us"},
      {"server_cpu_us_per_stmt",
       static_cast<double>(proc1->cpu_us - proc0->cpu_us) / completed, "us"},
      {"server_rss_peak_mb", static_cast<double>(proc1->hwm_kb) / 1024.0, "MB"},
      {"resp_bytes_per_stmt", static_cast<double>(m.resp_bytes) / completed, "bytes"},
  };
  const double fail_ratio = static_cast<double>(failed) / static_cast<double>(attempted);

  // ---- per-layer metrics
  std::vector<Metric> layers;
  std::string replay_note;
  if (args.trace == 1) {
    const double server_runline_mean =
        Delta(*scrape0, *scrape1, PromName("server.request.wall_us") + "_sum") /
        std::max(1.0, Delta(*scrape0, *scrape1, PromName("server.request.wall_us") + "_count"));
    const double runline_p50 =
        HistogramDeltaQuantile(*scrape0, *scrape1, "server.request.wall_us", 0.50);
    const double runline_p99 =
        HistogramDeltaQuantile(*scrape0, *scrape1, "server.request.wall_us", 0.99);
    const double requests = Delta(*scrape0, *scrape1, PromName("server.requests") + "_total");
    const double pipelined =
        Delta(*scrape0, *scrape1, PromName("server.http.pipelined") + "_total");
    const double fallbacks = Delta(*scrape0, *scrape1, PromName("ir.fallbacks") + "_total");
    double queue_mean = 0;
    for (double d : m.queue_depths) queue_mean += d;
    if (!m.queue_depths.empty()) queue_mean /= static_cast<double>(m.queue_depths.size());

    ReplayOptions ro;
    ro.workload = spec.name;
    ro.seed = args.seed;
    ro.budget_s = args.seconds;
    ro.max_statements = m.completed + warm->completed;
    ro.cost_budget = spec.cost_budget;
    ro.trace_path = args.out_dir + "/" + spec.name + "-seed" +
                    std::to_string(args.seed) + ".trace.json";
    Result<ReplayReport> replay = RunReplay(ro);
    if (!replay.ok()) {
      std::fprintf(stderr, "perfbench: replay: %s\n", replay.status().ToString().c_str());
      return 1;
    }
    replay_note = "replayed " + std::to_string(replay->statements) + " statements, " +
                  std::to_string(replay->spans) + " spans -> " + ro.trace_path +
                  "; lang.unattributed_us (RunLine minus a second run of its parts) "
                  "is negative on " + std::to_string(replay->unattributed_negative) +
                  " of them";
    const auto& r = replay->metrics;
    auto us = [&](const std::string& name) { return Metric{name, r.at(name), "us"}; };
    layers = {
        us("net.http.parse_us"), us("net.json.decode_us"), us("net.bag1.decode_us"),
        us("net.http.format_us"), us("lang.parse_us"), us("algebra.typecheck_us"),
        us("algebra.rewrite_us"), us("analysis.cost_us"), us("ir.lower_us"),
        us("ir.exec_us"), us("algebra.eval_us"),
        {"ir.rows_per_stmt", r.at("ir.rows_per_stmt"), "count"},
        {"ir.batches_per_stmt", r.at("ir.batches_per_stmt"), "count"},
        {"kernel.index_hit_ratio", r.at("kernel.index_hit_ratio"), "ratio"},
        {"kernel.parallel_dispatch_ratio", r.at("kernel.parallel_dispatch_ratio"), "ratio"},
        {"governor.checkpoints_per_stmt", r.at("governor.checkpoints_per_stmt"), "count"},
        us("core.render_us"), us("net.wire.encode_json_us"), us("net.wire.encode_bag1_us"),
        {"net.wire.result_bytes", r.at("net.wire.result_bytes"), "bytes"},
        {"kernel.bignat_slow_ops_per_stmt", r.at("kernel.bignat_slow_ops_per_stmt"), "count"},
        us("lang.runline_us"), us("lang.unattributed_us"),
        {"server.runline_p50_us", runline_p50, "us"},
        {"server.runline_p99_us", runline_p99, "us"},
        // Both over the whole window: the server's histogram has no windows.
        {"server.outside_runline_p50_us",
         QuantileOf(m.read_ns, 0.5).value_us - runline_p50, "us"},
        {"server.queue_depth_mean", queue_mean, "count"},
        {"server.pipelined_ratio", requests > 0 ? pipelined / requests : 0, "ratio"},
        {"exec.ir_ratio",
         m.exec_statements == 0 ? 1.0
                                : 1.0 - fallbacks / static_cast<double>(m.exec_statements),
         "ratio"},
        {"loadgen.read_p99_us", read99.value_us, "us"},
        {"loadgen.late_p99_us", QuantileOf(m.late_ns, 0.99).value_us, "us"},
        {"loadgen.cpu_ratio",
         static_cast<double>(m.busy_ns) / static_cast<double>(m.wall_ns),
         "ratio"},
        {"replay.overhead_ratio",
         server_runline_mean > 0 ? r.at("lang.runline_us") / server_runline_mean : 0,
         "ratio"},
    };
  }

  // ---- report: human lines, a result file, then the JSON line
  std::printf("stamp %s\n", stamp.c_str());
  std::printf("host steal share during the measured window: %.4f\n",
              StealShare(cpu0, cpu1));
  std::printf("calm windows: %zu of %zu (steal share at most %.4f); steal per window:",
              calm.kept, calm.keep.size(), calm.max_steal);
  for (size_t i = 0; i + 1 < m.marks.size(); ++i) {
    std::printf(" %.3f", StealShare(m.marks[i], m.marks[i + 1]));
  }
  std::printf("\n");
  std::printf("samples in calm windows: reads=%zu (beyond p50 %zu, p90 %zu, p99 %zu) "
              "writes=%zu (beyond p50 %zu, p90 %zu); attempted=%llu failed=%llu "
              "verified_reads=%llu\n",
              calm_reads.size(), read50.beyond, read90.beyond, read99.beyond,
              calm_writes.size(), write50.beyond, write90.beyond,
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(verifier.checked()));
  std::printf("whole-window figures: %.1f statements/s; latency (us) read p50 %.1f "
              "p99 %.1f, write p50 %.1f p90 %.1f\n",
              completed / window_s,
              QuantileOf(m.read_ns, 0.5).value_us, QuantileOf(m.read_ns, 0.99).value_us,
              QuantileOf(m.write_ns, 0.5).value_us, QuantileOf(m.write_ns, 0.9).value_us);
  if (read90.beyond < 10 || read99.beyond < 10 || write90.beyond < 10) {
    std::printf("warning: fewer than 10 samples beyond a reported percentile\n");
  }
  for (const Metric& x : e2e) {
    std::printf("metric %s %s %s\n", x.name.c_str(), Num(x.value).c_str(), x.unit.c_str());
  }
  std::printf("metric fail_ratio %s ratio\n", Num(fail_ratio).c_str());
  for (const Metric& x : layers) {
    std::printf("metric %s %s %s\n", x.name.c_str(), Num(x.value).c_str(), x.unit.c_str());
  }
  if (!replay_note.empty()) std::printf("replay %s\n", replay_note.c_str());

  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + MetricsJson(args.trace == 1 ? layers : e2e) + "}";
  {
    std::ofstream file(args.out_dir + "/" + spec.name + "-seed" +
                       std::to_string(args.seed) + "-trace" +
                       std::to_string(args.trace) + ".json");
    file << "{\"stamp\": " << stamp << ", \"fail_ratio\": " << Num(fail_ratio)
         << ", \"end_to_end\": " << MetricsJson(e2e)
         << ", \"per_layer\": " << MetricsJson(layers) << ", \"result\": " << result
         << "}\n";
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  auto args = perfbench::ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", args.status().ToString().c_str());
    return 2;
  }
  return perfbench::Run(*args);
}
