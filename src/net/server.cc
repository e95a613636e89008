#include "src/net/server.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <optional>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/analysis/static_cost.h"
#include "src/lang/script.h"
#include "src/net/envelope.h"
#include "src/net/epoll.h"
#include "src/net/io.h"
#include "src/net/json_reader.h"
#include "src/net/wire.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/build_info.h"

namespace bagalg::net {

namespace {

// Epoll tags: connections use their ids, which start above the reserved
// values and never recycle — a completion for a closed connection can
// never be misdelivered to a newer one.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeupTag = 1;
constexpr uint64_t kFirstConnId = 2;

// Write-buffer watermark: the streamer refills the out buffer when the
// unwritten remainder drops below it, one kStreamSliceBytes chunk at a
// time — a slow reader therefore holds the lane-encoded prefix plus about
// two chunks of serialized response, never the whole body.
constexpr size_t kWriteLowWater = 64 * 1024;
// At most this many accepts are drained per listener event, so one
// connect storm cannot starve live connections of loop time.
constexpr int kAcceptBatch = 64;
// Per-event read ceiling, for the same fairness reason.
constexpr size_t kReadBatchBytes = 256 * 1024;
// How many responses (sync or in-flight statements) one connection may
// have outstanding before parsing pauses. Parse-ahead keeps the executor
// pool fed and lets consecutive responses coalesce into one write, while
// the cap stops a single pipelining client from monopolizing the
// admission queue.
constexpr size_t kMaxPipelineDepth = 16;

/// Session names are also journal file names: the charset excludes every
/// path metacharacter by construction.
bool ValidSessionName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

struct ExecJob {
  enum class Kind : uint8_t { kStatement, kCloseSession };
  Kind kind = Kind::kStatement;
  uint64_t conn_id = 0;
  uint64_t seq = 0;  // response slot on the connection
  std::string statement;
  uint64_t timeout_ms = 0;
  uint64_t memlimit_bytes = 0;
  WireFormat format = WireFormat::kJson;  // the request's, and the answer's
  bool want_close = false;  // connection closes after the response
};

/// One resident session: the REPL engine and its run queue. The scheduler
/// hands a session to one executor lane at a time, and every hand-off
/// goes through the server's queue mutex, so the runner needs no lock of
/// its own. The cancellation token is a copy of the runner's (they share
/// the flag), so drain can cancel an in-flight statement from any thread.
struct Session {
  Session(std::string name, const ServerOptions& options)
      : id(std::move(name)) {
    runner.set_timeout_ms(options.default_timeout_ms);
    runner.set_memlimit_bytes(options.default_memlimit_bytes);
    if (options.cost_budget > 0) {
      analysis::CostBudget budget;
      budget.max_estimated_size = BigNat(options.cost_budget);
      runner.set_budget(budget);
    }
    cancel = runner.cancel_token();
  }
  const std::string id;
  lang::ScriptRunner runner;
  CancellationToken cancel;

  // Guarded by the server's queue mutex.
  std::deque<ExecJob> pending;  // admitted, not started, in program order
  bool scheduled = false;       // in the run queue or on a lane
};

/// What one job produced, shipped from the executor back to the event
/// loop through the completion queue: the response already encoded by the
/// lane that ran the job. A large JSON body arrives as its first
/// kLaneEncodeBytes of chunks plus the streamer of the rest.
struct Completion {
  uint64_t conn_id = 0;
  uint64_t seq = 0;
  bool want_close = false;
  std::string outcome;  // the typed outcome word, for the stats bucket
  EncodedEnvelope encoded;
};

/// A shed envelope: outcome "shed", retryable, Retry-After: 1.
Envelope Shed(int http_status, std::string_view why) {
  return ErrorEnvelope(http_status, Status::Unavailable(std::string(why)));
}

uint64_t EffectiveLimit(uint64_t requested, uint64_t server_default) {
  if (requested == 0) return server_default;
  if (server_default == 0) return requested;
  return std::min(requested, server_default);
}

bool IsBag1Request(const HttpRequest& request) {
  const auto it = request.headers.find("content-type");
  return it != request.headers.end() &&
         it->second.find(kBag1ContentType) != std::string::npos;
}

/// One response owed to a connection, in request order. A slot is either
/// ready (bytes materialized, or a chunked head plus a streamer) or still
/// waiting on its statement's completion. Slots only leave the queue from
/// the front, and only once ready — pipelined responses therefore always
/// go out in the order their requests arrived, no matter how the executor
/// lanes interleave.
struct ResponseSlot {
  bool ready = false;
  bool close_after = false;  // connection closes once this slot is written
  std::string bytes;
  std::unique_ptr<WireJsonStreamer> stream;  // chunked body, if streamed
};

/// One connection's state machine, owned exclusively by the loop thread.
/// Parse-ahead: the loop keeps parsing pipelined requests (up to
/// kMaxPipelineDepth outstanding responses) while earlier statements are
/// still executing, so the executor pool stays fed and consecutive
/// responses coalesce into one write.
struct Conn {
  uint64_t id = 0;
  Fd fd;
  HttpReader reader;
  std::string out;      // promoted response bytes awaiting write
  size_t out_off = 0;   // written prefix of `out`
  std::unique_ptr<WireJsonStreamer> stream;  // active chunked body
  std::deque<ResponseSlot> slots;  // responses owed, in request order
  uint64_t base_seq = 0;           // seq of slots.front()
  size_t in_flight = 0;            // slots still waiting on the executor
  bool close_pending = false;   // a close-marked response was queued
  bool close_after_write = false;
  bool read_closed = false;  // EOF/RDHUP seen; no further requests
  bool eof_handled = false;  // the one-shot EOF accounting ran
  bool finish_after_flush = false;  // EOF: close once owed bytes are out
  bool doomed = false;       // close deferred to end of loop iteration
  uint64_t requests_served = 0;
  uint32_t interest = 0;  // epoll mask currently registered

  size_t pending_out() const { return out.size() - out_off; }
  uint64_t next_seq() const { return base_seq + slots.size(); }
  bool idle() const {
    return in_flight == 0 && pending_out() == 0 && stream == nullptr &&
           slots.empty();
  }
};

}  // namespace

class Server::Impl {
 public:
  explicit Impl(ServerOptions options) : options_(std::move(options)) {}

  ~Impl() {
    RequestShutdown();
    Wait();
  }

  Status Start() {
    BAGALG_ASSIGN_OR_RETURN(
        listen_fd_,
        ListenOn(options_.host, options_.port, options_.backlog));
    BAGALG_ASSIGN_OR_RETURN(port_, LocalPort(listen_fd_.get()));
    BAGALG_RETURN_IF_ERROR(SetNonBlocking(listen_fd_.get()));
    listen_fd_raw_.store(listen_fd_.get(), std::memory_order_release);
    BAGALG_ASSIGN_OR_RETURN(epoll_, EpollLoop::Create());
    BAGALG_ASSIGN_OR_RETURN(wakeup_, WakeupFd::Create());
    BAGALG_RETURN_IF_ERROR(
        epoll_.Add(listen_fd_.get(), EPOLLIN, kListenerTag));
    BAGALG_RETURN_IF_ERROR(epoll_.Add(wakeup_.fd(), EPOLLIN, kWakeupTag));
    loop_iter_hist_ = obs::GlobalMetrics().GetHistogram(
        "server.epoll.loop_iter_us");
    request_wall_hist_ = obs::GlobalMetrics().GetHistogram(
        "server.request.wall_us");
    const unsigned executors = std::max(1u, options_.executors);
    lane_cpu_ns_ = std::vector<std::atomic<uint64_t>>(executors);
    executors_.reserve(executors);
    for (unsigned i = 0; i < executors; ++i) {
      executors_.emplace_back([this, i] { ExecutorLoop(&lane_cpu_ns_[i]); });
    }
    loop_thread_ = std::thread([this] { EventLoop(); });
    return Status::Ok();
  }

  uint16_t port() const { return port_; }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  void RequestShutdown() {
    // Async-signal-safe: an atomic store, a shutdown(2), and an eventfd
    // write. The shutdown makes the listener readable (accept then fails),
    // the eventfd wakes the loop even if it was idle in epoll_wait.
    draining_.store(true, std::memory_order_release);
    const int fd = listen_fd_raw_.load(std::memory_order_acquire);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    wakeup_.Signal();
  }

  void Wait() {
    while (!draining()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::lock_guard<std::mutex> lock(teardown_mu_);
    if (torn_down_) return;
    Teardown();
    torn_down_ = true;
  }

  ServerStats stats() const {
    ServerStats s;
    s.requests = requests_.load();
    s.ok = ok_.load();
    s.refused = refused_.load();
    s.shed = shed_.load();
    s.tripped = tripped_.load();
    s.errors = errors_.load();
    s.io_errors = io_errors_.load();
    s.sessions_created = sessions_created_.load();
    s.sessions_closed = sessions_closed_.load();
    s.connections_accepted = connections_accepted_.load();
    s.keepalive_reuses = keepalive_reuses_.load();
    s.pipelined = pipelined_.load();
    s.bag1_requests = bag1_requests_.load();
    s.streamed_responses = streamed_responses_.load();
    s.connections_live = connections_live_.load();
    s.epoll_fds = epoll_fds_.load();
    s.draining = draining();
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      s.sessions_live = sessions_.size();
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      s.queue_depth = queued_jobs_;
    }
    return s;
  }

 private:
  // --------------------------------------------------------- event loop

  void EventLoop() {
    std::vector<ReadyEvent> ready;
    bool accepting = true;
    while (!loop_stop_.load(std::memory_order_acquire)) {
      auto waited = epoll_.Wait(&ready, 500);
      if (!waited.ok()) break;  // epoll itself broken; drain will reap
      const auto iter_start = std::chrono::steady_clock::now();
      if (accepting && draining()) {
        // First drain observation: stop accepting. Existing connections
        // keep their event-driven lifecycle so in-flight responses (and
        // cancellation 499s) still reach their clients.
        (void)epoll_.Remove(listen_fd_.get());
        accepting = false;
      }
      for (const ReadyEvent& ev : ready) {
        if (ev.tag == kListenerTag) {
          if (accepting) HandleListener();
        } else if (ev.tag == kWakeupTag) {
          wakeup_.Drain();
          DrainCompletions();
        } else {
          HandleConnEvent(ev);
        }
      }
      ReapDoomed();
      RefreshLoopGauges(*waited);
      if (*waited > 0) {
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - iter_start);
        loop_iter_hist_->Observe(static_cast<uint64_t>(us.count()));
        loop_cpu_ns_.store(obs::ThreadCpuNowNs(), std::memory_order_relaxed);
      }
    }
    // Loop exit: every remaining connection is torn down (drain already
    // gave pending writes their grace period in Teardown).
    for (auto& [id, conn] : conns_) {
      (void)epoll_.Remove(conn->fd.get());
    }
    conns_.clear();
    connections_live_.store(0);
    RefreshLoopGauges(0);
  }

  void RefreshLoopGauges(int ready_count) {
    epoll_fds_.store(epoll_.registered());
    ready_depth_.store(static_cast<uint64_t>(std::max(ready_count, 0)));
    // The state scan is O(connections); amortize it on the fast path. It
    // runs every iteration while draining because busy_conns_ is what
    // Teardown's grace period watches.
    if (!draining() && (++gauge_iter_ & 63) != 0) return;
    size_t reading = 0, executing = 0, writing = 0, busy = 0;
    for (const auto& [id, conn] : conns_) {
      if (conn->in_flight > 0) {
        ++executing;
        ++busy;
      } else if (!conn->idle()) {
        ++writing;
        ++busy;
      } else {
        ++reading;
      }
    }
    conns_reading_.store(reading);
    conns_executing_.store(executing);
    conns_writing_.store(writing);
    size_t pending;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      pending = completions_.size();
    }
    busy_conns_.store(busy + pending);
  }

  // ------------------------------------------------------------- accept

  void HandleListener() {
    for (int i = 0; i < kAcceptBatch; ++i) {
      bool would_block = false;
      auto conn = AcceptNonBlocking(listen_fd_.get(), &would_block);
      if (would_block) return;
      if (!conn.ok()) {
        if (draining() || conn.status().code() == StatusCode::kCancelled) {
          return;
        }
        // Transient refusal (injected or EMFILE-shaped): the pending
        // connection stays in the backlog; the next listener event retries.
        accept_retries_.fetch_add(1);
        return;
      }
      connections_accepted_.fetch_add(1);
      // Response-sized writes must not sit behind Nagle waiting for a
      // delayed ACK: pipelined clients would see 40ms stalls per reply.
      const int one = 1;
      (void)::setsockopt(conn->get(), IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
      if (conns_.size() >= options_.max_connections) {
        // Over the cap: answer with a typed 503 and close. Best-effort —
        // the socket is fresh, so the small write virtually never blocks,
        // and a peer that cannot take it was going to be closed anyway.
        const Envelope refusal = Shed(503, "connection limit reached");
        Bucket(refusal.body.outcome).fetch_add(1);
        bool wb = false;
        (void)WriteNonBlocking(
            conn->get(),
            EncodeEnvelope(refusal, WireFormat::kJson, /*close=*/true).bytes,
            &wb);
        continue;
      }
      auto c = std::make_unique<Conn>();
      c->id = next_conn_id_++;
      c->fd = std::move(*conn);
      c->reader = HttpReader(options_.http);
      c->interest = EPOLLIN | EPOLLRDHUP;
      if (!epoll_.Add(c->fd.get(), c->interest, c->id).ok()) continue;
      connections_live_.fetch_add(1);
      conns_.emplace(c->id, std::move(c));
    }
  }

  // -------------------------------------------------- connection events

  void HandleConnEvent(const ReadyEvent& ev) {
    auto it = conns_.find(ev.tag);
    if (it == conns_.end()) return;
    Conn* c = it->second.get();
    if (c->doomed) return;
    if (ev.events & EPOLLERR) {
      // The socket is dead; any in-flight response is undeliverable.
      Doom(c, /*io_error=*/!c->idle() || c->reader.mid_request());
      return;
    }
    if (ev.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) {
      ReadFromConn(c);
      if (c->doomed) return;
    }
    if (ev.events & EPOLLOUT) {
      DriveConn(c);
      if (c->doomed) return;
    }
    UpdateInterest(c);
  }

  void ReadFromConn(Conn* c) {
    if (c->read_closed) return;
    char chunk[16 * 1024];
    size_t total = 0;
    while (total < kReadBatchBytes) {
      bool would_block = false;
      auto n = ReadNonBlocking(c->fd.get(), chunk, sizeof(chunk),
                               &would_block);
      if (!n.ok()) {
        // Injected or real io fault mid-connection: typed io-error, torn.
        Doom(c, /*io_error=*/true);
        return;
      }
      if (would_block) break;
      if (*n == 0) {
        // Orderly EOF. Buffered complete requests still parse and their
        // responses still deliver (a client may send-then-half-close);
        // only once the parser runs dry does ParseOneRequest decide
        // between a clean close and a vanished-mid-request peer.
        c->read_closed = true;
        break;
      }
      total += *n;
      c->reader.Feed(std::string_view(chunk, *n));
    }
    DriveConn(c);
  }

  /// Advances the connection as far as it can go without blocking: flush
  /// whatever responses are ready (coalescing consecutive ones into one
  /// write), then parse further pipelined requests while earlier
  /// statements still execute. Iterative on purpose — a deep pipeline
  /// must not recurse.
  void DriveConn(Conn* c) {
    while (!c->doomed) {
      (void)FlushConn(c);
      if (c->doomed) return;
      if (c->close_pending || c->slots.size() >= kMaxPipelineDepth) return;
      if (!ParseOneRequest(c)) return;
    }
  }

  /// Parses and dispatches one request. Returns true when it made
  /// progress (caller should keep driving), false when more bytes are
  /// needed or the connection is done.
  bool ParseOneRequest(Conn* c) {
    HttpRequest request;
    auto got = c->reader.Next(&request);
    if (!got.ok()) {
      const bool header_cap =
          got.status().message().find("header") != std::string::npos;
      const int status =
          got.status().code() == StatusCode::kParseError
              ? 400
              : (header_cap ? 431 : 413);
      QueueError(c, status, got.status(), /*close=*/true);
      return true;
    }
    if (!*got) {
      if (c->read_closed && !c->eof_handled) {
        c->eof_handled = true;
        if (c->reader.mid_request() || c->reader.buffered_bytes() > 0) {
          // The peer vanished mid-request: torn, typed as an io error.
          io_errors_.fetch_add(1);
        }
        if (c->idle()) {
          Doom(c, /*io_error=*/false);
        } else {
          // Responses are still owed (executing or unwritten); deliver
          // them, then close — send-then-half-close clients get answers.
          c->finish_after_flush = true;
        }
      }
      return false;
    }
    requests_.fetch_add(1);
    c->requests_served++;
    if (c->requests_served > 1) keepalive_reuses_.fetch_add(1);
    if (c->reader.buffered_bytes() > 0) pipelined_.fetch_add(1);
    HandleRequest(c, request);
    return true;
  }

  // ----------------------------------------------------------- routing

  void HandleRequest(Conn* c, const HttpRequest& request) {
    const bool want_close = RequestWantsClose(request);
    if (request.method == "POST" && request.path == "/v1/statement") {
      StatementRequest(c, request, want_close);
      return;
    }
    if (request.method == "POST" && request.path == "/v1/session/close") {
      CloseSessionRequest(c, request, want_close);
      return;
    }
    if (request.method == "GET" && request.path == "/healthz") {
      QueueResponse(c, Healthz(), want_close);
    } else if (request.method == "GET" && request.path == "/metrics") {
      QueueResponse(c, Metrics(), want_close);
    } else if (request.method == "GET" && request.path == "/trace") {
      QueueResponse(c, Trace(), want_close);
    } else if (request.path == "/healthz" || request.path == "/metrics" ||
               request.path == "/trace" || request.path == "/v1/statement" ||
               request.path == "/v1/session/close") {
      QueueError(c, 405,
                 Status::InvalidArgument("method not allowed on " +
                                         request.path),
                 want_close);
    } else {
      QueueError(c, 404,
                 Status::NotFound("no such endpoint: " + request.path),
                 want_close);
    }
  }

  HttpResponse Healthz() {
    const ServerStats s = stats();
    std::string body = "{\"status\":";
    body += s.draining ? "\"draining\"" : "\"serving\"";
    body += ",\"build\":" + BuildInfoJson();
    body += ",\"engine_default\":\"ir\"";
    body += ",\"sessions\":" + std::to_string(s.sessions_live);
    body += ",\"connections\":" + std::to_string(s.connections_live);
    body += ",\"queue_depth\":" + std::to_string(s.queue_depth);
    body += ",\"requests\":" + std::to_string(s.requests);
    body += ",\"epoll_fds\":" + std::to_string(s.epoll_fds);
    body += "}";
    HttpResponse resp;
    resp.body = std::move(body);
    return resp;
  }

  HttpResponse Metrics() {
    obs::MirrorGovernorStats();
    MirrorServerStats();
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4";
    resp.body = obs::GlobalMetrics().Snapshot().ToPrometheusText();
    return resp;
  }

  HttpResponse Trace() {
    std::vector<std::shared_ptr<Session>> sessions;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions.reserve(sessions_.size());
      for (const auto& [name, session] : sessions_) {
        sessions.push_back(session);
      }
    }
    std::string body = "{\"sessions\":[";
    bool first_session = true;
    for (const auto& session : sessions) {
      if (!first_session) body += ",";
      first_session = false;
      body += "{\"id\":" + obs::JsonQuote(session->id) + ",\"entries\":[";
      // The journal locks internally: a session mid-statement shows its
      // tail too, without the loop waiting on the statement.
      bool first_entry = true;
      for (const auto& entry : session->runner.journal().Tail(8)) {
        if (!first_entry) body += ",";
        first_entry = false;
        body += entry.ToJsonLine();
      }
      body += "]}";
    }
    body += "]}";
    HttpResponse resp;
    resp.body = std::move(body);
    return resp;
  }

  // --------------------------------------------------------- statements

  void StatementRequest(Conn* c, const HttpRequest& request,
                        bool want_close) {
    const WireFormat format =
        IsBag1Request(request) ? WireFormat::kBinary : WireFormat::kJson;
    if (format == WireFormat::kBinary) bag1_requests_.fetch_add(1);
    Result<WireStatementRequest> decoded =
        DecodeStatementBody(request.body, format);
    if (decoded.ok() && !ValidSessionName(decoded->session)) {
      decoded = Status::InvalidArgument(
          "session names are [A-Za-z0-9_-]{1,64}");
    }
    if (!decoded.ok()) {
      QueueEnvelope(c, ErrorEnvelope(400, decoded.status()), format,
                    want_close);
      return;
    }
    if (draining()) {
      QueueEnvelope(c, Shed(503, "draining for shutdown"), format,
                    want_close);
      return;
    }
    auto session = GetOrCreateSession(decoded->session);
    if (!session.ok()) {
      QueueEnvelope(c, Shed(503, session.status().message()), format,
                    want_close);
      return;
    }

    ExecJob job;
    job.kind = ExecJob::Kind::kStatement;
    job.conn_id = c->id;
    job.statement = std::move(decoded->statement);
    job.timeout_ms =
        EffectiveLimit(decoded->timeout_ms, options_.default_timeout_ms);
    job.memlimit_bytes = EffectiveLimit(decoded->memlimit_bytes,
                                        options_.default_memlimit_bytes);
    job.format = format;
    job.want_close = want_close;
    Submit(c, *session, std::move(job));
  }

  void CloseSessionRequest(Conn* c, const HttpRequest& request,
                           bool want_close) {
    auto doc = ParseJson(request.body);
    if (!doc.ok() || !doc->is_object()) {
      QueueError(c, 400,
                 doc.ok() ? Status::InvalidArgument(
                                "request body must be a JSON object")
                          : doc.status(),
                 want_close);
      return;
    }
    const JsonValue* name = doc->Find("session");
    if (name != nullptr && !name->is_string()) {
      QueueError(c, 400,
                 Status::InvalidArgument("\"session\" must be a string"),
                 want_close);
      return;
    }
    const std::string session_name = name != nullptr ? name->string : "";
    std::shared_ptr<Session> session;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      auto it = sessions_.find(session_name);
      if (it != sessions_.end()) {
        session = it->second;
        sessions_.erase(it);  // slot frees immediately; flush runs async
      }
    }
    if (session == nullptr) {
      QueueError(c, 404, Status::NotFound("no such session: " + session_name),
                 want_close);
      return;
    }
    // The flush runs on the session's run queue, after the statements
    // admitted before it, never on the loop thread.
    ExecJob job;
    job.kind = ExecJob::Kind::kCloseSession;
    job.conn_id = c->id;
    job.want_close = want_close;
    Submit(c, session, std::move(job));
  }

  /// Admits a job at the tail of its session's run queue and reserves its
  /// response slot; a session that was idle joins the run queue. A
  /// statement is shed while draining or when the queued jobs of all
  /// sessions fill the admission queue. A close is always admitted: it is
  /// what relieves pressure, so shedding it would wedge a full server.
  void Submit(Conn* c, const std::shared_ptr<Session>& session, ExecJob job) {
    const bool statement = job.kind == ExecJob::Kind::kStatement;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (statement && draining()) {
        QueueEnvelope(c, Shed(503, "draining for shutdown"), job.format,
                      job.want_close);
        return;
      }
      if (statement && queued_jobs_ >= options_.queue_capacity) {
        const unsigned lanes = std::max(1u, options_.executors);
        Envelope shed = Shed(429, "admission queue full");
        shed.retry_after = std::to_string(1 + queued_jobs_ / lanes);
        QueueEnvelope(c, shed, job.format, job.want_close);
        return;
      }
      job.seq = NewAsyncSlot(c, job.want_close);
      session->pending.push_back(std::move(job));
      ++queued_jobs_;
      if (session->scheduled) return;  // its lane hands it back
      session->scheduled = true;
      runnable_.push_back(session);
    }
    queue_cv_.notify_one();
  }

  // ---------------------------------------------------------- sessions

  Result<std::shared_ptr<Session>> GetOrCreateSession(
      const std::string& name) {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(name);
    if (it != sessions_.end()) return it->second;
    if (sessions_.size() >= options_.max_sessions) {
      return Status::Unavailable("session limit reached (" +
                                 std::to_string(options_.max_sessions) + ")");
    }
    // The constructor configures the runner before the session is
    // published, so no lane can see it half set up.
    auto created = std::make_shared<Session>(name, options_);
    sessions_.emplace(name, created);
    sessions_created_.fetch_add(1);
    return created;
  }

  void FlushSessionJournal(Session& session) {
    if (options_.journal_dir.empty()) return;
    // ValidSessionName guarantees the id is path-metacharacter-free.
    (void)session.runner.journal().ExportJsonl(
        options_.journal_dir + "/session-" + session.id + ".jsonl");
  }

  // --------------------------------------------------------- executors

  /// One lane: take the session at the head of the run queue, run its
  /// oldest job, then hand the session back — to the tail of the run
  /// queue while it has jobs left, else unscheduled. A session is on at
  /// most one lane, so its jobs run one at a time in program order, and a
  /// lane never waits on another lane: the only wait is for work. The
  /// lane encodes each job's response itself and, after every job, stores
  /// its own CPU clock into `cpu_ns`.
  void ExecutorLoop(std::atomic<uint64_t>* cpu_ns) {
    std::unique_lock<std::mutex> lock(queue_mu_);
    while (true) {
      queue_cv_.wait(lock,
                     [this] { return stop_executors_ || !runnable_.empty(); });
      if (runnable_.empty()) return;  // stopping
      std::shared_ptr<Session> session = std::move(runnable_.front());
      runnable_.pop_front();
      ExecJob job = std::move(session->pending.front());
      session->pending.pop_front();
      --queued_jobs_;
      running_.push_back(session.get());
      lock.unlock();
      Envelope envelope;
      if (job.kind == ExecJob::Kind::kCloseSession) {
        envelope = ExecuteClose(*session);
      } else if (draining()) {
        // Queued-but-not-started work is shed, not run: drain latency
        // must not depend on queue depth.
        envelope = Shed(503, "draining for shutdown");
        envelope.body.outcome = "draining";
      } else {
        envelope = Execute(*session, job);
      }
      PublishCompletion(EncodeCompletion(job, envelope));
      cpu_ns->store(obs::ThreadCpuNowNs(), std::memory_order_relaxed);
      lock.lock();
      running_.erase(
          std::find(running_.begin(), running_.end(), session.get()));
      if (!session->pending.empty()) {
        runnable_.push_back(std::move(session));
      } else {
        session->scheduled = false;
      }
      if (queued_jobs_ == 0 && running_.empty()) idle_cv_.notify_all();
    }
  }

  /// Encodes what `job` produced, on the lane that ran it: a close's
  /// confirmation, or a statement's envelope in the request's format with
  /// up to kLaneEncodeBytes of a streamed body already chunked.
  Completion EncodeCompletion(const ExecJob& job, const Envelope& envelope) {
    Completion done;
    done.conn_id = job.conn_id;
    done.seq = job.seq;
    done.want_close = job.want_close;
    done.outcome = envelope.body.outcome;
    if (job.kind == ExecJob::Kind::kCloseSession) {
      HttpResponse resp;
      resp.body = "{\"ok\":true,\"outcome\":\"ok\",\"closed\":" +
                  obs::JsonQuote(envelope.session) + "}";
      resp.close = job.want_close;
      done.encoded.bytes = FormatHttpResponse(resp);
      return done;
    }
    request_wall_hist_->Observe(envelope.body.wall_us);
    done.encoded = EncodeEnvelope(envelope, job.format, job.want_close,
                                  options_.stream_entries_threshold);
    if (done.encoded.stream != nullptr) {
      streamed_responses_.fetch_add(1);
      PrestreamEncoded(&done.encoded, kLaneEncodeBytes);
    }
    return done;
  }

  void PublishCompletion(Completion completion) {
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(std::move(completion));
    }
    wakeup_.Signal();
  }

  Envelope Execute(Session& session, const ExecJob& job) {
    session.runner.set_timeout_ms(job.timeout_ms);
    session.runner.set_memlimit_bytes(job.memlimit_bytes);
    const auto start = std::chrono::steady_clock::now();
    Result<std::string> output = session.runner.RunLine(job.statement);
    const auto wall = std::chrono::steady_clock::now() - start;
    const auto wall_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(wall).count());
    std::string flight = session.runner.TakeFlightDump();
    Envelope envelope;
    if (output.ok()) {
      envelope = SuccessEnvelope(session.id, *std::move(output),
                                 session.runner.last_result(), wall_us);
    } else {
      envelope = ErrorEnvelope(HttpStatusForCode(output.status().code()),
                               output.status());
      envelope.body.outcome = session.runner.last_outcome();
      envelope.body.flight = std::move(flight);
      envelope.body.wall_us = wall_us;
    }
    obs::MirrorGovernorStats();
    return envelope;
  }

  Envelope ExecuteClose(Session& session) {
    FlushSessionJournal(session);
    sessions_closed_.fetch_add(1);
    return SuccessEnvelope(session.id, "", std::nullopt, 0);
  }

  // -------------------------------------------------------- completions

  void DrainCompletions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      batch.swap(completions_);
    }
    for (Completion& completion : batch) {
      // The typed outcome counts even when the connection died while the
      // job ran and the bytes have nowhere to go.
      Bucket(completion.outcome).fetch_add(1);
      auto it = conns_.find(completion.conn_id);
      if (it == conns_.end() || it->second->doomed) continue;
      Conn* c = it->second.get();
      const uint64_t idx = completion.seq - c->base_seq;
      // Unreachable by construction (an unready slot blocks promotion);
      // defensive against miscounted sequences.
      if (idx >= c->slots.size()) continue;
      ResponseSlot& slot = c->slots[static_cast<size_t>(idx)];
      slot.bytes = std::move(completion.encoded.bytes);
      slot.stream = std::move(completion.encoded.stream);
      slot.close_after = completion.want_close;
      slot.ready = true;
      --c->in_flight;
      DriveConn(c);
      if (!c->doomed) UpdateInterest(c);
    }
  }

  /// The stats counter of an outcome word: one of the five typed buckets
  /// of the acceptance contract.
  std::atomic<uint64_t>& Bucket(std::string_view outcome) {
    if (outcome == "ok") return ok_;
    if (outcome == "budget-refused") return refused_;
    if (outcome == "shed" || outcome == "draining") return shed_;
    if (outcome == "deadline" || outcome == "memcap" || outcome == "cancel" ||
        outcome == "fault") {
      return tripped_;
    }
    return errors_;
  }

  // -------------------------------------------------- response rendering

  /// Queues a ready (synchronous) envelope response in request order and
  /// counts its outcome. These are the loop's own refusals: small, and
  /// never streamed.
  void QueueEnvelope(Conn* c, const Envelope& env, WireFormat format,
                     bool close) {
    Bucket(env.body.outcome).fetch_add(1);
    c->slots.emplace_back();
    ResponseSlot* slot = &c->slots.back();
    slot->bytes = EncodeEnvelope(env, format, close).bytes;
    slot->close_after = close;
    slot->ready = true;
    if (close) c->close_pending = true;
  }

  /// Queues a JSON error for a request that names no statement.
  void QueueError(Conn* c, int http_status, const Status& status,
                  bool close) {
    QueueEnvelope(c, ErrorEnvelope(http_status, status), WireFormat::kJson,
                  close);
  }

  /// Queues a ready (synchronous) plain response in request order.
  /// Deliberately does NOT drive the connection: callers inside DriveConn
  /// would recurse (one stack frame per pipelined request); the enclosing
  /// DriveConn loop — or the explicit DriveConn in DrainCompletions —
  /// picks it up iteratively.
  void QueueResponse(Conn* c, HttpResponse resp, bool close) {
    resp.close = resp.close || close;
    c->slots.emplace_back();
    ResponseSlot* slot = &c->slots.back();
    slot->ready = true;
    slot->close_after = resp.close;
    slot->bytes = FormatHttpResponse(resp);
    if (resp.close) c->close_pending = true;
  }

  /// Reserves the next in-order response slot for a statement headed to
  /// the executor pool. The completion fills it by sequence number.
  uint64_t NewAsyncSlot(Conn* c, bool want_close) {
    const uint64_t seq = c->next_seq();
    c->slots.emplace_back();
    ++c->in_flight;
    if (want_close) c->close_pending = true;
    return seq;
  }

  /// Moves ready responses, in order, from the slot queue into the write
  /// buffer — consecutive ready slots coalesce into one write. Stops at
  /// the first unready slot, when a streamed response takes over the
  /// buffer, or after promoting a close-marked response (nothing after
  /// it can be sent).
  void PromoteSlots(Conn* c) {
    while (c->stream == nullptr && !c->slots.empty() &&
           c->slots.front().ready && !c->close_after_write) {
      ResponseSlot& slot = c->slots.front();
      if (c->out.empty()) {
        c->out.swap(slot.bytes);  // a lane-encoded body is not copied
      } else {
        c->out += slot.bytes;
      }
      c->close_after_write |= slot.close_after;
      if (slot.stream != nullptr) c->stream = std::move(slot.stream);
      c->slots.pop_front();
      ++c->base_seq;
    }
  }

  /// Promotes ready responses and writes as much as the socket takes.
  /// Returns true when everything promotable is out (the connection may
  /// be idle or waiting on an executor), false when write-blocked or the
  /// connection closed.
  bool FlushConn(Conn* c) {
    while (true) {
      PromoteSlots(c);
      if (c->stream != nullptr && c->pending_out() < kWriteLowWater &&
          !AppendStreamChunk(*c->stream, &c->out)) {
        c->stream.reset();
      }
      if (c->pending_out() == 0 && c->stream == nullptr) break;
      bool would_block = false;
      auto n = WriteNonBlocking(
          c->fd.get(),
          std::string_view(c->out).substr(c->out_off), &would_block);
      if (!n.ok()) {
        Doom(c, /*io_error=*/true);
        return false;
      }
      if (would_block) return false;
      c->out_off += *n;
      // Keep the consumed prefix from growing without bound on long
      // streamed responses.
      if (c->out_off > 512 * 1024 && c->out_off >= c->out.size() / 2) {
        c->out.erase(0, c->out_off);
        c->out_off = 0;
      }
    }
    c->out.clear();
    c->out_off = 0;
    if (c->close_after_write ||
        (c->finish_after_flush && c->slots.empty())) {
      Doom(c, /*io_error=*/false);
      return false;
    }
    return true;
  }

  // -------------------------------------------------- interest & close

  void UpdateInterest(Conn* c) {
    if (c->doomed) return;
    uint32_t want = EPOLLRDHUP;
    // Reads stay armed while statements execute (pipelined bytes drain
    // into the parser buffer), pausing once the buffer holds a full
    // window of unparsed requests — bounded memory per connection — or
    // once a close-marked response makes further requests unanswerable.
    const size_t pause_at =
        2 * (options_.http.max_header_bytes + options_.http.max_body_bytes);
    if (!c->read_closed && !c->close_pending &&
        c->reader.buffered_bytes() < pause_at) {
      want |= EPOLLIN;
    }
    if (c->pending_out() > 0 || c->stream != nullptr) want |= EPOLLOUT;
    if (want != c->interest) {
      if (epoll_.Modify(c->fd.get(), want, c->id).ok()) {
        c->interest = want;
      }
    }
  }

  /// Marks a connection for teardown at the end of the loop iteration.
  /// Deferred so no event-handling frame is left holding a dangling Conn*.
  void Doom(Conn* c, bool io_error) {
    if (c->doomed) return;
    c->doomed = true;
    if (io_error) io_errors_.fetch_add(1);
    (void)epoll_.Remove(c->fd.get());
    doomed_.push_back(c->id);
  }

  void ReapDoomed() {
    for (const uint64_t id : doomed_) {
      if (conns_.erase(id) > 0) connections_live_.fetch_sub(1);
    }
    doomed_.clear();
  }

  // ------------------------------------------------------------- drain

  void Teardown() {
    // Phase 1 — run the executor pool dry: the lanes shed every queued
    // statement, and in-flight ones are cancelled until the pool idles.
    // The repeat matters: RunLine re-arms the session token at statement
    // start, so a single Cancel can race a statement that slipped past the
    // drain check; a periodic sweep always lands.
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      while (queued_jobs_ != 0 || !running_.empty()) {
        CancelRunning();
        idle_cv_.wait_for(lock, std::chrono::milliseconds(20), [this] {
          return queued_jobs_ == 0 && running_.empty();
        });
      }
      stop_executors_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& t : executors_) t.join();
    executors_.clear();

    // Phase 2 — let the loop deliver what the executors produced: every
    // completion rendered and every in-flight response written (a
    // cancelled statement's 499 must reach its client). Bounded: a peer
    // that stopped reading forfeits its bytes after the grace period.
    wakeup_.Signal();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (std::chrono::steady_clock::now() < deadline &&
           busy_conns_.load() > 0) {
      wakeup_.Signal();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    // Phase 3 — stop the loop and tear down the remaining connections.
    loop_stop_.store(true, std::memory_order_release);
    wakeup_.Signal();
    if (loop_thread_.joinable()) loop_thread_.join();

    // Phase 4 — flush journals and publish the final metrics mirror.
    std::vector<std::shared_ptr<Session>> sessions;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (const auto& [name, session] : sessions_) {
        sessions.push_back(session);
      }
      sessions_.clear();
    }
    for (const auto& session : sessions) {
      FlushSessionJournal(*session);
      sessions_closed_.fetch_add(1);
    }
    obs::MirrorGovernorStats();
    MirrorServerStats();
    listen_fd_.Reset();
    listen_fd_raw_.store(-1, std::memory_order_release);
  }

  /// Cancels the statement on every lane. The lanes, not `sessions_`,
  /// know what runs: a closed session leaves `sessions_` at once while
  /// its jobs still run. Queued jobs need no cancel; the lanes shed them.
  /// Caller holds queue_mu_.
  void CancelRunning() {
    for (Session* session : running_) session->cancel.Cancel();
  }

  // ------------------------------------------------------------ shared

  void MirrorServerStats() {
    auto& metrics = obs::GlobalMetrics();
    const ServerStats s = stats();
    metrics.GetCounter("server.requests")->RaiseTo(s.requests);
    metrics.GetCounter("server.outcome.ok")->RaiseTo(s.ok);
    metrics.GetCounter("server.outcome.refused")->RaiseTo(s.refused);
    metrics.GetCounter("server.outcome.shed")->RaiseTo(s.shed);
    metrics.GetCounter("server.outcome.tripped")->RaiseTo(s.tripped);
    metrics.GetCounter("server.outcome.error")->RaiseTo(s.errors);
    metrics.GetCounter("server.io.errors")->RaiseTo(s.io_errors);
    metrics.GetCounter("server.accept.retries")
        ->RaiseTo(accept_retries_.load());
    metrics.GetCounter("server.sessions.created")
        ->RaiseTo(s.sessions_created);
    metrics.GetCounter("server.sessions.closed")->RaiseTo(s.sessions_closed);
    metrics.GetCounter("server.connections.accepted")
        ->RaiseTo(s.connections_accepted);
    metrics.GetCounter("server.http.keepalive.reuses")
        ->RaiseTo(s.keepalive_reuses);
    metrics.GetCounter("server.http.pipelined")->RaiseTo(s.pipelined);
    metrics.GetCounter("server.wire.bag1.requests")
        ->RaiseTo(s.bag1_requests);
    metrics.GetCounter("server.http.streamed")
        ->RaiseTo(s.streamed_responses);
    // Each thread publishes its own CPU clock; a joined lane's clock can
    // no longer be read, its last stored value can. The counters grow by
    // this server's CPU since the last mirror.
    const uint64_t loop_cpu_us =
        loop_cpu_ns_.load(std::memory_order_relaxed) / 1000;
    uint64_t lane_cpu_ns = 0;
    for (const auto& ns : lane_cpu_ns_) {
      lane_cpu_ns += ns.load(std::memory_order_relaxed);
    }
    const uint64_t lane_cpu_us = lane_cpu_ns / 1000;
    metrics.GetCounter("server.thread.loop.cpu_us")
        ->Increment(loop_cpu_us - mirrored_loop_cpu_us_);
    metrics.GetCounter("server.thread.lane.cpu_us")
        ->Increment(lane_cpu_us - mirrored_lane_cpu_us_);
    mirrored_loop_cpu_us_ = loop_cpu_us;
    mirrored_lane_cpu_us_ = lane_cpu_us;
    metrics.GetGauge("server.sessions.live")
        ->Set(static_cast<int64_t>(s.sessions_live));
    metrics.GetGauge("server.connections.live")
        ->Set(static_cast<int64_t>(s.connections_live));
    metrics.GetGauge("server.queue.depth")
        ->Set(static_cast<int64_t>(s.queue_depth));
    metrics.GetGauge("server.epoll.fds")
        ->Set(static_cast<int64_t>(s.epoll_fds));
    metrics.GetGauge("server.epoll.ready.depth")
        ->Set(static_cast<int64_t>(ready_depth_.load()));
    metrics.GetGauge("server.conn.state.reading")
        ->Set(static_cast<int64_t>(conns_reading_.load()));
    metrics.GetGauge("server.conn.state.executing")
        ->Set(static_cast<int64_t>(conns_executing_.load()));
    metrics.GetGauge("server.conn.state.writing")
        ->Set(static_cast<int64_t>(conns_writing_.load()));
  }

  const ServerOptions options_;
  Fd listen_fd_;
  std::atomic<int> listen_fd_raw_{-1};
  uint16_t port_ = 0;

  std::atomic<bool> draining_{false};
  std::atomic<bool> loop_stop_{false};
  std::mutex teardown_mu_;
  bool torn_down_ = false;  // guarded by teardown_mu_

  // Loop-thread-only state (no locks: single owner).
  EpollLoop epoll_;
  WakeupFd wakeup_;
  std::thread loop_thread_;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  std::vector<uint64_t> doomed_;
  uint64_t next_conn_id_ = kFirstConnId;
  uint64_t gauge_iter_ = 0;
  obs::Histogram* loop_iter_hist_ = nullptr;
  obs::Histogram* request_wall_hist_ = nullptr;  // observed by the lanes

  mutable std::mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable idle_cv_;
  // Sessions with queued jobs and no lane, in the order they became
  // runnable; a session is here at most once (its `scheduled` flag).
  std::deque<std::shared_ptr<Session>> runnable_;  // guarded by queue_mu_
  size_t queued_jobs_ = 0;  // not started, over all sessions; queue_mu_
  // The session of each job a lane has taken and not finished; queue_mu_.
  std::vector<Session*> running_;
  bool stop_executors_ = false;  // guarded by queue_mu_
  std::vector<std::thread> executors_;

  // Each thread's own CPU clock, as it last stored it: the loop after each
  // iteration that handled events, a lane after each job.
  std::atomic<uint64_t> loop_cpu_ns_{0};
  std::vector<std::atomic<uint64_t>> lane_cpu_ns_;
  // The CPU totals at the last MirrorServerStats, which the loop and, once
  // the loop has been joined, Teardown call.
  uint64_t mirrored_loop_cpu_us_ = 0;
  uint64_t mirrored_lane_cpu_us_ = 0;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;  // guarded by completions_mu_

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> tripped_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> io_errors_{0};
  std::atomic<uint64_t> accept_retries_{0};
  std::atomic<uint64_t> sessions_created_{0};
  std::atomic<uint64_t> sessions_closed_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> keepalive_reuses_{0};
  std::atomic<uint64_t> pipelined_{0};
  std::atomic<uint64_t> bag1_requests_{0};
  std::atomic<uint64_t> streamed_responses_{0};
  std::atomic<size_t> connections_live_{0};
  std::atomic<size_t> epoll_fds_{0};
  std::atomic<uint64_t> ready_depth_{0};
  std::atomic<size_t> conns_reading_{0};
  std::atomic<size_t> conns_executing_{0};
  std::atomic<size_t> conns_writing_{0};
  std::atomic<size_t> busy_conns_{0};
};

Server::Server() = default;
Server::~Server() = default;

Result<std::unique_ptr<Server>> Server::Start(ServerOptions options) {
  auto server = std::unique_ptr<Server>(new Server());
  server->impl_ = std::make_unique<Impl>(std::move(options));
  BAGALG_RETURN_IF_ERROR(server->impl_->Start());
  return server;
}

uint16_t Server::port() const { return impl_->port(); }
void Server::RequestShutdown() { impl_->RequestShutdown(); }
void Server::Wait() { impl_->Wait(); }
bool Server::draining() const { return impl_->draining(); }
ServerStats Server::stats() const { return impl_->stats(); }

}  // namespace bagalg::net
