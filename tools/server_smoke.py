#!/usr/bin/env python3
"""Concurrent smoke test for bagalgd. Stdlib only.

Starts the server, then drives it from N concurrent keep-alive sessions
issuing a mixed statement diet — well-formed queries, budget-refused
queries, deadline-tripped queries, and malformed requests — and asserts
the robustness contract:

  * every request ends in a typed outcome (HTTP status + JSON error
    envelope), never a hang or an untyped connection drop*;
  * each client holds one persistent connection and the server actually
    reuses it (per-connection request counts are reported and checked);
  * a BAG1 binary statement frame (built with struct.pack, no C++
    involved) round-trips on the wire path;
  * one session's statements, pipelined on one connection, run in
    program order: each `eval X` answers the bag of the `let X` before it;
  * the server process survives the whole run (no crash, no abort);
  * /metrics stays a valid Prometheus exposition (validate_obs.py) and
    exposes the event-loop gauges (bagalg_server_epoll_*) and the loop's
    and lanes' own CPU and voluntary context-switch counters
    (bagalg_server_thread_*_cpu_us_total,
    bagalg_server_thread_*_voluntary_ctx_switches_total);
  * SIGTERM at the end drains cleanly with exit code 0.

(*) When BAGALG_FAULT=io:... is armed, injected disconnects legally tear
connections mid-request; the client retries those (bounded) and they must
show up in the server's io_errors counter rather than crash it. Run the
chaos variant as:

  BAGALG_FAULT=io:p=0.05:seed=7 python3 tools/server_smoke.py \
      --binary build/examples/bagalgd --sessions 32 --requests 1000
"""

import argparse
import http.client
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time

# 16 atoms: pow() preflight-estimates 2^16 = 65536 <= the server budget
# (100000), so it runs — and trips its 10ms deadline mid-enumeration.
BIG = "{{a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p}}"
# 17 atoms: pow() preflight-estimates 2^17 = 131072 > the budget, so the
# governor refuses it before execution (E001 -> 422).
BIGGER = "{{a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p,q}}"

# (payload-maker, set of acceptable HTTP statuses)
def statement_mix(session, i):
    kind = i % 5
    if kind == 0:  # plain success
        return ({"session": session, "statement": "count pow('{{a,b,c}})"},
                {200})
    if kind == 1:  # exec engine path
        return ({"session": session,
                 "statement": "exec uplus('{{a, b}}, '{{b, c}})"}, {200})
    if kind == 2:  # budget refusal (server started with --budget)
        return ({"session": session, "statement": f"eval pow('{BIGGER})"},
                {422})
    if kind == 3:  # deadline trip
        return ({"session": session,
                 "statement": f"count pow('{BIG})",
                 "timeout_ms": 10}, {504})
    # malformed statement: typed 400
    return ({"session": session, "statement": "eval (("}, {400})


class Client(threading.Thread):
    """One session's worth of sequential requests over a persistent
    keep-alive connection, with bounded retries for connection-level
    failures (expected under io fault injection) and retryable server
    responses (429/503). Records how many requests each connection
    served before it was closed or torn."""

    def __init__(self, port, session, requests, stats, lock):
        super().__init__()
        self.port = port
        self.session = session
        self.requests = requests
        self.stats = stats
        self.lock = lock
        self.failures = []
        self.conn = None
        self.conn_requests = 0
        self.conn_history = []  # requests served per finished connection

    def drop_conn(self):
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
        if self.conn_requests:
            self.conn_history.append(self.conn_requests)
            self.conn_requests = 0

    def post(self, payload):
        body = json.dumps(payload)
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=60)
        self.conn.request("POST", "/v1/statement", body,
                          {"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        data = resp.read()  # drain fully so the connection can be reused
        self.conn_requests += 1
        if resp.will_close:
            self.drop_conn()
        return resp.status, data

    def run(self):
        for i in range(self.requests):
            payload, want = statement_mix(self.session, i)
            outcome = None
            for _attempt in range(25):
                try:
                    status, _body = self.post(payload)
                except (OSError, http.client.HTTPException):
                    # Torn connection (injected disconnect): retry on a
                    # fresh one.
                    self.drop_conn()
                    with self.lock:
                        self.stats["torn"] += 1
                    time.sleep(0.01)
                    continue
                if status in (429, 503):
                    # Shed: retryable by contract.
                    with self.lock:
                        self.stats["shed"] += 1
                    time.sleep(0.05)
                    continue
                outcome = status
                break
            if outcome is None:
                self.failures.append(f"{self.session}#{i}: no typed outcome")
            elif outcome not in want:
                self.failures.append(
                    f"{self.session}#{i}: HTTP {outcome}, wanted {want}")
            with self.lock:
                self.stats[outcome] = self.stats.get(outcome, 0) + 1
        self.drop_conn()


def read_response(sock, buf):
    """Reads one Content-Length response from `sock`, `buf` holding bytes
    already received. Returns (head, body, leftover bytes); raises OSError
    on EOF."""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise OSError("eof before response head")
        buf += chunk
    head, _, rest = buf.partition(b"\r\n\r\n")
    length = next(int(line.split(b":")[1])
                  for line in head.split(b"\r\n")
                  if line.lower().startswith(b"content-length"))
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise OSError("eof before response body")
        rest += chunk
    return head, rest[:length], rest[length:]


def bag1_probe(port, failures, fault_armed):
    """Round-trips one BAG1 binary statement built with struct.pack —
    frame: 'BAG1' magic, version 1, format 2 (binary), two reserved
    bytes, u32-LE payload length; payload: len-prefixed session and
    statement strings plus u64-LE timeout/memlimit."""

    def lp(b):
        return struct.pack("<I", len(b)) + b

    payload = (lp(b"smokebag1") + lp(b"count '{{a, b}}") +
               struct.pack("<QQ", 0, 0))
    frame = (b"BAG1" + bytes([1, 2, 0, 0]) +
             struct.pack("<I", len(payload)) + payload)
    request = (b"POST /v1/statement HTTP/1.1\r\nHost: smoke\r\n"
               b"Content-Type: application/x-bag1\r\n"
               b"Content-Length: " + str(len(frame)).encode() +
               b"\r\n\r\n" + frame)
    for _attempt in range(10):
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=30) as sock:
                sock.sendall(request)
                head, body, _ = read_response(sock, b"")
        except OSError:
            time.sleep(0.02)  # injected tear; retry
            continue
        if b" 200 " not in head.split(b"\r\n", 1)[0]:
            failures.append(f"bag1: HTTP {head.split()[1:2]}, wanted 200")
            return
        if body[:4] != b"BAG1" or body[4] != 1 or body[5] != 2:
            failures.append(f"bag1: bad response frame head {body[:6]!r}")
            return
        payload = body[12:12 + struct.unpack_from("<I", body, 8)[0]]
        ok = payload[0]
        outcome_len = struct.unpack_from("<I", payload, 1)[0]
        outcome = payload[5:5 + outcome_len]
        if ok != 1 or outcome != b"ok":
            failures.append(f"bag1: ok={ok} outcome={outcome!r}")
        return
    if not fault_armed:
        failures.append("bag1: no typed outcome after 10 attempts")


def pipeline_probe(port, failures, fault_armed):
    """Writes 20 `let X = {{pK}}` / `eval X` pairs for one session on one
    keep-alive connection in a single send; each eval must answer its own
    let's bag. A torn connection (injected io fault) ends the probe
    without failing it; a wrong bag always fails it."""
    pairs = 20
    request = b""
    for k in range(pairs):
        for statement in (f"let X = {{{{p{k}}}}}", "eval X"):
            body = json.dumps({"session": "smokepipe",
                               "statement": statement}).encode()
            request += (b"POST /v1/statement HTTP/1.1\r\nHost: smoke\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: " + str(len(body)).encode() +
                        b"\r\n\r\n" + body)
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=30) as sock:
            sock.sendall(request)
            buf = b""
            for k in range(pairs):
                for want in (None, f"{{{{p{k}}}}}"):
                    head, body, buf = read_response(sock, buf)
                    status = head.split(b"\r\n", 1)[0]
                    if b" 200 " not in status:
                        failures.append(f"pipeline #{k}: {status!r}")
                        return
                    if want is not None and \
                            json.loads(body).get("output") != want:
                        failures.append(
                            f"pipeline #{k}: eval X answered {body!r}, "
                            f"wanted {want}")
                        return
    except OSError as e:
        # Under io fault injection a torn connection is legal: no answer
        # is not a wrong answer.
        if not fault_armed:
            failures.append(f"pipeline: connection torn: {e}")


def fetch(port, path, tries=25):
    for _ in range(tries):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read().decode("utf-8", "replace")
        except OSError:
            time.sleep(0.02)
        finally:
            conn.close()
    return 0, ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--sessions", type=int, default=32)
    parser.add_argument("--requests", type=int, default=1000,
                        help="total requests across all sessions")
    args = parser.parse_args()

    per_session = max(1, args.requests // args.sessions)
    fault = os.environ.get("BAGALG_FAULT", "")
    print(f"smoke: {args.sessions} sessions x {per_session} requests"
          f" (BAGALG_FAULT={fault or 'off'})")

    proc = subprocess.Popen(
        [args.binary, "--port=0", "--budget=100000", "--executors=8",
         f"--queue={max(128, args.sessions)}",
         f"--max-sessions={max(128, 2 * args.sessions)}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        line = proc.stdout.readline().strip()
        if not line.startswith("bagalgd listening on "):
            print(f"FAIL: bad banner: {line!r}", file=sys.stderr)
            return 1
        port = int(line.rsplit(":", 1)[1])

        stats = {"torn": 0, "shed": 0}
        lock = threading.Lock()
        clients = [
            Client(port, f"smoke{i}", per_session, stats, lock)
            for i in range(args.sessions)
        ]
        start = time.time()
        for c in clients:
            c.start()
        for c in clients:
            c.join()
        wall = time.time() - start

        failures = [f for c in clients for f in c.failures]
        if proc.poll() is not None:
            print(f"FAIL: server died mid-run (exit {proc.poll()}):\n"
                  f"{proc.stderr.read()}", file=sys.stderr)
            return 1

        bag1_probe(port, failures, fault_armed=bool(fault))
        pipeline_probe(port, failures, fault_armed=bool(fault))

        status, metrics = fetch(port, "/metrics")
        if status != 200 or "bagalg_server_requests_total" not in metrics:
            failures.append(f"/metrics unhealthy: HTTP {status}")
        for needed in ("# TYPE bagalg_server_requests_total counter",
                       "bagalg_server_io_errors_total",
                       "bagalg_server_epoll_fds",
                       "bagalg_server_epoll_ready_depth",
                       "bagalg_server_epoll_loop_iter_us_bucket",
                       "bagalg_server_conn_state_reading",
                       "bagalg_server_http_keepalive_reuses_total",
                       "bagalg_server_wire_bag1_requests_total",
                       "bagalg_server_thread_loop_cpu_us_total",
                       "bagalg_server_thread_lane_cpu_us_total",
                       "bagalg_server_thread_loop_voluntary_ctx_switches_total",
                       "bagalg_server_thread_lane_voluntary_ctx_switches_total"):
            if needed not in metrics:
                failures.append(f"/metrics missing {needed!r}")
        # The exposition must parse as real Prometheus text, not just
        # contain the right substrings.
        validator = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "validate_obs.py")
        with tempfile.NamedTemporaryFile("w", suffix=".prom",
                                         delete=False) as prom:
            prom.write(metrics)
            prom_path = prom.name
        try:
            check = subprocess.run(
                [sys.executable, validator, "--prom", prom_path],
                capture_output=True, text=True)
            if check.returncode != 0:
                failures.append(
                    f"validate_obs --prom failed: {check.stderr.strip()}")
        finally:
            os.unlink(prom_path)
        status, health = fetch(port, "/healthz")
        if status != 200 or '"status":"serving"' not in health:
            failures.append(f"/healthz unhealthy: HTTP {status} {health!r}")

        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            failures.append("server did not drain within 60s of SIGTERM")
            code = -1
        if code != 0:
            failures.append(f"server exited {code} after SIGTERM, wanted 0")
        drain_line = proc.stderr.read().strip().splitlines()
        print(f"smoke: {args.sessions * per_session} requests in "
              f"{wall:.1f}s; outcomes={stats}")
        conns = [n for c in clients for n in c.conn_history]
        if conns:
            print(f"smoke: {len(conns)} connections served "
                  f"{sum(conns)} requests "
                  f"(per-connection mean={sum(conns) / len(conns):.1f} "
                  f"max={max(conns)})")
        if not fault and per_session > 1 and conns and \
                max(conns) < per_session:
            failures.append(
                f"keep-alive not reused: best connection served only "
                f"{max(conns)}/{per_session} requests")
        if drain_line:
            print(f"smoke: {drain_line[-1]}")

        if failures:
            print(f"FAILED: {len(failures)} problem(s)", file=sys.stderr)
            for f in failures[:40]:
                print(f"  {f}", file=sys.stderr)
            return 1
        print("OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
