#!/usr/bin/env python3
"""Signal-handling tests for the bagalg binaries. Stdlib only.

Two scenarios that cannot live in a unit test because they need real
processes receiving real signals:

1. bagalgd SIGTERM graceful drain: start the server, put a statement in
   flight that would run (nearly) forever, SIGTERM the process, and
   assert that it exits 0 within the deadline, reports a drain summary,
   flushes the session journal (header line included), and that the
   in-flight request ended in a typed outcome rather than vanishing.

2. REPL SIGINT cancel: run the interactive REPL, start a
   hyperexponential statement, SIGINT mid-flight, and assert the
   statement returns Cancelled while the session survives and answers
   the next statement; EOF then exits 0.
"""

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

BIG_LET = "let X = {{a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p,q,r,s,t,u}}"
# Enumerating pow(X) for |X| = 21 walks 2^21 subbags: ~tens of seconds,
# but legal (under the powerset enumeration guard), so the only way it
# ends early is cooperative cancellation.
FOREVER = "count pow(X)"


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def wait_for_port_line(proc, deadline_s=10):
    """Reads stdout until the 'bagalgd listening on HOST:PORT' line."""
    start = time.time()
    while time.time() - start < deadline_s:
        line = proc.stdout.readline()
        if not line:
            fail("bagalgd exited before announcing its port")
        line = line.strip()
        if line.startswith("bagalgd listening on "):
            return int(line.rsplit(":", 1)[1])
    fail("timed out waiting for the bagalgd listening line")


def post_statement(port, payload, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", "/v1/statement", json.dumps(payload),
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8", "replace")
    finally:
        conn.close()


def test_bagalgd_sigterm(binary):
    journal_dir = tempfile.mkdtemp(prefix="bagalg_signal_")
    proc = subprocess.Popen(
        [binary, "--port=0", f"--journal-dir={journal_dir}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        port = wait_for_port_line(proc)
        status, _ = post_statement(
            port, {"session": "sig", "statement": BIG_LET})
        if status != 200:
            fail(f"setup statement failed with HTTP {status}")

        in_flight = {}

        def run_forever():
            try:
                in_flight["status"], in_flight["body"] = post_statement(
                    port, {"session": "sig", "statement": FOREVER})
            except OSError:
                # Torn connection during drain is acceptable: the server
                # may close before the response write lands.
                in_flight["status"] = "torn"

        thread = threading.Thread(target=run_forever)
        thread.start()
        time.sleep(1.0)  # let the statement pass admission and run

        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("bagalgd did not drain within 30s of SIGTERM")
        thread.join(timeout=10)

        if code != 0:
            fail(f"bagalgd exited {code} after SIGTERM, wanted 0")
        stderr = proc.stderr.read()
        if "drained" not in stderr:
            fail(f"no drain summary on stderr: {stderr!r}")
        if in_flight.get("status") not in (499, 503, "torn"):
            fail(f"in-flight statement ended with {in_flight.get('status')}"
                 f" ({in_flight.get('body', '')[:200]}), wanted 499/503/torn")

        journal = os.path.join(journal_dir, "session-sig.jsonl")
        if not os.path.exists(journal):
            fail(f"session journal not flushed to {journal}")
        with open(journal, encoding="utf-8") as f:
            first = json.loads(f.readline())
        if first.get("header") is not True or "build" not in first:
            fail(f"journal header malformed: {first}")
        print("ok: bagalgd SIGTERM drains cleanly "
              f"(in-flight -> {in_flight.get('status')})")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_repl_sigint(binary):
    proc = subprocess.Popen(
        [binary], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, bufsize=1,
        start_new_session=True)
    try:
        proc.stdin.write(f"{BIG_LET}\n{FOREVER}\n")
        proc.stdin.flush()
        time.sleep(1.5)  # statement is now running
        proc.send_signal(signal.SIGINT)
        time.sleep(0.2)
        try:
            # communicate() writes the post-cancel statement, closes stdin
            # (EOF -> clean exit), and collects the transcript.
            out, _ = proc.communicate(input="count X\n", timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            fail("REPL did not finish after SIGINT + EOF")
        if proc.returncode != 0:
            fail(f"REPL exited {proc.returncode}, wanted 0")
        if "Cancelled" not in out:
            fail(f"no Cancelled error after SIGINT; output: {out[-500:]!r}")
        # The session survived: the post-cancel statement still answered.
        if "21" not in out.split("Cancelled", 1)[1]:
            fail(f"session did not answer after cancel: {out[-500:]!r}")
        print("ok: REPL SIGINT cancels the statement, session survives")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bagalgd", required=True)
    parser.add_argument("--repl", required=True)
    args = parser.parse_args()
    test_bagalgd_sigterm(args.bagalgd)
    test_repl_sigint(args.repl)
    print("OK")


if __name__ == "__main__":
    main()
