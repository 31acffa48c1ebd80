#!/usr/bin/env python3
"""End-to-end smoke test for `tokenring_tool serve`.

Boots the daemon on an ephemeral port, drives a scripted mix of good,
malformed, oversized, cached, and rate-limited requests over real TCP,
validates every response line as JSON against the tokenring.serve/1
envelope, and asserts a clean SIGTERM drain (exit code 0).

Usage:
  serve_smoke.py [path/to/tokenring_tool] [--connections N]

--connections N adds an fd-pressure phase: N concurrent idle connections
parked on the reactor (opened in waves, each proven served), the full
request mix driven underneath them, and a SIGTERM drain with everything
still parked. The soft fd limit is raised toward the hard limit first.

Exit code 0 when every check passes, 1 otherwise. Stdlib only.
"""

import argparse
import json
import resource
import signal
import socket
import subprocess
import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from serve_client import ServeClient  # noqa: E402

CHECK_QUERY = {
    "type": "check",
    "id": 1,
    "protocol": "fddi",
    "bandwidth_mbps": 100,
    "streams": [
        {"station": 1, "period_ms": 10, "payload_bits": 64000},
        {"station": 2, "period_ms": 20, "payload_bits": 128000},
    ],
}

failures = []


def expect(cond, what):
    status = "ok" if cond else "FAIL"
    print(f"  [{status}] {what}")
    if not cond:
        failures.append(what)


class ServeProcess:
    """tokenring_tool serve wrapper: boots, scrapes the port, tears down."""

    def __init__(self, tool, extra_flags=()):
        self.proc = subprocess.Popen(
            [tool, "serve", "--port=0", *extra_flags],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        # The daemon announces "tokenring.serve/1 listening on HOST:PORT" on
        # stderr once the socket is bound; scraping it avoids a sleep-and-hope
        # startup race.
        line = self.proc.stderr.readline().strip()
        if "listening on" not in line:
            self.proc.kill()
            sys.exit(f"error: unexpected serve banner: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def connect(self):
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=10)
        return sock, sock.makefile("rb")

    def terminate(self):
        """SIGTERM and return the exit code (the drain contract is exit 0)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return None
        finally:
            self.proc.stderr.close()
        return code


def ask(sock, reader, request):
    """Send one request line (dict or raw string), return the parsed reply."""
    line = request if isinstance(request, str) else json.dumps(request)
    sock.sendall(line.encode() + b"\n")
    reply = reader.readline()
    if not reply:
        sys.exit("error: server closed the connection mid-conversation")
    doc = json.loads(reply)  # every response line must be valid JSON
    if doc.get("schema") != "tokenring.serve/1":
        sys.exit(f"error: bad response schema: {doc.get('schema')!r}")
    return doc


def raise_fd_limit(needed):
    """Lift the soft RLIMIT_NOFILE toward the hard limit if necessary."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < needed:
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(needed, hard), hard))


def fd_pressure_phase(tool, connections):
    """Park `connections` idle peers, then prove the server still serves
    the full mix underneath them and drains cleanly on SIGTERM."""
    print(f"== fd pressure ({connections} parked connections) ==")
    raise_fd_limit(connections + 64)
    server = ServeProcess(tool)

    # Waves below the listen backlog, each connection proven accepted and
    # served (one answered ping) before the next wave -- so the parked
    # count is real, not a pile of un-accepted SYNs.
    parked = []
    ping = json.dumps({"type": "ping", "id": "park"}).encode() + b"\n"
    while len(parked) < connections:
        wave = []
        for _ in range(min(256, connections - len(parked))):
            wave.append(socket.create_connection(("127.0.0.1", server.port),
                                                 timeout=10))
        for s in wave:
            s.sendall(ping)
        for s in wave:
            reader = s.makefile("rb")
            doc = json.loads(reader.readline())
            if doc.get("status") != 200:
                sys.exit("error: parked connection was not served")
        parked.extend(wave)
    expect(len(parked) == connections,
           f"{connections} connections parked and served")

    # The full request mix still flows with everything parked.
    sock, reader = server.connect()
    doc = ask(sock, reader, {"type": "ping", "id": "under-pressure"})
    expect(doc["status"] == 200, "ping served under fd pressure")
    doc = ask(sock, reader, CHECK_QUERY)
    expect(doc["status"] == 200, "check served under fd pressure")
    doc = ask(sock, reader, {"type": "stats"})
    counters = doc["result"]["counters"]
    expect(counters.get("serve.conn.opened", 0) >= connections,
           "stats counts the parked connections")
    # peak_conns is the largest shard's table; connections are dealt
    # round-robin over the shards, so the largest holds at least N / count.
    gauges = doc["result"].get("gauges", {})
    shards = max(1, gauges.get("serve.reactor.count", 1))
    expect(gauges.get("serve.reactor.peak_conns", 0) >= connections // shards,
           "stats reports the reactor peak-connection gauge")
    sock.close()

    # SIGTERM with everything parked: exit 0 and every peer sees EOF.
    code = server.terminate()
    expect(code == 0, "SIGTERM drain with parked connections exits 0")
    closed = 0
    for s in parked:
        s.settimeout(10)
        try:
            if s.recv(64) == b"":
                closed += 1
        except socket.timeout:
            pass
        s.close()
    expect(closed == connections,
           f"all {connections} parked connections closed on drain "
           f"({closed} saw EOF)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("tool", nargs="?",
                        default="./build/tools/tokenring_tool")
    parser.add_argument("--connections", type=int, default=0,
                        help="also run the fd-pressure phase with this many "
                             "parked connections")
    args = parser.parse_args()
    tool = args.tool

    print("== request mix (no rate limit, 4 KiB request cap) ==")
    server = ServeProcess(tool, ["--max-request-bytes=4096"])
    sock, reader = server.connect()

    doc = ask(sock, reader, {"type": "ping", "id": 0})
    expect(doc["status"] == 200 and doc["result"]["message"] == "pong", "ping -> pong")

    doc = ask(sock, reader, CHECK_QUERY)
    expect(doc["status"] == 200 and doc["cached"] is False, "check -> 200, computed")
    expect("schedulable" in doc["result"], "check result carries a verdict")
    miss_bytes = json.dumps(doc, sort_keys=True)

    # Same query with every number respelled: canonicalization must make it
    # a cache hit, and the response must differ only in the "cached" flag.
    respelled = json.loads(json.dumps(CHECK_QUERY).replace("100", "1e2"))
    doc = ask(sock, reader, respelled)
    expect(doc["status"] == 200 and doc["cached"] is True, "respelled check -> cache hit")
    doc["cached"] = False
    expect(json.dumps(doc, sort_keys=True) == miss_bytes,
           "hit response byte-identical to miss modulo cached flag")

    doc = ask(sock, reader, {**CHECK_QUERY, "type": "faultcheck", "noise_ms": 1})
    expect(doc["status"] == 200 and len(doc["result"]["margins"]) > 0,
           "faultcheck -> 200 with per-fault margins")

    doc = ask(sock, reader, {"type": "advise", "id": "q-7", "stations": 8,
                             "sets": 2, "bandwidths_mbps": [16, 100]})
    expect(doc["status"] == 200 and len(doc["result"]["recommendations"]) == 2,
           "advise -> 200 with one recommendation per bandwidth")
    expect(doc["id"] == "q-7", "string request id echoed verbatim")

    doc = ask(sock, reader, '{"type": }')
    expect(doc["status"] == 400 and doc["offset"] == 9,
           "malformed JSON -> 400 pointing at byte offset 9")

    doc = ask(sock, reader, {**CHECK_QUERY, "bandwidth": 100})
    expect(doc["status"] == 400 and "bandwidth" in doc["error"],
           "unknown field -> 400 naming the field")

    doc = ask(sock, reader, {"type": "stats"})
    expect(doc["status"] == 200 and doc["result"]["counters"]["serve.cache.hits"] >= 1,
           "stats -> 200 reporting the cache hit")
    sock.close()

    # Oversized request on its own connection. The framing layer answers
    # 413 exactly once and then hangs up deterministically -- a client
    # that pipelined more requests behind the oversized one cannot desync.
    sock, reader = server.connect()
    huge = json.dumps({**CHECK_QUERY, "id": "x" * 8192})
    sock.sendall(huge.encode() + b"\n" +
                 json.dumps({"type": "ping"}).encode() + b"\n")
    doc = json.loads(reader.readline())
    expect(doc["status"] == 413, "oversized request -> 413")
    expect(reader.readline() == b"",
           "connection closed after the 413 (no desynced pipeline)")
    sock.close()

    # Drain: pipeline a burst of requests, then SIGTERM. Every request
    # already on the wire must still be answered before exit 0.
    sock, reader = server.connect()
    burst = 5
    payload = b"".join(json.dumps({"type": "ping", "id": i}).encode() + b"\n"
                       for i in range(burst))
    sock.sendall(payload)
    answered = sum(1 for _ in range(burst)
                   if json.loads(reader.readline())["status"] == 200)
    expect(answered == burst, f"all {burst} pipelined requests answered")
    code = server.terminate()
    expect(code == 0, "SIGTERM drain exits 0")
    expect(reader.readline() == b"", "connection closed after drain")
    sock.close()

    print("== rate limiting (1 req/s, burst 1) ==")
    server = ServeProcess(tool, ["--rate=1", "--burst=1"])
    sock, reader = server.connect()
    first = ask(sock, reader, {**CHECK_QUERY, "client": "smoke"})
    second = ask(sock, reader, {**CHECK_QUERY, "client": "smoke", "id": 2})
    expect(first["status"] == 200, "first request within burst -> 200")
    expect(second["status"] == 429 and second["retry_after_ms"] > 0,
           "second immediate request -> 429 with retry hint")
    doc = ask(sock, reader, {"type": "ping"})
    expect(doc["status"] == 200, "ping bypasses the limiter")
    sock.close()
    # The retrying client sleeps per the 429's retry_after_ms hint (plus
    # jitter) until the bucket refills -- no hand-tuned sleep needed.
    client = ServeClient(server.port)
    doc = client.request({**CHECK_QUERY, "client": "smoke", "id": 3})
    expect(doc["status"] == 200,
           "retrying client rides out the 429 and lands a 200")
    client.close()
    code = server.terminate()
    expect(code == 0, "rate-limited server drains cleanly too")

    if args.connections > 0:
        fd_pressure_phase(tool, args.connections)

    if failures:
        print(f"serve smoke: FAIL ({len(failures)} checks)")
        return 1
    print("serve smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
