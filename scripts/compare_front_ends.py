#!/usr/bin/env python3
"""Compare two builds of tokenring_tool on the same generated queries.

Draws check, faultcheck and advise queries (fixed seed), answers each
through both builds' serve daemons and both builds' CLIs (check,
faultcheck, plan, simulate and advise in --format=table and --format=csv),
and reports every byte that differs. Meant for refactors that must not
change an answer: run it with the build before the change as OLD and the
build after it as NEW.

Usage:
  compare_front_ends.py OLD_TOOL NEW_TOOL [--queries N] [--seed S]

A few generated queries break a range rule (non-positive bandwidth,
negative noise, an empty scenario, a mean period <= 0, a period ratio
< 1, a zero candidate bandwidth). The only difference allowed is a CLI
answer NEW refuses with exit 1 where NEW's daemon refuses the same query
with a 400; every daemon response must match byte for byte.

Exit code 0 when every answer matches (up to those refusals), 1
otherwise. Stdlib only.
"""

import argparse
import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile

PROTOCOLS = ["ieee8025", "modified8025", "fddi"]
BANDWIDTHS = ["4", "16", "100", "622", "10.5", "1"]
NOISES = ["0", "0.5", "1", "2", "7.25"]


def scenario(rng):
    """A random scenario as (CSV text, JSON streams array text)."""
    count = rng.randint(1, 8)
    stations = sorted(rng.sample(range(0, 3 * count), count))
    constrained = rng.random() < 0.25
    header = "station,period_ms,payload_bits" + (
        ",deadline_ms" if constrained else "")
    rows, streams = [], []
    for station in stations:
        period = round(rng.uniform(5.0, 200.0), 3)
        payload = rng.choice([round(rng.uniform(100, 2e6)),
                              round(rng.uniform(100, 5e4))])
        cells = [("station", str(station)), ("period_ms", repr(period)),
                 ("payload_bits", str(payload))]
        if constrained:
            cells.append(("deadline_ms",
                          repr(round(period * rng.uniform(0.3, 1.0), 3))))
        rows.append(",".join(v for _, v in cells))
        streams.append("{" + ",".join(f'"{k}":{v}' for k, v in cells) + "}")
    return (header + "\n" + "\n".join(rows) + "\n",
            "[" + ",".join(streams) + "]")


def generate(rng, n):
    """n queries: dicts with the JSON request line and the CLI runs."""
    queries = []
    for i in range(n):
        kind = rng.random()
        if kind < 0.1:
            queries.append(advise_query(rng, i))
            continue
        qtype = "check" if kind < 0.55 else "faultcheck"
        protocol = rng.choice(PROTOCOLS)
        bw = rng.choice(BANDWIDTHS)
        noise = rng.choice(NOISES)
        csv, streams = scenario(rng)
        refusal = rng.random()
        if refusal < 0.02:
            bw = rng.choice(["0", "-4"])
        elif refusal < 0.04 and qtype == "faultcheck":
            noise = "-1"
        elif refusal < 0.06:
            csv, streams = "station,period_ms,payload_bits\n", "[]"
        line = (f'{{"type":"{qtype}","id":{i},"protocol":"{protocol}",'
                f'"bandwidth_mbps":{bw},')
        args = [qtype, f"--protocol={protocol}", f"--bandwidth-mbps={bw}"]
        if qtype == "faultcheck":
            line += f'"noise_ms":{noise},'
            args.append(f"--noise-ms={noise}")
        runs = [args]
        if i % 4 == 0:
            runs.append(["plan", f"--bandwidth-mbps={bw}"])
            runs.append(["simulate", f"--protocol={protocol}",
                         f"--bandwidth-mbps={bw}", "--horizon-ms=100"])
        queries.append({"line": line + f'"streams":{streams}}}',
                        "csv": csv, "runs": runs})
    return queries


def advise_query(rng, i):
    stations = rng.randint(2, 20)
    sets = rng.randint(1, 6)
    bws = rng.sample(["4", "16", "100", "622"], rng.randint(1, 3))
    seed = rng.randint(0, 10**6)
    mean_period = rng.choice(["50", "100", "200"])
    ratio = rng.choice(["1", "4", "10"])
    refusal = rng.random()
    if refusal < 0.1:
        mean_period = "0"
    elif refusal < 0.2:
        ratio = "0.5"
    elif refusal < 0.3:
        bws = bws + ["0"]
    line = (f'{{"type":"advise","id":{i},"stations":{stations},'
            f'"sets":{sets},"bandwidths_mbps":[{",".join(bws)}],'
            f'"seed":{seed},"mean_period_ms":{mean_period},'
            f'"period_ratio":{ratio}}}')
    args = ["advise", f"--stations={stations}", f"--sets={sets}",
            f"--bandwidths-mbps={','.join(bws)}", f"--seed={seed}",
            f"--mean-period-ms={mean_period}", f"--period-ratio={ratio}"]
    return {"line": line, "csv": None, "runs": [args]}


def daemon_answers(tool, lines):
    """Each line's response from a fresh `tool serve` daemon, in order."""
    proc = subprocess.Popen([tool, "serve", "--port=0", "--jobs=2"],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    banner = proc.stderr.readline().strip()
    if "listening on" not in banner:
        proc.kill()
        sys.exit(f"error: unexpected serve banner: {banner!r}")
    sock = socket.create_connection(
        ("127.0.0.1", int(banner.rsplit(":", 1)[1])), timeout=120)
    reader = sock.makefile("rb")
    answers = []
    for line in lines:
        sock.sendall(line.encode() + b"\n")
        answers.append(reader.readline().decode())
    sock.close()
    proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=30)
    proc.stderr.close()
    return answers


def cli_answer(tool, args, csv_path, fmt):
    cmd = [tool, *args, f"--format={fmt}"]
    if csv_path is not None:
        cmd.append(f"--file={csv_path}")
    r = subprocess.run(cmd, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=300)
    return r.returncode, r.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_tool")
    parser.add_argument("new_tool")
    parser.add_argument("--queries", type=int, default=240)
    parser.add_argument("--seed", type=int, default=1)
    opts = parser.parse_args()

    queries = generate(random.Random(opts.seed), opts.queries)
    lines = [q["line"] for q in queries]
    old_daemon = daemon_answers(opts.old_tool, lines)
    new_daemon = daemon_answers(opts.new_tool, lines)

    unexpected = []
    daemon_same = cli_same = cli_runs = refusals = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, q in enumerate(queries):
            if old_daemon[i] == new_daemon[i]:
                daemon_same += 1
            else:
                unexpected.append(f"daemon: {q['line']}\n  old {old_daemon[i]}"
                                  f"  new {new_daemon[i]}")
            refused = json.loads(new_daemon[i])["status"] == 400
            path = None
            if q["csv"] is not None:
                path = os.path.join(tmp, f"q{i}.csv")
                with open(path, "w") as f:
                    f.write(q["csv"])
            for args in q["runs"]:
                for fmt in ("table", "csv"):
                    cli_runs += 1
                    old = cli_answer(opts.old_tool, args, path, fmt)
                    new = cli_answer(opts.new_tool, args, path, fmt)
                    if old == new:
                        cli_same += 1
                    elif refused and new[0] == 1:
                        refusals += 1
                    else:
                        unexpected.append(
                            f"cli {' '.join(args)} --format={fmt}\n"
                            f"  for {q['line']}\n  old {old}\n  new {new}")

    print(f"{len(queries)} queries: {daemon_same}/{len(queries)} daemon "
          f"responses identical; {cli_same}/{cli_runs} CLI runs identical, "
          f"{refusals} newly refused by the shared range rules")
    for diff in unexpected:
        print("DIFF " + diff)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
