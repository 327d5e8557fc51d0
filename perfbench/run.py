#!/usr/bin/env python3
"""The repo's benchmark: four workloads, checked against topology truth.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (``src/repro`` must be there).  Every
workload uses the same topology (``PREFIXES`` prefixes, seed
``TOPOLOGY_SEED``) and repeats whole rounds of the same operation until
``--seconds`` of rounds, and at least ``MIN_ROUNDS`` rounds, have run;
``--seed`` draws the serve workload's request sequence:

* ``scan-fr16``, ``scan-yarrp32``, ``scan-fr16-shards2``: one round is
  one fresh ``flashroute-sim scan ... --output FILE`` process;
* ``serve-zipf``: one round starts ``flashroute-sim serve --port 0``,
  sends the seeded Zipf request sequence over two persistent
  connections, reads ``stats`` and stops the daemon.

Every round's output is checked against the topology (see ``truth.py``).
With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the rounds); with ``--trace 1`` the rounds run traced and
it carries the per-layer metrics.  README.md explains each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench")

#: Topology size: an unsharded FlashRoute-16 scan lasts about 2.5 s and
#: a Yarrp-32 scan about 5 s, so that ``MIN_ROUNDS`` Yarrp rounds fit in
#: a run of about 25 s.
PREFIXES = 8192
#: The simulated Internet every workload probes.  It is held fixed: at
#: 16,384 prefixes, on other topology seeds, the same scan took from 4.4 s
#: to 5.8 s, a spread between seeds wider than any bound the benchmark
#: could keep.
TOPOLOGY_SEED = 20201027

SCANS = {
    "scan-fr16": ["--tool", "flashroute-16"],
    "scan-yarrp32": ["--tool", "yarrp-32"],
    "scan-fr16-shards2": ["--tool", "flashroute-16", "--shards", "2"],
}
WORKLOADS = tuple(SCANS) + ("serve-zipf",)

#: Rounds a run makes at the least, however long they take: the medians
#: it reports then stand when one or two rounds meet a contended host.
MIN_ROUNDS = 5

#: A scan or daemon still running after this long is killed and its
#: round counts as failed.
ROUND_TIMEOUT_S = 60.0

clock = time.monotonic


class RoundFailed(Exception):
    """An operation that did not complete (non-zero exit, timeout)."""


# --------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------- #

def child_env(unbuffered: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` (killing it after ``timeout``); returns its exit
    code and resource usage, which covers its reaped workers too."""
    timer = threading.Timer(timeout, _kill, (proc,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _kill(proc: subprocess.Popen, sig: int = signal.SIGKILL) -> None:
    # os.kill, not Popen.kill: Popen polls (and may reap) first, racing
    # the os.wait4 that collects the resource usage.
    try:
        os.kill(proc.pid, sig)
    except ProcessLookupError:
        pass


def cpu_seconds(pid: int) -> float:
    """Time ``pid`` has spent on a CPU, read from outside the process."""
    with open(f"/proc/{pid}/schedstat", encoding="ascii") as stream:
        return int(stream.read().split()[0]) / 1e9


def child_command(report: str, trace_dir: Optional[str], args) -> list:
    """``child.py`` running ``flashroute-sim ARGS``, traced when
    ``trace_dir`` is given."""
    options = ["--trace", trace_dir] if trace_dir is not None else []
    return [sys.executable, CHILD, report, *options, "--", *args]


# --------------------------------------------------------------------- #
# Rounds
# --------------------------------------------------------------------- #

def scan_round(ctx, index: int) -> dict:
    output = os.path.join(ctx.work, "scan.json")
    report = os.path.join(ctx.work, f"child{index}.json")
    slice_dir = None
    if ctx.trace:
        slice_dir = os.path.join(ctx.work, f"slices{index}")
        os.makedirs(slice_dir)
    args = ["scan", *SCANS[ctx.workload], "--prefixes", str(PREFIXES),
            "--seed", str(TOPOLOGY_SEED), "--output", output]
    with open(os.path.join(ctx.work, "child.err"), "wb") as err:
        start = clock()
        proc = subprocess.Popen(child_command(report, slice_dir, args),
                                stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=ROOT)
        status, usage = reap(proc, ROUND_TIMEOUT_S)
        wall = clock() - start
    if status != 0:
        raise RoundFailed(f"scan exited {status}: {_last_error(ctx)}")
    with open(report, encoding="utf-8") as stream:
        child = json.load(stream)
    marks = child["marks"]
    with open(output, "rb") as stream:
        raw = stream.read()
    return {
        "wall_s": wall,
        "setup_s": marks.get("engine_built",
                             marks.get("topology_built")) - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": marks["peak_rss_kb"] / 1024.0,
        "output": raw,
        "child": child,
        "slices": _slice_reports(slice_dir),
    }


def _last_error(ctx) -> str:
    with open(os.path.join(ctx.work, "child.err"), encoding="utf-8",
              errors="replace") as stream:
        lines = stream.read().strip().splitlines()
    return lines[-1] if lines else "no error output"


def _slice_reports(slice_dir: Optional[str]) -> list:
    if slice_dir is None:
        return []
    reports = []
    for name in sorted(os.listdir(slice_dir)):
        with open(os.path.join(slice_dir, name), encoding="utf-8") as stream:
            reports.append(json.load(stream))
    return reports


def serve_round(ctx, index: int) -> dict:
    report = os.path.join(ctx.work, f"child{index}.json")
    args = ["serve", "--prefixes", str(PREFIXES),
            "--seed", str(TOPOLOGY_SEED), "--port", "0"]
    if ctx.trace:
        args.append("--telemetry")
    with open(os.path.join(ctx.work, "child.err"), "wb") as err:
        start = clock()
        proc = subprocess.Popen(child_command(report, ctx.work if ctx.trace
                                              else None, args),
                                stdout=subprocess.PIPE, stderr=err,
                                env=child_env(unbuffered=True), cwd=ROOT)
        # The daemon is stopped and reaped whatever happens: a stray
        # daemon would skew every later run on the machine.
        timer = threading.Timer(ROUND_TIMEOUT_S, _kill, (proc,))
        timer.start()
        try:
            port = _announced_port(proc)
            measured = _serve_pass(ctx, proc.pid, port, start)
        except OSError as exc:
            raise RoundFailed(f"daemon unreachable: {exc!r}") from exc
        finally:
            timer.cancel()
            _kill(proc, signal.SIGTERM)
            status, _ = reap(proc, ROUND_TIMEOUT_S)
            proc.stdout.close()
    if status != 0:
        raise RoundFailed(f"daemon exited {status}: {_last_error(ctx)}")
    with open(report, encoding="utf-8") as stream:
        measured["child"] = json.load(stream)
    measured["peak_rss_mb"] = \
        measured["child"]["marks"]["peak_rss_kb"] / 1024.0
    return measured


def _announced_port(proc: subprocess.Popen) -> int:
    """Read ``listening on HOST:PORT`` off the daemon's stdout."""
    for line in proc.stdout:
        text = line.decode("utf-8", "replace")
        if "listening on" in text:
            return int(text.split("listening on", 1)[1].split(",")[0]
                       .rsplit(":", 1)[1])
    raise RoundFailed("daemon exited before announcing its port")


def _serve_pass(ctx, pid: int, port: int, start: float) -> dict:
    import loadgen

    connections = [loadgen.Connection(port)
                   for _ in range(loadgen.CONNECTIONS)]
    control = connections[0]
    try:
        pong = control.request({"control": "ping"})
        setup = clock() - start
        if pong.get("type") != "pong":
            raise RoundFailed(f"ping answered {pong}")
        cpu_before = cpu_seconds(pid)
        client_cpu = time.process_time()
        begin = clock()
        replies = loadgen.run_pass(connections, ctx.requests, clock)
        wall = clock() - begin
        client_cpu = time.process_time() - client_cpu
        cpu = cpu_seconds(pid) - cpu_before
        stats = control.request({"control": "stats"})
        metrics = (control.request({"control": "metrics"})
                   if ctx.trace else None)
    finally:
        for connection in connections:
            connection.close()
    return {"wall_s": wall, "setup_s": setup, "cpu_s": cpu,
            "client_cpu_s": client_cpu, "replies": replies,
            "stats": stats, "metrics": metrics}


# --------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------- #

def check_round(ctx, measured: dict) -> None:
    """Check one round's output against the topology; records problems
    on ``ctx`` and drops the bulky output from ``measured``."""
    import truth

    if ctx.workload in SCANS:
        raw = measured.pop("output")
        digest = hashlib.sha256(raw).hexdigest()
        if digest not in ctx.checked:
            doc = json.loads(raw)
            verdict = truth.check_scan(ctx.truth, doc,
                                       yarrp="yarrp" in ctx.workload)
            ctx.checked[digest] = (verdict, doc["probes_sent"],
                                   truth.scan_coverage(ctx.truth, doc))
        verdict, probes, coverage = ctx.checked[digest]
        measured["probes_per_target"] = probes / PREFIXES
    else:
        replies = measured.pop("replies")
        answered = [(reply.payload, reply.hops, reply.terminal)
                    for reply in replies]
        verdict = truth.check_serve(ctx.truth, answered, measured["stats"])
        coverage = truth.serve_coverage(ctx.truth, answered)
        keys = {(reply.payload["destination"], reply.payload["flow"])
                for reply in replies}
        measured["probes_per_target"] = \
            measured["stats"]["probes_sent"] / len(keys)
        measured["replies_summary"] = _reply_summary(replies)
        if ctx.trace:
            measured["client_spans"] = [
                {"trace": f"request{index}", "name": "client.request",
                 "start": reply.start, "end": reply.end,
                 "attrs": {"outcome": reply.outcome}}
                for index, reply in enumerate(replies)]
    measured["interface_coverage"] = coverage
    measured["verdict"] = verdict


def _reply_summary(replies) -> dict:
    by_outcome = {}
    for reply in replies:
        by_outcome.setdefault(reply.outcome, []).append(reply.latency_ms)
    return {"latency_ms": by_outcome,
            "records": sum(len(reply.hops) + 1 for reply in replies),
            "failed": sum(reply.outcome == "failed" for reply in replies)}


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #

END_TO_END = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb",
              "probes_per_target", "interface_coverage")
UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
         "probes_per_target": "probes/target",
         "interface_coverage": "ratio"}


def end_to_end(rounds: list) -> dict:
    return {name: {"value": statistics.median(r[name] for r in rounds),
                   "unit": UNITS[name]} for name in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no repro sources under {SRC}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2

    import compileall

    import layers
    import loadgen
    import truth
    from repro.simnet.config import TopologyConfig
    from repro.simnet.topology import Topology

    # Byte-compile once, untimed, so no round pays for writing .pyc files.
    compileall.compile_dir(SRC, quiet=1)
    ctx = argparse.Namespace(workload=args.workload,
                             trace=bool(args.trace), checked={})
    ctx.work = os.path.join(
        WORK, f"{args.workload}-{'traced' if args.trace else 'plain'}")
    shutil.rmtree(ctx.work, ignore_errors=True)
    os.makedirs(ctx.work)
    print("machine: " + json.dumps(machine()), flush=True)

    topology = Topology(TopologyConfig(num_prefixes=PREFIXES,
                                       seed=TOPOLOGY_SEED))
    ctx.truth = truth.Truth(topology)
    if args.workload == "serve-zipf":
        ctx.requests = loadgen.zipf_requests(
            args.seed, topology.base_prefix, topology.num_prefixes)
        per_round = len(ctx.requests)
        run_round = serve_round
    else:
        per_round = 1
        run_round = scan_round

    rounds, failed, busy = [], 0, 0.0
    while len(rounds) < MIN_ROUNDS or busy < args.seconds:
        begin = clock()
        try:
            measured = run_round(ctx, len(rounds))
        except RoundFailed as exc:
            print(f"round {len(rounds)} failed: {exc}", file=sys.stderr)
            failed += per_round
            rounds.append(None)
            busy += clock() - begin
            continue
        busy += clock() - begin
        check_round(ctx, measured)
        print(f"round {len(rounds)}: " + " ".join(
            f"{name}={measured[name]:.4g}" for name in END_TO_END),
            file=sys.stderr)
        failed += measured.get("replies_summary", {}).get("failed", 0)
        rounds.append(measured)

    done = [r for r in rounds if r is not None]
    problems = [r["verdict"] for r in done if not r["verdict"].ok]
    for verdict in problems[:1]:
        print(f"check failed: {verdict.failed} of {verdict.checked}: "
              f"{verdict.examples}", file=sys.stderr)
    print(f"rounds: {len(rounds)} ({len(done)} completed), "
          f"facts checked: {sum(r['verdict'].checked for r in done)}",
          flush=True)
    if not done:
        metrics = {}
    elif args.trace:
        metrics = layers.per_layer(args.workload, done, ctx.work)
    else:
        metrics = end_to_end(done)
    # A round that did not complete cannot be vouched for either.
    result = {"correct": len(done) == len(rounds) and not problems,
              "attempted": per_round * len(rounds), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if done else 1


def machine() -> dict:
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "commit": _commit()}


def _commit() -> str:
    """The checkout's git commit, or (outside git) a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or _src_digest()
        except (OSError, subprocess.SubprocessError):
            pass
    return _src_digest()


def _src_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    return "src-sha256:" + digest.hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
