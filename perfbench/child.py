"""Run one ``flashroute-sim`` command in this process and report on it.

    python3 perfbench/child.py REPORT [--trace SLICE_DIR] -- scan ...

Runs ``repro.cli.main(ARGS)`` exactly as the ``flashroute-sim`` console
script does, after wrapping two constructors to note when set-up ended:
the first ``Engine`` built (topology and network), or on the sharded
path, which builds no engine in this process, the first ``Topology``.
When the command returns, REPORT (JSON) receives those monotonic
timestamps, the process's peak resident set and, with ``--trace``, the
spans of :mod:`spans` (forked shard workers write theirs to SLICE_DIR).
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402  (after the path set-up above)


def _mark_end(owner, attr: str, key: str, marks: dict) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        marks.setdefault(key, spans.clock())
        return result

    setattr(owner, attr, wrapper)


def peak_rss_kb() -> int:
    """Largest resident set of this process or any child it reaped.

    VmHWM, not ``ru_maxrss`` of this process: across ``exec`` Linux
    carries the spawning process's high-water mark into ``ru_maxrss``,
    so a child of a large parent would report the parent's size.
    """
    with open("/proc/self/status", encoding="ascii") as stream:
        own = next(int(line.split()[1]) for line in stream
                   if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv) -> int:
    report_path = argv[0]
    split = argv.index("--")
    options, command = argv[1:split], argv[split + 1:]
    tracer = (spans.Tracer(f"{command[0]}-{os.getpid()}")
              if options[:1] == ["--trace"] else None)
    marks = {}

    span = tracer.open("cli.import") if tracer is not None else None
    import repro.cli
    if span is not None:
        tracer.close(span)

    from repro import api
    from repro.simnet import topology

    _mark_end(api.Engine, "__init__", "engine_built", marks)
    _mark_end(topology.Topology, "__init__", "topology_built", marks)
    if tracer is not None:
        if command[0] == "serve":
            spans.install_serve(tracer)
        else:
            spans.install_scan(tracer, options[1])
    status = 1
    try:
        status = repro.cli.main(command)
    finally:
        marks["status"] = status
        marks["peak_rss_kb"] = peak_rss_kb()
        if tracer is not None:
            tracer.dump(report_path, {"marks": marks})
        else:
            with open(report_path, "w", encoding="utf-8") as stream:
                json.dump({"marks": marks}, stream)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
