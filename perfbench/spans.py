"""Outside-in tracing: spans around the calls into each repro layer.

Nothing in ``src/`` knows about these spans.  :func:`install_scan` and
:func:`install_serve` replace public functions of the repro modules with
wrappers that time each call and record a span (name, start, end,
parent, trace id), so the traced run attributes wall time layer by layer
without touching the program.

Spans live in memory and are written out once, when the process ends
(or, in a shard worker, when its slice ends).  Calls too frequent to
record one by one — every ``send_probe``/``send_probes`` and every
``flow_source_port`` — are folded into per-span *leaf* totals instead:
calls, seconds and items (probes) on the span that was open, or on the
span a network proxy was bound to.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from typing import Dict, List, Optional

#: CLOCK_MONOTONIC: one clock for every process of a run, so a child's
#: timestamps compare directly with its parent's.
clock = time.monotonic


class Span:
    __slots__ = ("id", "trace", "name", "parent", "start", "end", "leaves",
                 "attrs")

    def __init__(self, span_id: int, trace: str, name: str,
                 parent: Optional[int], start: float) -> None:
        self.id = span_id
        self.trace = trace
        self.name = name
        self.parent = parent
        self.start = start
        self.end: Optional[float] = None
        #: name -> [calls, seconds, items] of untracked leaf calls.
        self.leaves: Dict[str, List[float]] = {}
        self.attrs: Dict[str, object] = {}

    def leaf(self, name: str, seconds: float, items: int) -> None:
        totals = self.leaves.get(name)
        if totals is None:
            self.leaves[name] = [1, seconds, items]
        else:
            totals[0] += 1
            totals[1] += seconds
            totals[2] += items

    def as_dict(self) -> dict:
        return {"id": self.id, "trace": self.trace, "name": self.name,
                "parent": self.parent, "start": self.start, "end": self.end,
                "leaves": self.leaves, "attrs": self.attrs}


class Tracer:
    """Spans of one process, nested by a call stack."""

    def __init__(self, trace: str) -> None:
        self.trace = trace
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self.pid = os.getpid()

    def open(self, name: str, trace: Optional[str] = None,
             stack: bool = True) -> Span:
        parent = self.stack[-1] if stack and self.stack else None
        span = Span(next(self._ids), trace or self.trace, name,
                    parent.id if parent is not None else None, clock())
        self.spans.append(span)
        if stack:
            self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        if self.stack and self.stack[-1] is span:
            self.stack.pop()

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def forked(self) -> None:
        """First call in a forked worker: drop the spans and counts
        inherited from the parent."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.stack = []
            self.counts = {}

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        payload = {"pid": os.getpid(),
                   "spans": [span.as_dict() for span in self.spans],
                   "counts": self.counts}
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream)


def wrap(owner, attr: str, name: str, tracer: Tracer, after=None) -> None:
    """Record a span around every call of ``owner.attr``; ``after(span,
    result, args)`` may attach attributes once the call returns."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(span, result, args)
        return result

    setattr(owner, attr, wrapper)


class TimingNetwork:
    """A network proxy (in the manner of ``CapturingNetwork``) that times
    ``send_probe``/``send_probes`` into a leaf of ``span``; everything
    else is forwarded to the wrapped network."""

    def __init__(self, network, span: Span) -> None:
        self._network = network
        self._span = span

    def __getattr__(self, name: str):
        return getattr(self._network, name)

    def send_probe(self, *args, **kwargs):
        start = clock()
        response = self._network.send_probe(*args, **kwargs)
        self._span.leaf("simnet.send", clock() - start, 1)
        return response

    def send_probes(self, probes, *args, **kwargs):
        start = clock()
        responses = self._network.send_probes(probes, *args, **kwargs)
        self._span.leaf("simnet.send", clock() - start, len(responses))
        return responses


def _result_attrs(span: Span, result, network) -> None:
    stats = network.stats()
    span.attrs.update({
        "probes": result.probes_sent,
        "preprobe_probes": result.preprobe_probes,
        "responses": result.responses,
        "targets": result.num_targets,
        "ratelimit_dropped": stats["ratelimit"]["dropped"],
        "route_cache": stats["route_cache"],
    })


def install_scan(tracer: Tracer, slice_dir: str) -> None:
    """Wrap the layers a ``flashroute-sim scan`` process crosses.

    ``slice_dir``: where a forked shard worker writes its spans when a
    slice ends (the worker never reaches the parent's exit path).
    """
    from repro.baselines.yarrp import Yarrp
    from repro.core import encoding, output, prober, sharding
    from repro.simnet import topology

    wrap(topology.Topology, "__init__", "topology.build", tracer)
    for engine in (prober.FlashRoute, Yarrp):
        _wrap_engine_scan(engine, tracer)

    original_port = encoding.flow_source_port

    def counted_port(*args, **kwargs):
        tracer.count("encoding.flow_source_port")
        return original_port(*args, **kwargs)

    encoding.flow_source_port = counted_port
    wrap(output, "save_json", "output.write", tracer)

    def shard_attrs(span, outcome, _args):
        span.attrs["slice_stats"] = outcome.slice_stats

    wrap(sharding, "run_sharded_scan", "shard.run", tracer,
         after=shard_attrs)
    wrap(sharding, "build_slice_targets", "shard.targets", tracer)
    wrap(sharding, "merge_results", "shard.merge", tracer)

    original_slice = sharding._execute_slice

    @functools.wraps(original_slice)
    def traced_slice(plan, topo, targets, slice_index):
        tracer.forked()
        worker = os.getpid() != parent
        span = tracer.open("shard.slice", trace=f"slice{slice_index}")
        try:
            return original_slice(plan, topo, targets, slice_index)
        finally:
            tracer.close(span)
            if worker:
                tracer.dump(os.path.join(
                    slice_dir, f"slice{slice_index:02d}.json"))
                tracer.spans = []
                tracer.counts = {}

    parent = os.getpid()
    sharding._execute_slice = traced_slice


def _wrap_engine_scan(engine, tracer: Tracer) -> None:
    original = engine.scan

    @functools.wraps(original)
    def scan(self, network, *args, **kwargs):
        span = tracer.open("engine.scan")
        try:
            result = original(self, TimingNetwork(network, span),
                              *args, **kwargs)
        finally:
            tracer.close(span)
        _result_attrs(span, result, network)
        return result

    engine.scan = scan


def install_serve(tracer: Tracer) -> None:
    """Wrap the layers a ``flashroute-sim serve`` daemon crosses: topology
    build, and each fresh trace's session (one span per trace, with its
    probes timed through a :class:`TimingNetwork`)."""
    from repro import api
    from repro.simnet import topology

    wrap(topology.Topology, "__init__", "topology.build", tracer)
    init = api.TraceSession.__init__
    result = api.TraceSession.result

    @functools.wraps(init)
    def traced_init(self, engine, request, *args, **kwargs):
        init(self, engine, request, *args, **kwargs)
        span = tracer.open("daemon.trace", stack=False,
                           trace=f"{request.destination}:{request.flow}")
        self._perfbench_span = span
        self.network = TimingNetwork(self.network, span)

    @functools.wraps(result)
    def traced_result(self):
        span = getattr(self, "_perfbench_span", None)
        if span is not None and span.end is None:
            tracer.close(span)
            stats = self.network.stats()
            span.attrs.update({
                "probes": stats["probes_sent"],
                "responses": len(self.hops),
                "ratelimit_dropped": stats["ratelimit"]["dropped"],
                "route_cache": stats["route_cache"]})
        return result(self)

    api.TraceSession.__init__ = traced_init
    api.TraceSession.result = traced_result
