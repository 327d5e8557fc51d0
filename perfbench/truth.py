"""Ground truth for the benchmark's outputs, computed from the Topology.

Every check here asks the simulated topology directly (``true_route``,
``destination_distance``, ``reachable_interfaces``); nothing is compared
against a stored copy of an earlier run.  A checker returns a
``Verdict``: the number of facts it checked, the ones that failed, and
the first few failures spelled out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.net.addr import int_to_ip, ip_to_int
from repro.net.checksum import flow_source_port

#: Route epochs to compare against.  A long scan crosses several epoch
#: boundaries (Yarrp-32 runs about 1.5 h of virtual time, three 1800 s
#: epochs), but a route depends only on the epoch's parity: a flapping
#: prefix gains its extra hop in odd epochs (``Topology.hop_at`` and
#: ``destination_distance`` test ``epoch & 1``).  Epochs 0 and 1 thus
#: cover a scan of any length.
SCAN_EPOCHS = (0, 1)

MAX_TTL = 32


@dataclass
class Verdict:
    checked: int = 0
    failed: int = 0
    examples: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(message)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.checked > 0


class Truth:
    """Memoized ground truth of one topology."""

    def __init__(self, topology) -> None:
        self.topology = topology
        self._routes: Dict[Tuple[int, int, int], List[Optional[int]]] = {}
        self._reachable: Optional[Set[int]] = None

    def route(self, dst: int, flow: int, epoch: int) -> List[Optional[int]]:
        key = (dst, flow, epoch)
        route = self._routes.get(key)
        if route is None:
            route = self.topology.true_route(dst, flow=flow, epoch=epoch,
                                             max_ttl=MAX_TTL)
            self._routes[key] = route
        return route

    def reachable(self) -> Set[int]:
        """Addresses of every interface a scan could discover."""
        if self._reachable is None:
            addrs = self.topology.iface_addrs
            self._reachable = {addrs[iface] for iface
                               in self.topology.reachable_interfaces()}
        return self._reachable


def check_scan(truth: Truth, doc: dict, yarrp: bool = False) -> Verdict:
    """Check a scan's ``--output`` JSON document against the topology.

    * every scanned /24 has exactly one target, inside that /24;
    * every recorded ``(prefix, ttl, responder)`` is the true route's
      hop at ``ttl`` for the target's flow (its checksum source port) in
      epoch 0 or 1;
    * every interface is reachable;
    * every destination distance obeys :func:`distance_ok`.
    """
    topology = truth.topology
    verdict = Verdict()
    targets = {int(prefix): ip_to_int(addr)
               for prefix, addr in doc["targets"].items()}
    scanned = set(topology.scanned_prefixes())
    verdict.checked += len(scanned)
    for prefix in sorted(scanned - set(targets)):
        verdict.fail(f"prefix {prefix} has no target")
    for prefix in sorted(set(targets) - scanned):
        verdict.fail(f"target for unscanned prefix {prefix}")
    for prefix, addr in targets.items():
        if addr >> 8 != prefix:
            verdict.fail(f"target {addr} lies outside prefix {prefix}")
    if doc.get("num_targets") != len(scanned):
        verdict.fail(f"num_targets {doc.get('num_targets')} != "
                     f"{len(scanned)} scanned prefixes")

    reachable = truth.reachable()
    for prefix, hops in doc["routes"].items():
        target = targets.get(int(prefix))
        if target is None:
            verdict.fail(f"route for prefix {prefix} without a target")
            continue
        flow = flow_source_port(target)
        for ttl, responder in hops.items():
            verdict.checked += 1
            addr = ip_to_int(responder)
            index = int(ttl) - 1
            if not 0 <= index < MAX_TTL or not any(
                    truth.route(target, flow, epoch)[index] == addr
                    for epoch in SCAN_EPOCHS):
                verdict.fail(f"prefix {prefix} ttl {ttl}: {responder} is "
                             f"not on the true route")
            elif addr not in reachable:
                verdict.fail(f"{responder} is not a reachable interface")

    for prefix, distance in doc["dest_distance"].items():
        verdict.checked += 1
        target = targets.get(int(prefix))
        if target is None:
            verdict.fail(f"distance for prefix {prefix} without a target")
        elif not distance_ok(topology, target, distance, yarrp):
            verdict.fail(f"prefix {prefix}: distance {distance} breaks "
                         f"the distance rule")
    return verdict


def distance_ok(topology, target: int, distance: int, yarrp: bool) -> bool:
    """Both tools read a destination's distance off the residual TTL
    quoted in its unreachable-family reply (``initial - residual + 1``),
    so the distance is ``destination_distance`` in epoch 0 or 1, except:

    * behind a TTL-resetting middlebox the residual TTL is rewritten
      upward, so the inferred distance lies in ``[1, true distance]``;
    * Yarrp takes a distance from any unreachable-family reply sourced
      from the target's address.  When an unassigned target of a
      host-unreachable stub shares its address with the prefix's last
      interior router, that router's host-unreachable reply (residual 1)
      makes Yarrp record the probing TTL, a value in ``[1, 32]``, where
      the topology has no destination distance.
    """
    truths = [topology.destination_distance(target, epoch)
              for epoch in SCAN_EPOCHS]
    if distance in truths:
        return True
    stub = topology.stubs[
        topology.prefixes[topology.prefix_offset(target)].stub_id]
    if stub.ttl_reset and any(truth is not None and 1 <= distance <= truth
                              for truth in truths):
        return True
    return (yarrp and stub.host_unreachable and truths == [None, None]
            and 1 <= distance <= MAX_TTL)


def scan_coverage(truth: Truth, doc: dict) -> float:
    """Share of the topology's reachable interfaces the scan found."""
    found = {ip_to_int(responder) for hops in doc["routes"].values()
             for responder in hops.values()}
    reachable = truth.reachable()
    return len(found & reachable) / len(reachable)


def _trace_hops(hops: List[dict], terminal: dict) -> List[Tuple[int, int]]:
    """``(ttl, responder)`` of the TTL-exceeded hops of one response:
    every hop record except the destination's own reply, which closes a
    trace that reached its destination."""
    trace = terminal.get("trace") or {}
    records = hops
    if trace.get("dest_reached") and hops \
            and hops[-1]["ttl"] == trace.get("dest_distance"):
        records = hops[:-1]
    return [(record["ttl"], ip_to_int(record["ip"])) for record in records]


def check_serve(truth: Truth, responses, stats: dict) -> Verdict:
    """Check one daemon lifetime's responses and counters.

    * no response is an error record;
    * every TTL-exceeded hop equals ``true_route(destination, flow,
      epoch)`` for the epoch in the response's ``done`` record;
    * every cache hit or coalesced response replays exactly the hops of
      that key's fresh trace in that epoch;
    * the ``stats`` counters reconcile: requests = hits + misses +
      coalesced, with no errors.
    """
    verdict = Verdict()
    fresh: Dict[Tuple[int, int, int], List[Tuple[int, int]]] = {}
    replays = []
    for payload, hops, terminal in responses:
        verdict.checked += 1
        if terminal.get("type") != "done":
            verdict.fail(f"request {payload} ended in {terminal}")
            continue
        dst = ip_to_int(payload["destination"])
        flow = payload["flow"]
        epoch = terminal["epoch"]
        seen = _trace_hops(hops, terminal)
        route = truth.route(dst, flow, epoch)
        for ttl, addr in seen:
            verdict.checked += 1
            if not 1 <= ttl <= MAX_TTL or route[ttl - 1] != addr:
                verdict.fail(f"{payload['destination']} flow {flow} ttl "
                             f"{ttl}: {int_to_ip(addr)} is not on the "
                             f"true route")
        key = (dst, flow, epoch)
        if terminal.get("cache") == "miss":
            if key in fresh:
                verdict.fail(f"second fresh trace of {key}")
            fresh[key] = [(record["ttl"], record["ip"]) for record in hops]
        else:
            replays.append((key, [(record["ttl"], record["ip"])
                                  for record in hops]))
    for key, seen in replays:
        verdict.checked += 1
        if fresh.get(key) != seen:
            verdict.fail(f"replay of {key} differs from its fresh trace")
    verdict.checked += 1
    requests = stats.get("requests")
    parts = (stats.get("cache_hits", 0) + stats.get("traces_started", 0)
             + stats.get("coalesced", 0))
    if requests != len(responses) or requests != parts \
            or stats.get("errors"):
        verdict.fail(f"stats do not reconcile with {len(responses)} "
                     f"requests: {stats}")
    return verdict


def serve_coverage(truth: Truth, responses) -> float:
    """Share of the interfaces on the true routes of the requested keys
    (before each destination, in the epoch served) that the responses
    revealed."""
    expected: Set[int] = set()
    found: Set[int] = set()
    keys = set()
    for payload, hops, terminal in responses:
        if terminal.get("type") != "done":
            continue
        dst = ip_to_int(payload["destination"])
        key = (dst, payload["flow"], terminal["epoch"])
        found.update(addr for _, addr in _trace_hops(hops, terminal))
        if key in keys:
            continue
        keys.add(key)
        distance = truth.topology.destination_distance(dst, key[2])
        last = (distance - 1) if distance is not None else MAX_TTL
        expected.update(addr for addr in truth.route(*key)[:last]
                        if addr is not None)
    return len(found & expected) / len(expected) if expected else 0.0
