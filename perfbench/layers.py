"""Per-layer metrics of a traced run, from the spans of each round.

Every workload reports every metric; a layer that does no work on a
workload (the shard pool on an unsharded scan, the daemon on a scan,
the scan engines in the daemon) reads 0 there.  Each value is the
median over the run's rounds.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List

#: name -> (unit, better); README.md maps each to the end-to-end
#: metric it should move.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "topology.build_s": ("s", "lower"),
    "engine.scan_s": ("s", "lower"),
    "engine.self_s": ("s", "lower"),
    "simnet.send_s": ("s", "lower"),
    "simnet.calls": ("count", "lower"),
    "simnet.probes_per_call": ("ratio", "higher"),
    "simnet.route_cache_hit_ratio": ("ratio", "higher"),
    "simnet.ratelimit_drops": ("count", "lower"),
    "engine.responses_per_probe": ("ratio", "higher"),
    "encoding.source_port_calls_per_target": ("ratio", "lower"),
    "output.write_s": ("s", "lower"),
    "preprobe.probes": ("count", "lower"),
    "shard.targets_s": ("s", "lower"),
    "shard.slice_wall_max_s": ("s", "lower"),
    "shard.slice_wall_median_s": ("s", "lower"),
    "shard.imbalance": ("ratio", "lower"),
    "shard.slice_cpu_sum_s": ("s", "lower"),
    "shard.pool_overhead_s": ("s", "lower"),
    "shard.merge_s": ("s", "lower"),
    "client.latency_p50_ms": ("ms", "lower"),
    "client.latency_p99_ms": ("ms", "lower"),
    "client.latency_p50_ms.hit": ("ms", "lower"),
    "client.latency_p99_ms.fresh": ("ms", "lower"),
    "client.req_per_s": ("1/s", "higher"),
    "client.cpu_ms_per_req": ("ms", "lower"),
    "daemon.server_p50_ms.hit": ("ms", "lower"),
    "daemon.server_p99_ms.fresh": ("ms", "lower"),
    "daemon.transport_p50_ms.hit": ("ms", "lower"),
    "daemon.cache_hit_ratio": ("ratio", "higher"),
    "daemon.evicted_epoch": ("count", "lower"),
    "daemon.records_per_request": ("ratio", "lower"),
    "daemon.probes_per_fresh": ("ratio", "lower"),
    "daemon.cpu_ms_per_req": ("ms", "lower"),
    "traced.wall_s": ("s", "lower"),
}


def per_layer(workload: str, rounds: List[dict], work: str) -> dict:
    """The per-layer metrics (medians over ``rounds``); also writes every
    round's spans to ``work/spans.json``."""
    serve = workload == "serve-zipf"
    values = [serve_round(r) if serve else scan_round(r) for r in rounds]
    with open(os.path.join(work, "spans.json"), "w",
              encoding="utf-8") as stream:
        json.dump([{"child": r["child"], "slices": r.get("slices", []),
                    "client": r.get("client_spans", [])}
                   for r in rounds], stream)
    return {name: {"value": statistics.median(v.get(name, 0.0)
                                              for v in values),
                   "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _cache_ratio(caches: List[dict]) -> float:
    hits = sum(cache["hits"] for cache in caches if cache)
    misses = sum(cache["misses"] for cache in caches if cache)
    return _ratio(hits, hits + misses)


def _common(child: dict) -> Dict[str, float]:
    spans = child["spans"]
    builds = [span for span in spans if span["name"] == "topology.build"]
    imports = [span for span in spans if span["name"] == "cli.import"]
    return {"cli.import_s": sum(map(_duration, imports)),
            "topology.build_s": _duration(builds[0]) if builds else 0.0}


def scan_round(measured: dict) -> Dict[str, float]:
    reports = [measured["child"]] + measured["slices"]
    spans = [span for report in reports for span in report["spans"]]
    counts: Dict[str, int] = {}
    for report in reports:
        for name, count in report["counts"].items():
            counts[name] = counts.get(name, 0) + count

    def total(name: str) -> float:
        return sum(_duration(span) for span in spans if span["name"] == name)

    engines = [span for span in spans if span["name"] == "engine.scan"]
    sends = [span["leaves"].get("simnet.send", [0, 0.0, 0])
             for span in engines]
    calls = sum(send[0] for send in sends)
    send_s = sum(send[1] for send in sends)
    attrs = [span["attrs"] for span in engines]
    probes = sum(attr["probes"] for attr in attrs)
    targets = sum(attr["targets"] for attr in attrs)
    metrics = _common(measured["child"])
    metrics.update({
        "engine.scan_s": total("engine.scan"),
        "engine.self_s": total("engine.scan") - send_s,
        "simnet.send_s": send_s,
        "simnet.calls": calls,
        "simnet.probes_per_call": _ratio(sum(s[2] for s in sends), calls),
        "simnet.route_cache_hit_ratio": _cache_ratio(
            [attr["route_cache"] for attr in attrs]),
        "simnet.ratelimit_drops": sum(attr["ratelimit_dropped"]
                                      for attr in attrs),
        "engine.responses_per_probe": _ratio(
            sum(attr["responses"] for attr in attrs), probes),
        "encoding.source_port_calls_per_target": _ratio(
            counts.get("encoding.flow_source_port", 0), targets),
        "output.write_s": total("output.write"),
        "preprobe.probes": sum(attr["preprobe_probes"] for attr in attrs),
        "shard.targets_s": total("shard.targets"),
        "shard.merge_s": total("shard.merge"),
        "traced.wall_s": measured["wall_s"],
    })
    runs = [span for span in spans if span["name"] == "shard.run"]
    if runs:
        metrics.update(_shard_metrics(runs[0]))
    return metrics


def _shard_metrics(run: dict) -> Dict[str, float]:
    """Slice accounting from ``ShardedOutcome.slice_stats``."""
    stats = run["attrs"]["slice_stats"]
    walls = [entry["wall_seconds"] for entry in stats]
    per_worker: Dict[int, float] = {}
    for entry in stats:
        per_worker[entry["pid"]] = (per_worker.get(entry["pid"], 0.0)
                                    + entry["wall_seconds"])
    return {
        "shard.slice_wall_max_s": max(walls),
        "shard.slice_wall_median_s": statistics.median(walls),
        "shard.imbalance": max(walls) / statistics.mean(walls),
        "shard.slice_cpu_sum_s": sum(entry["cpu_seconds"]
                                     for entry in stats),
        "shard.pool_overhead_s": _duration(run) - max(per_worker.values()),
    }


def _percentile(values: List[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def serve_round(measured: dict) -> Dict[str, float]:
    child = measured["child"]
    traces = [span for span in child["spans"]
              if span["name"] == "daemon.trace" and span["end"] is not None]
    sends = [span["leaves"].get("simnet.send", [0, 0.0, 0])
             for span in traces]
    calls = sum(send[0] for send in sends)
    attrs = [span["attrs"] for span in traces]
    probes = sum(attr["probes"] for attr in attrs)
    summary = measured["replies_summary"]
    latency = summary["latency_ms"]
    everything = [value for values in latency.values() for value in values]
    requests = len(everything)
    stats = measured["stats"]
    server = measured["metrics"]["wall"]["latency_ms"]
    hit_p50 = _percentile(latency.get("hit", []), 0.50)
    server_hit_p50 = server.get("hit", {}).get("p50", 0.0)
    caches = [attr["route_cache"] for attr in attrs if attr["route_cache"]]
    metrics = _common(child)
    metrics.update({
        "simnet.send_s": sum(send[1] for send in sends),
        "simnet.calls": calls,
        "simnet.probes_per_call": _ratio(sum(s[2] for s in sends), calls),
        # The daemon's sessions share one warm route cache: its counters
        # after the last trace cover the whole round.
        "simnet.route_cache_hit_ratio": _cache_ratio(
            [max(caches, key=lambda c: c["hits"] + c["misses"])]
            if caches else []),
        "simnet.ratelimit_drops": sum(attr["ratelimit_dropped"]
                                      for attr in attrs),
        "engine.responses_per_probe": _ratio(
            sum(attr["responses"] for attr in attrs), probes),
        "client.latency_p50_ms": _percentile(everything, 0.50),
        "client.latency_p99_ms": _percentile(everything, 0.99),
        "client.latency_p50_ms.hit": hit_p50,
        "client.latency_p99_ms.fresh": _percentile(
            latency.get("fresh", []), 0.99),
        "client.req_per_s": requests / measured["wall_s"],
        "client.cpu_ms_per_req": measured["client_cpu_s"] * 1000.0
        / requests,
        "daemon.server_p50_ms.hit": server_hit_p50,
        "daemon.server_p99_ms.fresh": server.get("fresh", {}).get("p99",
                                                                  0.0),
        "daemon.transport_p50_ms.hit": hit_p50 - server_hit_p50,
        "daemon.cache_hit_ratio": _ratio(stats["cache_hits"],
                                         stats["requests"]),
        "daemon.evicted_epoch": stats["cache_evicted_epoch"],
        "daemon.records_per_request": _ratio(summary["records"], requests),
        "daemon.probes_per_fresh": _ratio(stats["probes_sent"],
                                          stats["traces_started"]),
        "daemon.cpu_ms_per_req": measured["cpu_s"] * 1000.0 / requests,
        "traced.wall_s": measured["wall_s"],
    })
    return metrics
