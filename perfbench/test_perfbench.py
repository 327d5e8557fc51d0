"""The benchmark's own tests: its checkers must catch a broken output.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import truth  # noqa: E402
from repro import api  # noqa: E402
from repro.core.output import result_to_dict  # noqa: E402
from repro.net.addr import int_to_ip, ip_to_int  # noqa: E402
from repro.net.checksum import flow_source_port  # noqa: E402

PREFIXES = 256
SEED = 7


@pytest.fixture(scope="module")
def engine():
    return api.Engine.from_request(api.ScanRequest(prefixes=PREFIXES,
                                                   seed=SEED))


@pytest.fixture(scope="module")
def ground(engine):
    return truth.Truth(engine.topology)


@pytest.fixture(scope="module", params=["flashroute-16", "yarrp-32"])
def scan_doc(request, engine):
    scan = api.ScanRequest(tool=request.param, prefixes=PREFIXES, seed=SEED)
    return request.param, result_to_dict(engine.open_session(scan).run())


def _check(ground, tool, doc):
    return truth.check_scan(ground, doc, yarrp=tool.startswith("yarrp"))


def test_scan_check_accepts_a_real_scan(ground, scan_doc):
    tool, doc = scan_doc
    verdict = _check(ground, tool, doc)
    assert verdict.ok, verdict.examples
    assert verdict.checked > PREFIXES
    assert 0 < truth.scan_coverage(ground, doc) <= 1


def test_scan_check_rejects_one_altered_hop(ground, scan_doc):
    tool, doc = scan_doc
    doc = copy.deepcopy(doc)
    prefix, hops = next((p, h) for p, h in doc["routes"].items() if h)
    ttl = next(iter(hops))
    target = ip_to_int(doc["targets"][prefix])
    on_route = {ground.route(target, flow_source_port(target),
                             epoch)[int(ttl) - 1]
                for epoch in truth.SCAN_EPOCHS}
    # Another real interface, just not one this hop can show.
    hops[ttl] = int_to_ip(min(ground.reachable() - on_route))
    verdict = _check(ground, tool, doc)
    assert verdict.failed == 1
    assert f"prefix {prefix} ttl {ttl}" in verdict.examples[0]


def test_scan_check_rejects_a_dropped_target(ground, scan_doc):
    tool, doc = scan_doc
    doc = copy.deepcopy(doc)
    prefix = sorted(doc["targets"])[0]
    del doc["targets"][prefix]
    verdict = _check(ground, tool, doc)
    assert not verdict.ok
    assert any(f"prefix {prefix} has no target" in example
               for example in verdict.examples)


def test_scan_check_rejects_a_wrong_distance(ground, scan_doc):
    tool, doc = scan_doc
    doc = copy.deepcopy(doc)
    prefix = next(iter(doc["dest_distance"]))
    doc["dest_distance"][prefix] = 0
    assert _check(ground, tool, doc).failed == 1


def _served(engine, payload, epoch=0, cache="miss"):
    """One response as the daemon would stream it for ``payload``."""
    request = api.TraceRequest.parse(dict(payload))
    session = engine.open_session(request, start_time=0.0)
    hops = [{"type": "hop", **record} for record in session.stream()]
    terminal = {"type": "done", "cache": cache, "epoch": epoch,
                "trace": session.result()}
    return payload, hops, terminal


@pytest.fixture(scope="module")
def served(engine):
    requests = loadgen.zipf_requests(SEED, engine.topology.base_prefix,
                                     PREFIXES, keys=40, requests=60)
    answers, seen = [], set()
    for payload in requests:
        key = (payload["destination"], payload["flow"])
        answers.append(_served(engine, payload,
                               cache="hit" if key in seen else "miss"))
        seen.add(key)
    stats = {"requests": len(answers), "traces_started": len(seen),
             "cache_hits": len(answers) - len(seen), "coalesced": 0,
             "errors": 0}
    return answers, stats


def test_serve_check_accepts_real_traces(ground, served):
    answers, stats = served
    verdict = truth.check_serve(ground, answers, stats)
    assert verdict.ok, verdict.examples
    assert 0 < truth.serve_coverage(ground, answers) <= 1


def test_serve_check_rejects_one_altered_hop(ground, served):
    answers, stats = copy.deepcopy(served)
    payload, hops, terminal = next(answer for answer in answers
                                   if len(answer[1]) > 2)
    hops[0]["ip"] = hops[1]["ip"]
    assert not truth.check_serve(ground, answers, stats).ok


def test_serve_check_rejects_a_replay_that_drops_a_hop(ground, served):
    answers, stats = copy.deepcopy(served)
    hit = next(answer for answer in answers
               if answer[2]["cache"] == "hit" and answer[1])
    hit[1].pop()
    verdict = truth.check_serve(ground, answers, stats)
    assert verdict.failed == 1
    assert "replay" in verdict.examples[0]


def test_serve_check_rejects_errors_and_unreconciled_stats(ground, served):
    answers, stats = copy.deepcopy(served)
    answers[0] = (answers[0][0], [], {"type": "error", "error": "boom"})
    assert not truth.check_serve(ground, answers, stats).ok
    answers, stats = copy.deepcopy(served)
    stats["cache_hits"] -= 1
    assert truth.check_serve(ground, answers, stats).failed == 1


def test_zipf_sequence_is_a_function_of_the_seed():
    first = loadgen.zipf_requests(11, 5120, 4096)
    assert first == loadgen.zipf_requests(11, 5120, 4096)
    assert first != loadgen.zipf_requests(12, 5120, 4096)
    assert len(first) == loadgen.REQUESTS
    keys = {(item["destination"], item["flow"]) for item in first}
    # Zipf over 8,192 keys: a minority of keys carries most requests.
    assert 1000 < len(keys) < 3000
