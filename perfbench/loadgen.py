"""The serve workload's traffic: a seeded Zipf draw sent closed-loop.

The request sequence depends only on the seed and the address space;
:func:`run_pass` sends it over two persistent connections in a closed
loop: a connection sends its next request only when one of its
outstanding requests completes, so a slower daemon receives less load
rather than a backlog.
"""

from __future__ import annotations

import functools
import json
import random
import selectors
import socket
import time
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.net.addr import int_to_ip

#: Reference mix: about 75% cache hits, 25% fresh traces, almost no
#: coalescing with two connections.
KEYS = 8192
REQUESTS = 6000
EXPONENT = 1.1
FLOWS = 8
CONNECTIONS = 2
#: Pause after each readiness poll (seconds); see :func:`run_pass`.
POLL_S = 0.001
#: Requests each connection keeps outstanding.  The daemon serves one
#: request per connection at a time; with the next one already waiting
#: in the socket it goes on without waiting for this process to be
#: scheduled, so the pass measures the daemon.  With one request
#: outstanding the same pass took 4.7 to 14.2 s from run to run on a
#: 2-vCPU host whose vCPUs the hypervisor was stealing; with 4 the pass
#: still outlasted the daemon's CPU time by up to 22% (75% on a contended
#: host), with 32 by at most 2%: a backlog of about 20 ms of work rides
#: out the client's descheduling.
WINDOW = 32
#: Per-record read bound: a request that waits this long counts as failed.
TIMEOUT_S = 30.0


def zipf_requests(seed: int, base_prefix: int, num_prefixes: int,
                  keys: int = KEYS, requests: int = REQUESTS
                  ) -> List[dict]:
    """``requests`` trace requests drawn with ``seed`` from ``keys``
    distinct ``(destination, flow)`` keys of the space, the key of
    popularity rank ``r`` with weight ``1 / r**EXPONENT``.

    The key population and its ranking are fixed for a given space, like
    the topology; the seed draws the traffic from it.
    """
    population = random.Random(f"perfbench-keys-{base_prefix}-{num_prefixes}")
    chosen = set()
    ranked = []
    while len(ranked) < keys:
        key = (base_prefix + population.randrange(num_prefixes),
               population.randrange(1, 255), population.randrange(FLOWS))
        if key not in chosen:
            chosen.add(key)
            ranked.append(key)
    weights = [1.0 / rank ** EXPONENT for rank in range(1, keys + 1)]
    draws = random.Random(f"perfbench-zipf-{seed}").choices(
        ranked, weights=weights, k=requests)
    return [{"destination": int_to_ip((prefix << 8) | host), "flow": flow}
            for prefix, host, flow in draws]


class Reply:
    """One request's outcome as the client saw it.

    The pass keeps each response's raw record lines; they are parsed on
    first use, after the timed pass.
    """

    def __init__(self, payload: dict, lines: List[bytes], start: float,
                 end: float, error: Optional[str] = None) -> None:
        self.payload = payload
        self.lines = lines
        self.start = start
        self.end = end
        self.error = error

    @functools.cached_property
    def hops(self) -> List[dict]:
        # One parse of the records as a JSON array costs less than half
        # of one parse per record.
        return json.loads(b"[" + b",".join(self.lines[:-1]) + b"]")

    @functools.cached_property
    def terminal(self) -> dict:
        if self.error is not None:
            return {"type": "exception", "error": self.error}
        return json.loads(self.lines[-1])

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def outcome(self) -> str:
        """``hit``/``fresh``/``coalesced``, or ``failed``."""
        if self.terminal.get("type") != "done":
            return "failed"
        cache = self.terminal.get("cache")
        return "fresh" if cache == "miss" else cache


class Connection:
    """One persistent connection to the daemon, read without asyncio.

    A pass multiplexes the connections with :mod:`selectors` and takes
    whatever a socket holds in one ``recv``, splitting records itself.
    Per record, an asyncio stream reader costs an event-loop wake-up and
    ``repro.service.client.send_request`` adds an ``asyncio.wait_for``:
    together more client CPU per response than the daemon spends
    serving it, on the same 2 vCPUs.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: ``(index, payload, sent)`` of the requests awaiting a response.
        self.inflight: Deque[Tuple[int, dict, float]] = deque()
        self._rest = b""
        self._lines: List[bytes] = []

    def send(self, payload: dict) -> None:
        self.sock.sendall(json.dumps(payload).encode() + b"\n")

    def receive(self) -> List[List[bytes]]:
        """Read what the socket holds; return the responses it completed
        (each its raw record lines, terminal last)."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        *complete, self._rest = (self._rest + chunk).split(b"\n")
        done = []
        for line in complete:
            self._lines.append(line)
            # The daemon writes compact sorted-key JSON, so a hop record
            # is recognised without parsing it; any other line is parsed
            # to tell a hop from the terminal record.
            if b'"type":"hop"' in line \
                    or json.loads(line).get("type") == "hop":
                continue
            done.append(self._lines)
            self._lines = []
        return done

    def request(self, payload: dict) -> dict:
        """One control op on an idle connection: its response record."""
        self.send(payload)
        while True:
            done = self.receive()
            if done:
                return json.loads(done[0][-1])

    def close(self) -> None:
        self.sock.close()


def run_pass(connections: List[Connection], requests: List[dict],
             clock) -> List[Reply]:
    """Send every request once over ``connections``; replies come back
    in request order.

    Closed loop: each connection keeps ``WINDOW`` requests outstanding
    and sends the next one only when a response completes.
    """
    replies: List[Optional[Reply]] = [None] * len(requests)
    queue = iter(enumerate(requests))

    def send_next(connection: Connection) -> None:
        for index, payload in queue:
            connection.send(payload)
            connection.inflight.append((index, payload, clock()))
            return

    def fail(connection: Connection, error: Exception) -> None:
        # Reset, refused, timed out or garbled: what this connection had
        # outstanding failed; the other one carries on with the rest.
        for index, payload, sent in connection.inflight:
            replies[index] = Reply(payload, [], sent, clock(),
                                   error=repr(error))
        connection.inflight.clear()
        selector.unregister(connection.sock)

    with selectors.DefaultSelector() as selector:
        for connection in connections:
            selector.register(connection.sock, selectors.EVENT_READ,
                              connection)
            for _ in range(WINDOW):
                send_next(connection)
        while selector.get_map():
            events = selector.select(TIMEOUT_S)
            # Let the responses' records gather: one read per poll
            # instead of one per record keeps this process's CPU small
            # next to the daemon's, which shares the host's vCPUs.
            time.sleep(POLL_S)
            if not events:
                for key in list(selector.get_map().values()):
                    fail(key.data, TimeoutError(
                        f"no record for {TIMEOUT_S:g} s"))
            for key, _ in events:
                connection = key.data
                try:
                    done = connection.receive()
                    now = clock()
                    for lines in done:
                        index, payload, sent = connection.inflight.popleft()
                        replies[index] = Reply(payload, lines, sent, now)
                        send_next(connection)
                except (OSError, ValueError) as exc:
                    fail(connection, exc)
                    continue
                if not connection.inflight:
                    selector.unregister(connection.sock)
    return [reply if reply is not None
            else Reply(payload, [], 0.0, 0.0, error="never sent")
            for reply, payload in zip(replies, requests)]
