"""Shared fixtures: the paper's worked examples, small workloads and a
live HTTP server."""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.beliefs import interval_belief, point_belief
from repro.data import TransactionDatabase
from repro.graph import ExplicitMappingSpace, space_from_frequencies
from repro.service import ServiceCore
from repro.service.aio import AsyncAssessmentServer


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def bigmart_frequencies():
    """Item frequencies of the paper's BigMart example (Figures 1-3)."""
    return {1: 0.5, 2: 0.4, 3: 0.5, 4: 0.5, 5: 0.3, 6: 0.5}


@pytest.fixture
def bigmart_db():
    """A 10-transaction database realizing the BigMart frequencies."""
    windows = {1: range(0, 5), 2: range(3, 7), 3: range(5, 10), 4: range(2, 7), 5: range(7, 10), 6: range(5, 10)}
    transactions = [
        {item for item, window in windows.items() if t in window} for t in range(10)
    ]
    return TransactionDatabase(transactions, domain=range(1, 7))


@pytest.fixture
def belief_h():
    """The compliant interval belief function ``h`` of Figure 2."""
    return interval_belief(
        {1: (0, 1), 2: (0.4, 0.5), 3: 0.5, 4: (0.4, 0.6), 5: (0.1, 0.4), 6: 0.5}
    )


@pytest.fixture
def belief_f(bigmart_frequencies):
    """The compliant point-valued belief function ``f`` of Figure 2."""
    return point_belief(bigmart_frequencies)


@pytest.fixture
def bigmart_space_h(belief_h, bigmart_frequencies):
    """Mapping space of belief ``h`` over the BigMart frequencies."""
    return space_from_frequencies(belief_h, bigmart_frequencies)


@pytest.fixture
def staircase_space():
    """Figure 6(a)'s staircase: raw OE 25/12, true expected cracks 4."""
    return ExplicitMappingSpace(
        items=("a", "b", "c", "d"),
        anonymized=("a'", "b'", "c'", "d'"),
        adjacency=[[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]],
        true_partner_of=[0, 1, 2, 3],
    )


@pytest.fixture
def two_blocks_space():
    """Figure 6(b): {1',2'} forced onto {1,2} and {3',4'} onto {3,4}."""
    return ExplicitMappingSpace(
        items=(1, 2, 3, 4),
        anonymized=("1'", "2'", "3'", "4'"),
        adjacency=[[0, 1], [0, 1], [1, 2, 3], [2, 3]],
        true_partner_of=[0, 1, 2, 3],
    )


class LiveServer:
    """An :class:`AsyncAssessmentServer` on its own event-loop thread.

    Blocking tests talk to it over real sockets at :attr:`url`;
    :meth:`shutdown_gracefully` drains it from the calling thread.
    """

    def __init__(self, core: ServiceCore) -> None:
        self.server = AsyncAssessmentServer(core=core)
        self.engine = core.engine
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        self._drained: bool | None = None
        self._call(self.server.start("127.0.0.1", 0))
        self.server_port = self.server.server_port
        self.url = f"http://127.0.0.1:{self.server_port}"

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(timeout=30)

    def inflight_requests(self) -> int:
        return self.server.inflight_requests()

    def post(self, path, payload):
        """POST *payload* as JSON; ``(status, body)``, HTTPError on >= 400."""
        return _post_json(f"{self.url}{path}", payload)

    def shutdown_gracefully(self, grace_seconds: float = 5.0) -> bool:
        """Stop accepting, drain, close; idempotent."""
        if self._drained is None:
            self._drained = self._call(self.server.shutdown_gracefully(grace_seconds))
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()
        return self._drained


def _post_json(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


@pytest.fixture
def post_json():
    """``post_json(url, payload)`` -> ``(status, body)``; HTTPError on >= 400."""
    return _post_json


@pytest.fixture
def start_server():
    """Factory: ``start_server(engine=None, max_inflight=8, max_queue=32)``."""
    servers = []

    def start(engine=None, max_inflight=8, max_queue=32):
        core = ServiceCore(engine=engine, max_inflight=max_inflight, max_queue=max_queue)
        servers.append(LiveServer(core))
        return servers[-1]

    yield start
    for server in servers:
        server.shutdown_gracefully(grace_seconds=2.0)


@pytest.fixture
def live_server(start_server):
    """A server with a fresh engine at default admission limits."""
    return start_server()
