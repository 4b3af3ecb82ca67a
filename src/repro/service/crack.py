"""Server-side sessions for the streaming attacker workbench.

``POST /crack/step`` is the HTTP face of
:class:`~repro.attack.solver.ConsistencySolver`: a client opens a
session by posting an ``instance`` and then streams observations into
it, receiving the newly decided edges after every step.  The
:class:`CrackSessionStore` keeps the live solvers, lock-guarded and
LRU-bounded so an abandoned stream cannot pin memory forever.

One request shape serves both moves::

    {"instance": {"adjacency": [[0], [0, 1]]},   # open (first call only)
     "session": "crack-3",                        # continue (later calls)
     "observations": [{"kind": "confirm", "item": 0, "anon": 0}]}

An ``instance`` is either an explicit ``adjacency`` (with optional
``observed`` frequencies and ``truth`` permutation) or a
serialized frequency ``profile`` plus interval half-width ``delta`` —
the latter builds the same belief/space the assessment pipeline
analyzes, ground truth included, so ``forced`` events carry ``crack``
flags.  The reply carries the session id, the JSONL-shaped events, the
running summary, and ``closed`` once a ``{"kind": "close"}`` arrives
(which also retires the session).
"""

from __future__ import annotations

import threading
from typing import Any, Mapping, Sequence

from repro.attack.solver import ConsistencySolver, Observation, solver_from_space
from repro.beliefs.builders import uniform_width_belief
from repro.budget import ComputeBudget
from repro.errors import SolverError
from repro.graph.bipartite import space_from_frequencies
from repro.io import profile_from_json
from repro.memo import MISSING, BoundedLRU

__all__ = ["CrackSessionStore", "solver_from_instance"]

#: Session cap: opening one more evicts the least recently stepped.
DEFAULT_MAX_SESSIONS = 64


def _int_rows(raw: object, key: str) -> list[list[int]]:
    if not isinstance(raw, list) or not raw:
        raise SolverError(f"instance needs a non-empty list under {key!r}")
    rows: list[list[int]] = []
    for index, row in enumerate(raw):
        if not isinstance(row, list):
            raise SolverError(f"{key!r} row #{index} must be a list")
        for value in row:
            if not isinstance(value, int) or isinstance(value, bool):
                raise SolverError(f"{key!r} row #{index} must hold integers")
        rows.append([int(value) for value in row])
    return rows


def solver_from_instance(
    instance: Mapping[str, Any],
    budget: ComputeBudget | None = None,
) -> ConsistencySolver:
    """Build a solver from a ``/crack/step`` ``instance`` payload."""
    if "profile" in instance:
        if "delta" not in instance:
            raise SolverError("a profile instance needs the interval half-width 'delta'")
        profile = profile_from_json(instance["profile"])
        delta = float(instance["delta"])
        frequencies = profile.frequencies()
        belief = uniform_width_belief(frequencies, delta)
        space = space_from_frequencies(belief, frequencies)
        return solver_from_space(space, budget=budget)
    if "adjacency" not in instance:
        raise SolverError("an instance needs either 'adjacency' or 'profile' + 'delta'")
    adjacency = _int_rows(instance["adjacency"], "adjacency")
    observed = instance.get("observed")
    truth = instance.get("truth")
    return ConsistencySolver(
        adjacency=adjacency,
        observed=None if observed is None else [float(f) for f in observed],
        true_partner_of=None if truth is None else [int(j) for j in truth],
        budget=budget,
    )


class _Session:
    """One live solver plus the lock that serializes steps against it.

    :class:`~repro.attack.solver.ConsistencySolver` is single-threaded
    by design; two ``/crack/step`` requests naming the same session can
    race on every piece of solver state (``_step``, the adjacency
    restriction, the emitted-event dedup sets).  The session table only
    locks its own calls — this per-session lock is what makes
    concurrent steps against one session take turns.
    """

    __slots__ = ("solver", "lock")

    def __init__(self, solver: ConsistencySolver) -> None:
        self.solver = solver
        self.lock = threading.Lock()


class CrackSessionStore:
    """The live solver sessions behind ``POST /crack/step``."""

    def __init__(self, max_sessions: int = DEFAULT_MAX_SESSIONS) -> None:
        self._sessions: BoundedLRU[str, _Session] = BoundedLRU(max_sessions)
        self._lock = threading.Lock()  # the id counter; the table locks itself
        self._counter = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def _open(self, instance: Mapping[str, Any]) -> tuple[str, _Session]:
        session = _Session(solver_from_instance(instance))
        with self._lock:
            self._counter += 1
            session_id = f"crack-{self._counter}"
            self._sessions.put(session_id, session)
        return session_id, session

    def _resume(self, session_id: str) -> _Session:
        session = self._sessions.get(session_id)
        if session is MISSING:
            raise SolverError(f"unknown or expired crack session {session_id!r}")
        return session

    def _retire(self, session_id: str) -> None:
        self._sessions.pop(session_id)

    def step(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Answer one ``/crack/step`` request (see the module docstring).

        Opening a session (an ``instance`` payload) bootstraps the
        solver, so edges the initial graph already decides — Figure
        6(a)'s staircase forces everything up front — arrive with the
        very first reply.
        """
        instance = payload.get("instance")
        session_raw = payload.get("session")
        opened = instance is not None
        if opened:
            if session_raw is not None:
                raise SolverError("pass 'instance' to open or 'session' to continue, not both")
            if not isinstance(instance, Mapping):
                raise SolverError("'instance' must be a JSON object")
            session_id, session = self._open(instance)
        else:
            if not isinstance(session_raw, str):
                raise SolverError("a step needs an 'instance' to open or a 'session' id")
            session_id = session_raw
            session = self._resume(session_id)

        observations = payload.get("observations", [])
        if not isinstance(observations, Sequence) or isinstance(observations, (str, bytes)):
            raise SolverError("'observations' must be a list of observation objects")

        events: list[dict[str, Any]] = []
        with session.lock:
            solver = session.solver
            if opened:
                events.extend(event.to_json() for event in solver.bootstrap())
            for raw in observations:
                if not isinstance(raw, Mapping):
                    raise SolverError("each observation must be a JSON object")
                observation = Observation.from_json(raw)
                events.extend(event.to_json() for event in solver.ingest(observation))
                if solver.closed:
                    break
            closed = solver.closed
            summary = solver.summary()
        if closed:
            self._retire(session_id)
        return {
            "session": session_id,
            "events": events,
            "summary": summary,
            "closed": closed,
        }
