"""Streaming attacker workbench: the incremental consistency solver.

The dual, interactive view of the owner's risk assessment: feed the
solver a consistency-graph instance plus a stream of observations
(confirmed identifications, auxiliary transactions, tightening belief
intervals) and it maintains the exact forced/forbidden/undecided edge
partition, emitting JSONL events the moment an identification locks on.
See ``docs/attack.md`` for the model and the wire format.

Layering: this package builds on :mod:`repro.graph` (the
Dulmage–Mendelsohn refinement) and must stay independent of
:mod:`repro.service` and :mod:`repro.io` — those wire it up, not the
other way around.
"""

from repro.attack.solver.core import ConsistencySolver, solver_from_space
from repro.attack.solver.events import (
    Observation,
    SolverEvent,
    decode_observation,
    read_observations,
)

__all__ = [
    "ConsistencySolver",
    "solver_from_space",
    "Observation",
    "SolverEvent",
    "decode_observation",
    "read_observations",
]
