"""Outside-in layer spans for the benchmark's traced run.

The program is not edited.  :func:`instrument` swaps the public entry
points the request path looks up at call time (module attributes that
``repro.service.routes``, ``repro.service.engine`` and the recipe's
lazy imports resolve on each call, plus the cache and breaker methods
of one engine instance) for wrappers that record a span, and puts the
originals back on exit.

A span is ``[name, start, end, parent, request]`` on the
``time.perf_counter`` clock, kept in memory and written out when the
run ends.  Layers are *containers* (the root, ``cache``, ``engine``),
whose calls into other layers become child spans, or *leaves*, inside
which nested calls to wrapped entry points are not recorded: that work
belongs to the outer layer (the exact engine's own ``decompose`` or
``classify_edges`` call is exact work, not attack work).  A span's self
time is its duration minus its children's, so the self times of all
layers add up to the root spans exactly.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import repro.data.database as database_mod
import repro.graph.blocks as blocks_mod
import repro.graph.exact as exact_mod
import repro.graph.refine as refine_mod
import repro.service.engine as engine_mod
import repro.service.routes as routes_mod

__all__ = ["LAYERS", "ROOT", "STAGE_LAYERS", "Tracer", "instrument", "layer_totals"]

#: The root span: one per request, around ``dispatch()`` + ``body()``.
#: Its self time is the ``routes`` layer: JSON decode, validation,
#: admission and dispatch glue.
ROOT = "routes"

#: Every layer the benchmark reports, root first.
LAYERS = (
    ROOT,
    "io.parse",
    "io.serialize",
    "fingerprint",
    "cache",
    "engine",
    "groups",
    "space",
    "oestimate",
    "exact",
    "attack",
    "alpha",
)

#: Module-level entry points: (layer, owner, attribute).  All leaves.
#: ``FrequencyProfile.frequencies`` is the one method: the engine's
#: groups stage calls it right before building ``FrequencyGroups``.
_MODULE_POINTS = (
    ("io.parse", routes_mod, "profile_from_json"),
    ("io.serialize", routes_mod, "assessment_to_json"),
    ("fingerprint", engine_mod, "profile_fingerprint"),
    ("fingerprint", engine_mod, "request_fingerprint"),
    ("groups", database_mod.FrequencyProfile, "frequencies"),
    ("groups", engine_mod, "FrequencyGroups"),
    ("space", engine_mod, "uniform_width_belief"),
    ("space", engine_mod, "space_from_frequencies"),
    ("oestimate", engine_mod, "o_estimate"),
    ("exact", exact_mod, "exact_strategy"),
    ("exact", exact_mod, "crack_marginals_exact"),
    ("attack", refine_mod, "classify_edges"),
    ("attack", refine_mod, "reduced_blocks"),
    ("attack", blocks_mod, "decompose"),
    ("alpha", engine_mod, "compute_alpha_max"),
)

#: The engine's ``stage:*`` timers and the layer whose spans cover the
#: same calls; their totals are cross-checked.
STAGE_LAYERS = {
    "stage:groups": "groups",
    "stage:space": "space",
    "stage:oestimate": "oestimate",
    "stage:exact": "exact",
    "stage:attack": "attack",
    "stage:alpha": "alpha",
}


class Tracer:
    """In-memory span recorder for one single-threaded closed loop."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._in_leaf = False
        self._request = -1

    def wrap(self, layer: str, func: Callable[..., Any], leaf: bool) -> Callable[..., Any]:
        """*func*, recording a *layer* span when called inside a request."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            if self._in_leaf or not self._stack:
                return func(*args, **kwargs)
            return self._record(layer, leaf, func, args, kwargs)

        return traced

    def request(self, request_id: int, func: Callable[[], Any]) -> Any:
        """Run one request under a root span."""
        self._request = request_id
        try:
            return self._record(ROOT, False, func, (), {})
        finally:
            self._request = -1

    def _record(
        self,
        layer: str,
        leaf: bool,
        func: Callable[..., Any],
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
    ) -> Any:
        parent = self._stack[-1] if self._stack else -1
        span = [layer, 0.0, 0.0, parent, self._request]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        self._in_leaf = leaf
        span[1] = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._in_leaf = False

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        fields = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")


@contextmanager
def instrument(core: Any, tracer: Tracer) -> Iterator[None]:
    """Wrap the request path's entry points for the duration of the block."""
    patches: list[tuple[Any, str, Any]] = [
        (owner, attribute, tracer.wrap(layer, getattr(owner, attribute), leaf=True))
        for layer, owner, attribute in _MODULE_POINTS
    ]
    cache = core.engine.cache
    patches += [
        (cache, attribute, tracer.wrap("cache", getattr(cache, attribute), leaf=False))
        for attribute in ("get", "get_or_compute", "put")
    ]
    breaker = core.engine.breaker
    patches.append((breaker, "call", tracer.wrap("engine", breaker.call, leaf=False)))
    saved = [(owner, attribute, owner.__dict__.get(attribute)) for owner, attribute, _ in patches]
    try:
        for owner, attribute, wrapped in patches:
            setattr(owner, attribute, wrapped)
        yield
    finally:
        for owner, attribute, original in saved:
            if original is None:
                delattr(owner, attribute)  # instance patch over a class method
            else:
                setattr(owner, attribute, original)


def layer_totals(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per layer: total self seconds, total span seconds and span count."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {layer: {"self": 0.0, "total": 0.0, "calls": 0} for layer in LAYERS}
    for index, (name, start, end, _, _) in enumerate(spans):
        entry = totals[name]
        entry["self"] += end - start - child_time[index]
        entry["total"] += end - start
        entry["calls"] += 1
    return totals
