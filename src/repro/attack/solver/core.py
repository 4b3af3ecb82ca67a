"""The incremental consistency solver behind the attacker workbench.

A :class:`ConsistencySolver` holds the hacker's current consistency
graph and maintains the complete forced/forbidden/undecided edge
partition as observations stream in.  Each ingest is an *intersection*
of candidate sets — candidates only ever disappear — so the partition
after any set of observations is independent of their order, and
previously emitted ``forced`` events never retract (short of the graph
turning infeasible, which is itself monotone).

Per step the solver runs one complete filter: the Dulmage–Mendelsohn /
Régin classification (:func:`repro.graph.refine.classify_adjacency`,
minus its index validation, which the constructor already did) of the
current graph, which decides every edge and detects
Hall-condition infeasibility.  Figure 7's degree-1 cascade is a special
case of that filter (a degree-1 node is a singleton component), so the
staircase of Figure 6(a) comes out fully forced without a separate
propagation front.

Newly decided edges are diffed against what was already emitted and
returned as deterministic, ascending-ordered
:class:`~repro.attack.solver.events.SolverEvent` records.  All loops
poll the optional :class:`~repro.budget.ComputeBudget`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.budget import ComputeBudget
from repro.errors import SolverError
from repro.graph.bipartite import MappingSpace
from repro.graph.propagation import DEFAULT_MAX_EDGES
from repro.graph.refine import EdgeClassification, _classify_rows

from repro.attack.solver.events import Observation, SolverEvent

__all__ = ["ConsistencySolver", "solver_from_space"]


class ConsistencySolver:
    """Incremental forced/forbidden/undecided tracker for one instance.

    Parameters
    ----------
    adjacency:
        ``adjacency[i]`` lists the anon indices item ``i`` may map to
        (the square bipartite consistency graph).
    observed:
        Observed frequency per anon index; required to ingest
        ``tighten`` observations.
    true_partner_of:
        Optional ground-truth pairing (owner-side dual view).  When
        present, ``forced`` events carry a ``crack`` flag and the
        summary counts solver-certified cracks.
    item_labels, anon_labels:
        Optional display names echoed into events.
    budget:
        Optional compute budget polled by every solver loop.
    max_edges:
        Explicit-adjacency guard; a classification over more edges
        raises :class:`~repro.errors.SolverError`.
    """

    def __init__(
        self,
        adjacency: Sequence[Iterable[int]],
        observed: Sequence[float] | None = None,
        true_partner_of: Sequence[int] | None = None,
        item_labels: Sequence[str] | None = None,
        anon_labels: Sequence[str] | None = None,
        budget: ComputeBudget | None = None,
        max_edges: int = DEFAULT_MAX_EDGES,
    ) -> None:
        n = len(adjacency)
        if n == 0:
            raise SolverError("a solver instance needs a non-empty domain")
        self._n = n
        self._adjacency: list[frozenset[int]] = []
        for i, row in enumerate(adjacency):
            candidates = frozenset(int(j) for j in row)
            if any(not 0 <= j < n for j in candidates):
                raise SolverError(f"adjacency of item #{i} references an invalid index")
            self._adjacency.append(candidates)
        if observed is not None and len(observed) != n:
            raise SolverError("observed frequencies must align with the anon side")
        self._observed = None if observed is None else tuple(float(f) for f in observed)
        if true_partner_of is not None:
            truth = [int(j) for j in true_partner_of]
            if sorted(truth) != list(range(n)):
                raise SolverError("ground truth must be a permutation of the anon indices")
            self._truth: list[int] | None = truth
        else:
            self._truth = None
        self._item_labels = None if item_labels is None else tuple(item_labels)
        self._anon_labels = None if anon_labels is None else tuple(anon_labels)
        if self._item_labels is not None and len(self._item_labels) != n:
            raise SolverError("item labels must align with the item side")
        if self._anon_labels is not None and len(self._anon_labels) != n:
            raise SolverError("anon labels must align with the anon side")
        self._budget = budget
        self._max_edges = max_edges
        self._step = 0
        self._emitted_forced: dict[int, int] = {}
        self._emitted_forbidden: set[tuple[int, int]] = set()
        self._infeasible = False
        self._classification: EdgeClassification | None = None
        self._closed = False

    # -- public state --------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def step(self) -> int:
        """Number of observations ingested so far."""
        return self._step

    @property
    def infeasible(self) -> bool:
        return self._infeasible

    @property
    def closed(self) -> bool:
        """True once a ``close`` observation ended the stream."""
        return self._closed

    @property
    def partition(self) -> EdgeClassification:
        """The current complete edge partition (classifying on demand)."""
        if self._classification is None:
            self._classification = self._classify()
        return self._classification

    def status(self, item_index: int, anon_index: int) -> str:
        """``"forced"`` / ``"forbidden"`` / ``"undecided"`` / ``"non-edge"``."""
        return self.partition.status(item_index, anon_index)

    def forced_pairs(self) -> dict[int, int]:
        """Item -> anon pairs currently proven to be in every mapping."""
        return dict(self.partition.forced)

    def certified_cracks(self) -> int | None:
        """Forced pairs agreeing with ground truth; ``None`` without truth."""
        if self._truth is None:
            return None
        return sum(1 for i, j in self.partition.forced.items() if self._truth[i] == j)

    def summary(self) -> dict[str, object]:
        """JSON-ready totals of the current partition."""
        partition = self.partition
        counts: dict[str, object] = {
            "n": self._n,
            "step": self._step,
            "forced": partition.n_forced,
            "forbidden": partition.n_forbidden,
            "undecided": partition.n_undecided,
            "infeasible": self._infeasible,
        }
        certified = self.certified_cracks()
        if certified is not None:
            counts["certified_cracks"] = certified
        return counts

    # -- classification ------------------------------------------------------

    def _classify(self) -> EdgeClassification:
        """Full partition of the current graph.

        An infeasible graph classifies every edge forbidden and names a
        witness: the first empty row, else a Hall-condition violator.
        """
        n = self._n
        if any(not row for row in self._adjacency):
            empty = min(i for i in range(n) if not self._adjacency[i])
            return EdgeClassification(
                n=n,
                forced={},
                undecided=tuple(frozenset() for _ in range(n)),
                forbidden=tuple(self._adjacency),
                infeasible=True,
                hall_witness=(empty,),
                reason=f"item #{empty} has no candidates left",
            )
        edges = sum(len(row) for row in self._adjacency)
        if edges > self._max_edges:
            raise SolverError(
                f"instance has {edges} edges, beyond the {self._max_edges}-edge guard"
            )
        return _classify_rows(self._adjacency, self._budget)

    # -- event emission ------------------------------------------------------

    def _label_fields(self, i: int, j: int) -> tuple[str | None, str | None]:
        item_label = None if self._item_labels is None else str(self._item_labels[i])
        anon_label = None if self._anon_labels is None else str(self._anon_labels[j])
        return item_label, anon_label

    def _diff_events(self) -> list[SolverEvent]:
        partition = self.partition
        events: list[SolverEvent] = []
        if partition.infeasible:
            if not self._infeasible:
                self._infeasible = True
                events.append(
                    SolverEvent(
                        kind="infeasible",
                        step=self._step,
                        detail=partition.reason,
                    )
                )
            return events
        for i in sorted(partition.forced):
            j = partition.forced[i]
            if self._emitted_forced.get(i) == j:
                continue
            self._emitted_forced[i] = j
            item_label, anon_label = self._label_fields(i, j)
            events.append(
                SolverEvent(
                    kind="forced",
                    step=self._step,
                    item=i,
                    anon=j,
                    item_label=item_label,
                    anon_label=anon_label,
                    crack=None if self._truth is None else self._truth[i] == j,
                )
            )
        for i in range(self._n):
            for j in sorted(partition.forbidden[i]):
                if (i, j) in self._emitted_forbidden:
                    continue
                self._emitted_forbidden.add((i, j))
                item_label, anon_label = self._label_fields(i, j)
                events.append(
                    SolverEvent(
                        kind="forbidden",
                        step=self._step,
                        item=i,
                        anon=j,
                        item_label=item_label,
                        anon_label=anon_label,
                    )
                )
        return events

    # -- ingestion -----------------------------------------------------------

    def bootstrap(self) -> list[SolverEvent]:
        """Classify the initial graph and emit its already-decided edges.

        Figure 6(a)'s staircase, for instance, forces every pair before
        any observation arrives.
        """
        return self._diff_events()

    def ingest(self, observation: Observation) -> list[SolverEvent]:
        """Apply one observation and return the newly decided edges."""
        if self._budget is not None:
            self._budget.poll()
        if observation.kind == "close":
            self._closed = True
            return []
        self._step += 1
        changed = self._apply(observation)
        if changed:
            self._classification = None
        return self._diff_events()

    def replay(self, observations: Iterable[Observation]) -> Iterator[SolverEvent]:
        """Bootstrap, then ingest each observation, yielding events in order."""
        yield from self.bootstrap()
        for observation in observations:
            yield from self.ingest(observation)
            if self._closed:
                return

    def _restrict(self, item: int, allowed: set[int]) -> bool:
        if not 0 <= item < self._n:
            raise SolverError(f"observation references item #{item}, domain is {self._n}")
        row = self._adjacency[item]
        self._adjacency[item] = row & allowed
        return len(self._adjacency[item]) != len(row)

    def _apply(self, observation: Observation) -> bool:
        kind = observation.kind
        if kind == "confirm":
            assert observation.item is not None and observation.anon is not None
            if not 0 <= observation.anon < self._n:
                raise SolverError(
                    f"observation references anon #{observation.anon}, domain is {self._n}"
                )
            return self._restrict(observation.item, {observation.anon})
        if kind == "restrict":
            assert observation.item is not None and observation.anons is not None
            return self._restrict(observation.item, set(observation.anons))
        if kind == "tighten":
            assert observation.item is not None
            assert observation.low is not None and observation.high is not None
            if self._observed is None:
                raise SolverError(
                    "'tighten' observations need an instance with observed frequencies"
                )
            allowed = {
                j
                for j, f in enumerate(self._observed)
                if observation.low <= f <= observation.high
            }
            return self._restrict(observation.item, allowed)
        if kind == "transaction":
            assert observation.items is not None and observation.anons is not None
            allowed = set(observation.anons)
            changed = False
            for item in observation.items:
                changed = self._restrict(item, allowed) or changed
            return changed
        raise SolverError(f"unknown observation kind {kind!r}")


def solver_from_space(
    space: MappingSpace,
    budget: ComputeBudget | None = None,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> ConsistencySolver:
    """Owner-side dual view: wrap a mapping space (with its ground truth).

    The observed frequencies ride along for frequency spaces, so
    ``tighten`` observations work against the same instance the
    assessment pipeline analyzes.
    """
    total_edges = space.edge_count()
    if total_edges > max_edges:
        # Fail before materializing the adjacency — a dense frequency
        # space can hold tens of millions of edges.
        raise SolverError(
            f"instance has {total_edges} edges, beyond the {max_edges}-edge guard"
        )
    observed = getattr(space, "observed", None)
    return ConsistencySolver(
        adjacency=[tuple(space.candidates(i)) for i in range(space.n)],
        observed=None if observed is None else [float(f) for f in observed],
        true_partner_of=[space.true_partner(i) for i in range(space.n)],
        item_labels=[repr(x) for x in space.items],
        anon_labels=[repr(x) for x in space.anonymized],
        budget=budget,
        max_edges=max_edges,
    )
