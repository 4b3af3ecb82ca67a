"""Chain interval belief functions (paper, Section 4.2 and Section 5.2).

A compliant interval belief function forms a *chain* when every belief
group admits either exactly one frequency group (an *exclusive* group) or
two successive frequency groups (a *shared* group).  For chains the paper
derives an exact expected-crack formula (Lemmas 5 and 6) and compares it
against the O-estimate, whose error ``Delta`` it tabulates in Section 5.2.

Note on Lemma 6 as printed: the first shared-group summand appears
without the square that Lemma 5 (its ``k = 2`` instance) requires; we use
the squared form, which reproduces both Lemma 5 and the paper's worked
example (``E[X] = 74/45`` for Figure 4(a)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.anonymize.mapping import AnonymizedItem
from repro.errors import NotAChainError
from repro.graph.bipartite import FrequencyMappingSpace

__all__ = [
    "ChainSpec",
    "chain_expected_cracks",
    "chain_o_estimate",
    "chain_delta",
    "chain_percentage_error",
    "chain_matching_count",
    "space_from_chain",
    "chain_from_space",
]


@dataclass(frozen=True)
class ChainSpec:
    """Sizes describing a chain of length ``k`` (Figure 4(b)).

    Attributes
    ----------
    group_sizes:
        ``(n_1, ..., n_k)`` — sizes of the observed frequency groups.
    exclusive_sizes:
        ``(e_1, ..., e_k)`` — sizes of the exclusive belief groups.
    shared_sizes:
        ``(s_1, ..., s_{k-1})`` — sizes of the shared belief groups.
    """

    group_sizes: tuple[int, ...]
    exclusive_sizes: tuple[int, ...]
    shared_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        n, e, s = self.group_sizes, self.exclusive_sizes, self.shared_sizes
        k = len(n)
        if k == 0:
            raise NotAChainError("a chain needs at least one frequency group")
        if len(e) != k or len(s) != k - 1:
            raise NotAChainError(
                f"chain of length {k} needs {k} exclusive sizes and {k - 1} shared sizes"
            )
        if any(x < 0 for x in e) or any(x < 0 for x in s) or any(x <= 0 for x in n):
            raise NotAChainError("group sizes must be positive, e/s sizes non-negative")
        if sum(e) + sum(s) != sum(n):
            raise NotAChainError(
                f"belief-group sizes (sum {sum(e) + sum(s)}) must partition the "
                f"domain (sum of group sizes {sum(n)})"
            )
        # The split of each shared group between its two frequency groups
        # is forced by the size constraints (Section 4.2): validate it.
        for i, (c, d) in enumerate(zip(self.correct_to_lower(), self.correct_to_upper())):
            if c < 0 or d < 0:
                raise NotAChainError(
                    f"shared group #{i + 1} would need a negative split "
                    f"(c={c}, d={d}); sizes are not chain-consistent"
                )

    @property
    def k(self) -> int:
        """Chain length — the number of frequency groups."""
        return len(self.group_sizes)

    @property
    def n(self) -> int:
        """Domain size."""
        return sum(self.group_sizes)

    def correct_to_lower(self) -> tuple[int, ...]:
        """``c_i`` — items of shared group ``i`` truly in frequency group ``i``.

        Determined by the sizes via ``n_i = e_i + d_{i-1} + c_i``.
        """
        c: list[int] = []
        d_prev = 0
        for i in range(self.k - 1):
            c_i = self.group_sizes[i] - self.exclusive_sizes[i] - d_prev
            c.append(c_i)
            d_prev = self.shared_sizes[i] - c_i
        return tuple(c)

    def correct_to_upper(self) -> tuple[int, ...]:
        """``d_i`` — items of shared group ``i`` truly in frequency group ``i + 1``."""
        c = self.correct_to_lower()
        return tuple(s_i - c_i for s_i, c_i in zip(self.shared_sizes, c))


def chain_expected_cracks(spec: ChainSpec) -> float:
    """Exact expected cracks for a chain (Lemmas 5–6).

    ``E[X] = sum_j e_j/n_j + sum_i c_i^2/(s_i n_i) + sum_i d_i^2/(s_i n_{i+1})``.
    """
    n, e, s = spec.group_sizes, spec.exclusive_sizes, spec.shared_sizes
    expected = sum(e_j / n_j for e_j, n_j in zip(e, n))
    for i, (c_i, d_i) in enumerate(zip(spec.correct_to_lower(), spec.correct_to_upper())):
        if s[i] == 0:
            continue  # empty shared group contributes nothing
        expected += c_i * c_i / (s[i] * n[i])
        expected += d_i * d_i / (s[i] * n[i + 1])
    return expected


def chain_o_estimate(spec: ChainSpec) -> float:
    """The O-estimate for a chain (Section 5.2).

    ``OE = sum_j e_j/n_j + sum_j s_j/(n_j + n_{j+1})`` — every shared item
    has outdegree ``n_j + n_{j+1}``.
    """
    n, e, s = spec.group_sizes, spec.exclusive_sizes, spec.shared_sizes
    estimate = sum(e_j / n_j for e_j, n_j in zip(e, n))
    estimate += sum(s_j / (n[j] + n[j + 1]) for j, s_j in enumerate(s))
    return estimate


def chain_delta(spec: ChainSpec) -> float:
    """``Delta`` — exact value minus O-estimate (Section 5.2)."""
    return chain_expected_cracks(spec) - chain_o_estimate(spec)


def chain_percentage_error(spec: ChainSpec) -> float:
    """``|Delta|`` relative to the exact value, in percent (the §5.2 table)."""
    exact = chain_expected_cracks(spec)
    return abs(chain_delta(spec)) / exact * 100.0


def chain_matching_count(spec: ChainSpec) -> int:
    """Exact number of consistent crack mappings of a chain.

    ``count = prod_i C(s_i, d_i) * prod_g n_g!``: choose which shared
    items cross each boundary (the upward counts ``d_i`` are forced by
    the group sizes, see :meth:`ChainSpec.correct_to_upper`), then pick
    the within-group bijections freely.  Equals the permanent of the
    chain's adjacency matrix, at closed-form cost.
    """
    from math import comb, factorial

    count = 1
    for s_i, d_i in zip(spec.shared_sizes, spec.correct_to_upper()):
        count *= comb(s_i, d_i)
    for n_g in spec.group_sizes:
        count *= factorial(n_g)
    return count


def space_from_chain(
    spec: ChainSpec, frequencies: tuple[float, ...] | None = None
) -> FrequencyMappingSpace:
    """Materialize a chain as a concrete mapping space.

    Builds items, anonymized items, observed frequencies and a compliant
    interval belief realizing exactly the chain structure: exclusive items
    get the point interval of their group's frequency, shared items get
    the interval spanning their two groups' frequencies.  Used to validate
    the closed forms against enumeration/simulation.

    Parameters
    ----------
    spec:
        The chain sizes.
    frequencies:
        The ``k`` increasing group frequencies; defaults to an even grid
        in ``(0, 1)``.
    """
    k = spec.k
    if frequencies is None:
        frequencies = tuple((g + 1) / (k + 1) for g in range(k))
    if len(frequencies) != k or any(
        not 0.0 <= f <= 1.0 for f in frequencies
    ) or list(frequencies) != sorted(set(frequencies)):
        raise NotAChainError("frequencies must be k distinct increasing values in [0, 1]")

    observed: list[float] = []
    for g, size in enumerate(spec.group_sizes):
        observed.extend([frequencies[g]] * size)
    n = spec.n
    anonymized = tuple(AnonymizedItem(j + 1) for j in range(n))

    # Anonymized indices of each group, consumed as true partners are dealt.
    cursor = 0
    group_slots: list[list[int]] = []
    for size in spec.group_sizes:
        group_slots.append(list(range(cursor, cursor + size)))
        cursor += size

    items: list[str] = []
    intervals: list[tuple[float, float]] = []
    pairing: list[int] = []

    def add_item(name: str, interval: tuple[float, float], true_group: int) -> None:
        items.append(name)
        intervals.append(interval)
        pairing.append(group_slots[true_group].pop())

    for g in range(k):
        for idx in range(spec.exclusive_sizes[g]):
            add_item(f"E{g + 1}.{idx + 1}", (frequencies[g], frequencies[g]), g)
    c, d = spec.correct_to_lower(), spec.correct_to_upper()
    for g in range(k - 1):
        interval = (frequencies[g], frequencies[g + 1])
        for idx in range(c[g]):
            add_item(f"S{g + 1}.lo{idx + 1}", interval, g)
        for idx in range(d[g]):
            add_item(f"S{g + 1}.hi{idx + 1}", interval, g + 1)

    return FrequencyMappingSpace(
        items=items,
        anonymized=anonymized,
        observed=observed,
        intervals=intervals,
        true_partner_of=pairing,
    )


def chain_from_space(space: FrequencyMappingSpace) -> ChainSpec:
    """Detect chain structure in a mapping space and extract its sizes.

    Raises :class:`~repro.errors.NotAChainError` when some belief group
    admits more than two frequency groups, two non-successive groups, or
    the sizes are not chain-consistent.
    """
    partition = space.belief_groups()
    k = len(space.groups)
    if not partition.is_chain(k):
        raise NotAChainError("the belief groups do not form a chain")
    exclusive = [0] * k
    shared = [0] * (k - 1)
    for group in partition:
        g_lo, g_hi = group.group_range
        if g_hi - g_lo == 1:
            exclusive[g_lo] += len(group.items)
        else:
            shared[g_lo] += len(group.items)
    return ChainSpec(
        group_sizes=tuple(int(c) for c in space.groups.counts),
        exclusive_sizes=tuple(exclusive),
        shared_sizes=tuple(shared),
    )
