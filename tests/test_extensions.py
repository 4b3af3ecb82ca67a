"""Unit tests for the Section 8 extensions."""

import numpy as np
import pytest

from repro.beliefs import interval_belief, point_belief
from repro.core import o_estimate
from repro.errors import DomainMismatchError, GraphError, InfeasibleMatchingError
from repro.extensions import (
    AttributeKnowledge,
    Between,
    Exactly,
    IdentifiedBlock,
    OneOf,
    Relation,
    Unknown,
    build_relational_space,
    itemset_identifications,
    surely_cracked_items,
)
from repro.graph import ExplicitMappingSpace, space_from_frequencies
from repro.graph.blocks import _UnionFind
from repro.graph.permanent import enumerate_consistent_matchings


@pytest.fixture
def car_relation():
    """The paper's Section 8.1 example: age, ethnicity, car-model."""
    return Relation(
        attributes=("age", "ethnicity", "car_model"),
        rows={
            "John": (42, "Chinese", "Toyota"),
            "Mary": (33, "Greek", "Volvo"),
            "Bob": (27, "Chinese", "Toyota"),
            "Alice": (33, "Greek", "Honda"),
        },
    )


@pytest.fixture
def paper_knowledge():
    """John is Chinese owning a Toyota; Mary's age is in [30, 35]; Bob unknown."""
    return AttributeKnowledge(
        {
            "John": {"ethnicity": Exactly("Chinese"), "car_model": Exactly("Toyota")},
            "Mary": {"age": Between(30, 35)},
        }
    )


class TestPredicates:
    def test_exactly(self):
        assert Exactly("Toyota").matches("Toyota")
        assert not Exactly("Toyota").matches("Volvo")

    def test_one_of(self):
        predicate = OneOf(["Toyota", "Honda"])
        assert predicate.matches("Honda")
        assert not predicate.matches("Volvo")

    def test_between(self):
        assert Between(30, 35).matches(33)
        assert not Between(30, 35).matches(42)
        assert not Between(30, 35).matches("not-a-number")

    def test_unknown(self):
        assert Unknown().matches(object())
        assert Unknown() == Unknown()


class TestRelation:
    def test_value_lookup(self, car_relation):
        assert car_relation.value("John", "car_model") == "Toyota"

    def test_unknown_attribute(self, car_relation):
        from repro.errors import DataError

        with pytest.raises(DataError):
            car_relation.value("John", "height")

    def test_row_arity_checked(self):
        from repro.errors import DataError

        with pytest.raises(DataError):
            Relation(attributes=("a", "b"), rows={"x": (1,)})

    def test_individuals_sorted(self, car_relation):
        assert car_relation.individuals == ("Alice", "Bob", "John", "Mary")


class TestRelationalSpace:
    def test_edges_follow_knowledge(self, car_relation, paper_knowledge):
        space = build_relational_space(car_relation, paper_knowledge)
        john = space.item_index("John")
        # John matches the two Chinese/Toyota rows (his own and Bob's).
        assert space.outdegree(john) == 2
        bob = space.item_index("Bob")
        assert space.outdegree(bob) == 4  # nothing known about Bob

    def test_mary_age_range(self, car_relation, paper_knowledge):
        space = build_relational_space(car_relation, paper_knowledge)
        mary = space.item_index("Mary")
        # Rows with age in [30, 35]: Mary's and Alice's.
        assert space.outdegree(mary) == 2

    def test_oe_applies_unchanged(self, car_relation, paper_knowledge):
        space = build_relational_space(car_relation, paper_knowledge)
        result = o_estimate(space)
        assert 0.0 < result.value <= 4.0

    def test_inconsistent_knowledge_rejected(self, car_relation):
        knowledge = AttributeKnowledge({"John": {"car_model": Exactly("Lada")}})
        with pytest.raises(DomainMismatchError):
            build_relational_space(car_relation, knowledge)

    def test_exact_knowledge_of_unique_row_cracks_it(self, car_relation):
        knowledge = AttributeKnowledge(
            {
                "Alice": {"car_model": Exactly("Honda")},
            }
        )
        space = build_relational_space(car_relation, knowledge)
        assert "Alice" in surely_cracked_items(space)


class TestItemsetIdentifications:
    def test_figure_6b_blocks(self, two_blocks_space):
        blocks = itemset_identifications(two_blocks_space)
        block_items = {block.items for block in blocks}
        assert block_items == {(1, 2), (3, 4)}
        for block in blocks:
            assert not block.is_sure_crack

    def test_staircase_all_singletons(self, staircase_space):
        blocks = itemset_identifications(staircase_space)
        assert all(block.is_sure_crack for block in blocks)
        assert surely_cracked_items(staircase_space) == ["a", "b", "c", "d"]

    def test_blocks_partition_domain(self, bigmart_space_h):
        blocks = itemset_identifications(bigmart_space_h)
        items = [item for block in blocks for item in block.items]
        assert sorted(items) == sorted(bigmart_space_h.items)

    def test_point_valued_blocks_are_frequency_groups(self, bigmart_frequencies):
        space = space_from_frequencies(
            point_belief(bigmart_frequencies), bigmart_frequencies
        )
        blocks = itemset_identifications(space)
        block_items = {block.items for block in blocks}
        assert block_items == {(2,), (5,), (1, 3, 4, 6)}
        assert sorted(surely_cracked_items(space)) == [2, 5]

    def test_anonymized_side_matches(self, bigmart_frequencies):
        space = space_from_frequencies(
            point_belief(bigmart_frequencies), bigmart_frequencies
        )
        for block in itemset_identifications(space):
            # anonymized partners of the block's items are exactly the
            # block's anonymized side
            expected = sorted(
                (space.anonymized[space.true_partner(space.item_index(i))] for i in block.items),
                key=repr,
            )
            assert sorted(block.anonymized, key=repr) == expected

    def test_edge_guard(self, bigmart_space_h):
        with pytest.raises(GraphError):
            itemset_identifications(bigmart_space_h, max_edges=2)

    def test_block_len(self):
        block = IdentifiedBlock(items=(1, 2), anonymized=("a", "b"))
        assert len(block) == 2

    def test_infeasible_identification_names_hall_witness(self):
        # Items 0 and 1 both admit only anon 0: no consistent mapping.
        space = ExplicitMappingSpace(
            items=("a", "b", "c"),
            anonymized=("a'", "b'", "c'"),
            adjacency=[[0], [0], [0, 1, 2]],
            true_partner_of=[0, 1, 2],
        )
        for identify in (itemset_identifications, surely_cracked_items):
            with pytest.raises(InfeasibleMatchingError) as excinfo:
                identify(space)
            assert str(excinfo.value).startswith("Hall's condition fails")


def random_explicit_space(rng: np.random.Generator) -> ExplicitMappingSpace:
    """Up to 7 items, random density, the true edge kept 80% of the time."""
    n = int(rng.integers(1, 8))
    density = float(rng.uniform(0.15, 0.8))
    truth = rng.permutation(n).tolist()
    adjacency = []
    for i in range(n):
        row = {j for j in range(n) if rng.random() < density}
        if rng.random() < 0.8:
            row.add(truth[i])
        adjacency.append(sorted(row))
    return ExplicitMappingSpace(
        items=tuple(f"x{i}" for i in range(n)),
        anonymized=tuple(f"x{i}'" for i in range(n)),
        adjacency=adjacency,
        true_partner_of=truth,
    )


def random_interval_space(rng: np.random.Generator):
    """Up to 7 items over a few tied frequencies, intervals not always compliant."""
    n = int(rng.integers(1, 8))
    levels = rng.choice(np.arange(1, 10) / 10, size=int(rng.integers(1, 5)), replace=False)
    frequencies = {i: float(rng.choice(levels)) for i in range(n)}
    intervals = {}
    for i, f in frequencies.items():
        centre = f if rng.random() < 0.8 else float(rng.choice(levels))
        width = float(rng.choice([0.0, 0.1, 0.2, 0.35]))
        intervals[i] = (max(0.0, centre - width), min(1.0, centre + width))
    return space_from_frequencies(interval_belief(intervals), frequencies)


class TestIdentificationsAgainstBruteForce:
    """Blocks are the connected components of the edges some consistent
    mapping uses; sure cracks are the items that every mapping sends to
    their true partner."""

    @staticmethod
    def check(space):
        n = space.n
        matchings = list(enumerate_consistent_matchings(space))
        if not matchings:
            with pytest.raises(InfeasibleMatchingError):
                itemset_identifications(space)
            with pytest.raises(InfeasibleMatchingError):
                surely_cracked_items(space)
            return
        reachable = [{m[i] for m in matchings} for i in range(n)]
        uf = _UnionFind(2 * n)
        for i in range(n):
            for j in reachable[i]:
                uf.union(i, n + j)
        components: dict[int, tuple[set, set]] = {}
        for node in range(2 * n):
            items, anons = components.setdefault(uf.find(node), (set(), set()))
            if node < n:
                items.add(space.items[node])
            else:
                anons.add(space.anonymized[node - n])
        expected = {(frozenset(items), frozenset(anons)) for items, anons in components.values()}

        blocks = itemset_identifications(space)
        assert {(frozenset(b.items), frozenset(b.anonymized)) for b in blocks} == expected
        keys = [(len(b.items), tuple(map(repr, b.items))) for b in blocks]
        assert keys == sorted(keys)
        assert all(list(b.items) == sorted(b.items, key=repr) for b in blocks)
        sure = [
            space.items[i]
            for i in range(n)
            if reachable[i] == {space.true_partner(i)}
        ]
        assert surely_cracked_items(space) == sorted(sure, key=repr)

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_explicit_spaces(self, chunk):
        for seed in range(100 * chunk, 100 * (chunk + 1)):
            self.check(random_explicit_space(np.random.default_rng(seed)))

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_interval_spaces(self, chunk):
        for seed in range(100 * chunk, 100 * (chunk + 1)):
            self.check(random_interval_space(np.random.default_rng(seed)))
