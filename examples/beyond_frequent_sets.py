"""Section 8 of the paper: beyond frequent sets.

Two extensions on the paper's own examples:

1. **Relational release (Section 8.1).**  A clinical-trial-style relation
   (age, ethnicity, car-model in the paper's example) is released with
   names replaced by row numbers.  The hacker holds scattered facts —
   "John is Chinese owning a Toyota", "Mary's age is between 30 and 35",
   nothing about Bob.  We build the consistent-mapping graph from those
   facts and re-apply every tool: O-estimate, propagation, exact
   expectation.
2. **Itemset identities (Section 8.2).**  Even when no single item can
   be cracked, whole *sets* may be indisputably identified (Figure 6(b):
   {1',2'} maps onto {1,2}).  We compute all forced identifications.

Run with::

    python examples/beyond_frequent_sets.py
"""

from __future__ import annotations

from repro import ExplicitMappingSpace, o_estimate
from repro.extensions import (
    AttributeKnowledge,
    Between,
    Exactly,
    Relation,
    build_relational_space,
    itemset_identifications,
    surely_cracked_items,
)
from repro.graph import expected_cracks_exact


def relational_example() -> None:
    relation = Relation(
        attributes=("age", "ethnicity", "car_model"),
        rows={
            "John": (42, "Chinese", "Toyota"),
            "Mary": (33, "Greek", "Volvo"),
            "Bob": (27, "Chinese", "Toyota"),
            "Alice": (33, "Greek", "Honda"),
            "Wei": (51, "Chinese", "Honda"),
            "Nina": (29, "Greek", "Toyota"),
        },
    )
    knowledge = AttributeKnowledge(
        {
            "John": {"ethnicity": Exactly("Chinese"), "car_model": Exactly("Toyota")},
            "Mary": {"age": Between(30, 35)},
            "Wei": {"age": Between(45, 60)},
        }
    )

    space = build_relational_space(relation, knowledge)
    print("Section 8.1 — anonymized relation under scattered facts")
    print(f"  individuals: {', '.join(map(str, relation.individuals))}")
    for item in relation.individuals:
        index = space.item_index(item)
        print(f"  {item:>6}: consistent with {space.outdegree(index)} released rows")

    estimate = o_estimate(space)
    exact = expected_cracks_exact(space)
    print(f"  O-estimate = {estimate.value:.2f}, exact = {exact:.2f} of {space.n}")
    certain = surely_cracked_items(space)
    if certain:
        print(f"  identified with certainty: {', '.join(map(str, certain))}")


def itemset_example() -> None:
    # Figure 6(b): nothing separates 1' from 2', or 3' from 4', yet the
    # pairs are pinned as sets.
    space = ExplicitMappingSpace(
        items=(1, 2, 3, 4),
        anonymized=("1'", "2'", "3'", "4'"),
        adjacency=[[0, 1], [0, 1], [1, 2, 3], [2, 3]],
        true_partner_of=[0, 1, 2, 3],
    )
    print("\nSection 8.2 — forced itemset identifications (Figure 6(b))")
    for block in itemset_identifications(space):
        kind = "SURE CRACK" if block.is_sure_crack else "forced set"
        print(f"  {kind}: {set(block.anonymized)} -> {set(block.items)}")
    print(
        "  (the hacker cannot crack any single item, but learns both "
        "two-element identities with certainty)"
    )


if __name__ == "__main__":
    relational_example()
    itemset_example()
