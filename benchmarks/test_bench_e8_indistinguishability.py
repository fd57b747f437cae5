"""E8 — Theorem 11 / Lemma 12: view indistinguishability and lift statistics.

Two parts:

* lift statistics (Lemma 12): the fraction of nodes lying on a short cycle
  shrinks as the lift order q grows;
* indistinguishability (Theorem 11 / Figure 2): for tree-like pairs
  ``(v0 ∈ S(c0), v1 ∈ S(c1))`` Algorithm 1 produces a view isomorphism —
  checked on lifted graphs at k = 1 and on tree unfoldings at k = 2 (where
  laptop-scale lifts cannot reach the required girth).
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.graphs.girth import nodes_with_tree_like_view
from repro.lowerbound.base_graph import build_base_graph
from repro.lowerbound.isomorphism import find_isomorphism, verify_view_isomorphism
from repro.lowerbound.lift import lift_cluster_graph
from repro.lowerbound.unfold import tree_view_instance

from _bench_utils import emit

LIFT_ORDERS = [1, 2, 4]
PAIRS_PER_CASE = 6


def run_e8():
    rows = []

    # Part 1: lift statistics + Theorem 11 at k = 1.
    base = build_base_graph(1, 4)
    for order in LIFT_ORDERS:
        lifted = lift_cluster_graph(base, order=order, seed=order) if order > 1 else base
        s0 = lifted.special_cluster(0)
        s1 = lifted.special_cluster(1)
        # Lemma 12 statistic: tree-likeness at radius 2 of the special
        # clusters (the whole graph would be expensive and less relevant).
        special = (s0 + s1)[:200]
        special_subgraph = lifted.graph
        from repro.graphs.girth import has_cycle_within_distance

        tree_like_count = sum(
            1 for v in special if not has_cycle_within_distance(special_subgraph, v, 2)
        )
        verified = 0
        attempted = 0
        for v0 in s0[:PAIRS_PER_CASE]:
            for v1 in s1[:PAIRS_PER_CASE]:
                attempted += 1
                phi = find_isomorphism(lifted, v0, v1)
                verified += verify_view_isomorphism(lifted, phi, v0, v1)
        rows.append(
            {
                "instance": f"k=1 lift q={order}",
                "n": lifted.n,
                "tree_like_radius2": round(tree_like_count / len(special), 3),
                "pairs_checked": attempted,
                "isomorphic_pairs": verified,
            }
        )

    # Part 2: Theorem 11 at k = 2 via tree unfoldings.
    gk2 = build_base_graph(2, 4)
    instance, root0, root1 = tree_view_instance(
        gk2, gk2.special_cluster(0)[0], gk2.special_cluster(1)[0]
    )
    phi = find_isomorphism(instance, root0, root1)
    rows.append(
        {
            "instance": "k=2 unfolded views",
            "n": instance.graph.number_of_nodes(),
            "tree_like_radius2": 1.0,
            "pairs_checked": 1,
            "isomorphic_pairs": int(verify_view_isomorphism(instance, phi, root0, root1)),
        }
    )
    return rows


def test_e8_views_are_indistinguishable(run_experiment):
    rows = run_experiment(run_e8)
    emit(
        format_table(
            rows,
            columns=["instance", "n", "tree_like_radius2", "pairs_checked", "isomorphic_pairs"],
            title="E8: Theorem 11 view indistinguishability + Lemma 12 lift statistics",
        )
    )
    # Every checked pair is isomorphic (Theorem 11).
    for row in rows:
        assert row["isomorphic_pairs"] == row["pairs_checked"]
    # Lemma 12: larger lifts are (weakly) more tree-like at radius 2.
    lift_rows = [r for r in rows if r["instance"].startswith("k=1")]
    fractions = [r["tree_like_radius2"] for r in lift_rows]
    assert fractions[-1] >= fractions[0]
