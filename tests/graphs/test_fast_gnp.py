"""Statistical tests for the geometric-skip Erdős–Rényi generator.

``fast_gnp_edges`` deliberately breaks the repo's stream-exactness rule: it
samples the same G(n, p) distribution as the quadratic Gilbert twin
(``erdos_renyi_edges``) through its own documented numpy-PCG64 seed
schedule, so no seed pairing makes the two produce the same edge list.
What can — and must — be pinned instead:

* **seed determinism**: the same ``(n, p, seed)`` triple always yields the
  same edge list, different seeds yield different lists;
* **structural sanity**: canonical ``u < v`` edges, no duplicates, all
  endpoints in range;
* **edge counts** within Chernoff-style bounds of ``n·(n−1)/2·p`` at
  n ∈ {10³, 10⁴} (the fixed seeds make these assertions deterministic — the
  bound documents how far a regression would have to drift to trip them);
* **degree distribution** agreement with the Gilbert reference via a
  fixed-seed two-sample chi-square on pooled degree histograms.

The chi-square statistic is computed by hand (no scipy dependency): with
both samples drawn from the same Binomial(n−1, p) degree law, the statistic
is asymptotically χ²(df) and the asserted threshold is far above the 99.9 %
quantile for the degrees of freedom in play.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.edgelist import EdgeArrays
from repro.local.network import Network


def _degrees(n: int, edges) -> Counter:
    counts = Counter()
    for u, v in edges:
        counts[u] += 1
        counts[v] += 1
    histogram = Counter(counts.values())
    histogram[0] = n - len(counts)
    return histogram


class TestDeterminismAndShape:
    def test_same_seed_same_edges(self):
        for seed in (0, 1, 17):
            a = gen.fast_gnp_edges(2000, 0.004, seed=seed)
            b = gen.fast_gnp_edges(2000, 0.004, seed=seed)
            assert a.as_pairs() == b.as_pairs()

    def test_different_seeds_differ(self):
        a = gen.fast_gnp_edges(2000, 0.004, seed=0)
        b = gen.fast_gnp_edges(2000, 0.004, seed=1)
        assert a.as_pairs() != b.as_pairs()

    def test_edges_canonical_unique_in_range(self):
        arrays = gen.fast_gnp_edges(3000, 0.003, seed=5)
        n, edges = arrays.n, arrays.as_pairs()
        assert n == 3000
        assert all(0 <= u < v < n for u, v in edges)
        assert len(set(edges)) == len(edges)
        assert arrays.meta == {"family": "fast_gnp", "n": 3000, "p": 0.003, "seed": 5}

    def test_degenerate_parameters(self):
        for n, p in ((1, 0.5), (7, 0.0)):
            empty = gen.fast_gnp_edges(n, p)
            assert (empty.n, empty.m) == (n, 0)
        full = gen.fast_gnp_edges(4, 1.0)
        assert sorted(full.as_pairs()) == gen.complete_edges(4).as_pairs()
        with pytest.raises(ValueError):
            gen.fast_gnp_edges(0, 0.5)
        with pytest.raises(ValueError):
            gen.fast_gnp_edges(10, 1.5)

    def test_feeds_network_from_edge_arrays(self):
        arrays = gen.fast_gnp_edges(500, 10 / 499, seed=3)
        network = Network.from_edge_arrays(arrays)
        assert network.n == 500
        assert network.m == arrays.m
        # Sorted CSR rows double as a parallel-edge / self-loop audit.
        assert all(network.degree(v) >= 0 for v in network.vertices)


class TestEdgeCountChernoff:
    @pytest.mark.parametrize("n", [1_000, 10_000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edge_count_within_chernoff_band(self, n, seed):
        """|m − μ| ≤ 6√μ with μ = n(n−1)/2 · p.

        A Chernoff/Bernstein bound puts the probability of a 6σ deviation of
        a Binomial(n(n−1)/2, p) count below 1e-8 per draw; the fixed seeds
        make the test deterministic, and a generator regression (wrong gap
        law, off-by-one in the skip walk) shifts μ by Θ(μ) ≫ 6√μ.
        """
        p = 10.0 / (n - 1)
        m = gen.fast_gnp_edges(n, p, seed=seed).m
        mu = n * (n - 1) / 2 * p
        assert abs(m - mu) <= 6.0 * math.sqrt(mu)

    def test_gilbert_reference_same_band(self):
        """The stream-exact Gilbert twin lands in the same band (sanity)."""
        n = 1_000
        m = gen.erdos_renyi_edges(n, 10.0, seed=0).m
        mu = n * 10.0 / 2
        assert abs(m - mu) <= 6.0 * math.sqrt(mu)


class TestDegreeDistributionChiSquare:
    def test_degree_histogram_matches_gilbert_reference(self):
        """Fixed-seed two-sample chi-square on pooled degree histograms.

        Both generators draw G(n, p) with expected degree 8; degrees are
        Binomial(n−1, p).  Histogram cells below an expected pooled count of
        ~8 are merged into the tails, the standard two-sample statistic

            X² = Σ_cells (√(N₂/N₁)·a_i − √(N₁/N₂)·b_i)² / (a_i + b_i)

        is computed, and asserted far below the blow-up a distributional
        regression (e.g. sampling gaps with the wrong success probability)
        produces.  With ~15 cells the 99.9 % quantile of χ² is ≈ 37.7; the
        fixed seeds currently give a statistic well under 20.
        """
        n = 4_000
        expected_degree = 8.0
        p = expected_degree / (n - 1)
        fast_edges = gen.fast_gnp_edges(n, p, seed=12).as_pairs()
        gilbert_edges = gen.erdos_renyi_edges(n, expected_degree, seed=12).as_pairs()

        fast_hist = _degrees(n, fast_edges)
        gilbert_hist = _degrees(n, gilbert_edges)

        # Merge sparse bins: degrees 0..2 and 15+ pool into tail cells so
        # every cell's pooled expected count is comfortably ≥ 8.
        def _binned(hist: Counter) -> list:
            cells = [0] * 14
            for degree, count in hist.items():
                cells[min(max(degree - 2, 0), 13)] += count
            return cells

        a = _binned(fast_hist)
        b = _binned(gilbert_hist)
        total_a = sum(a)
        total_b = sum(b)
        assert total_a == total_b == n

        statistic = 0.0
        df = 0
        for ai, bi in zip(a, b):
            if ai + bi == 0:
                continue
            df += 1
            scaled = math.sqrt(total_b / total_a) * ai - math.sqrt(total_a / total_b) * bi
            statistic += scaled * scaled / (ai + bi)
        assert df >= 10
        # 99.9% quantile of chi-square with df ≤ 14 is < 38; a wrong gap law
        # sends the statistic into the hundreds.
        assert statistic < 38.0, f"chi-square {statistic:.1f} over {df} cells"


class TestNativeArrayMode:
    """The skip walk's numpy arrays are handed straight through, and the
    ``(n, edges)`` pair is refused."""

    def test_as_arrays_false_is_refused(self):
        assert gen.fast_gnp_edges(50, 0.1, seed=3, as_arrays=True).n == 50
        with pytest.raises(ValueError, match="EdgeArrays only"):
            gen.fast_gnp_edges(50, 0.1, seed=3, as_arrays=False)

    @pytest.mark.parametrize("n,p,seed", [(500, 0.02, 1), (1000, 0.004, 9), (50, 0.5, 3)])
    def test_arrays_list_canonical_pairs_in_skip_walk_order(self, n, p, seed):
        arrays = gen.fast_gnp_edges(n, p, seed=seed)
        src, dst = arrays.src, arrays.dst
        assert src.dtype == dst.dtype == np.int64
        assert not (src.flags.writeable or dst.flags.writeable)
        assert bool(np.all(src < dst))
        # Pair (w, v), w < v, has index v(v-1)/2 + w: the walk emits the
        # indices strictly increasing, larger endpoint first.
        pair_index = dst * (dst - 1) // 2 + src
        assert bool(np.all(np.diff(pair_index) > 0))
        assert arrays.meta == {"family": "fast_gnp", "n": n, "p": p, "seed": seed}

    def test_arrays_feed_the_numpy_csr_network_build(self):
        arrays = gen.fast_gnp_edges(800, 0.01, seed=4)
        via_arrays = Network.from_edge_arrays(arrays)
        via_pairs = Network.from_edge_arrays(
            EdgeArrays.from_pairs(arrays.n, arrays.as_pairs())
        )
        assert via_arrays.edges == tuple(sorted(arrays.as_pairs()))
        assert via_arrays.edges == via_pairs.edges
        assert via_arrays.identifiers == via_pairs.identifiers
        assert [via_arrays.neighbors(v) for v in range(20)] == [
            via_pairs.neighbors(v) for v in range(20)
        ]

    def test_degenerate_parameters_in_array_mode(self):
        assert gen.fast_gnp_edges(1, 0.5).m == 0
        assert gen.fast_gnp_edges(10, 0.0).m == 0
        full = gen.fast_gnp_edges(6, 1.0)
        assert full.m == 15  # K_6, delegated to complete_edges

    def test_dense_delegation_keeps_fast_gnp_provenance(self):
        full = gen.fast_gnp_edges(6, 1.0, seed=3)
        assert full.m == 15
        assert full.meta["family"] == "fast_gnp"
        assert full.meta["p"] == 1.0 and full.meta["seed"] == 3
