"""Scaling to 10⁵–10⁶ nodes: array-first edge lists, one Experiment facade call.

This example stands up workloads far beyond what the networkx-based pipeline
could handle interactively and walks the full trial pipeline — generate →
network → run → validate → measure — through the single documented entry
point, :class:`repro.core.experiment.Experiment`, without ever materialising
a ``networkx.Graph`` **or a Python tuple per edge**:

* workload generation uses the direct generators, which return
  :class:`repro.graphs.edgelist.EdgeArrays` — flat int64 endpoint arrays
  with provenance metadata.  The million-node finale uses the
  **geometric-skip** ``fast_gnp_edges`` generator, which samples
  ``G(n, p)`` in ``O(n + m)`` and hands its numpy arrays straight through
  (the quadratic Gilbert twin would need hours at n = 10⁶);
* the facade builds the network through the vectorised numpy build
  (``Network.from_edge_arrays``, the one build every ``Network`` goes
  through), runs the seeded trials, validates through the problems' numpy
  kernels, and measures over numpy float64 reductions with tail quantiles;
* the trials themselves run with ``engine="auto"``: Luby MIS implements the
  :class:`repro.local.engine.ArrayAlgorithm` protocol, so the round loop
  executes as vectorised numpy operations over the edge arrays
  (:class:`repro.local.engine.ArrayEngine`) instead of per-node coroutines
  (pass ``--engine node`` to feel the difference: the n = 10⁶ finale's
  runner phase drops from ≈ 60 s to well under a second);
* per-phase wall-clock timings come back on the result
  (``run.timings``), so the breakdown below is the facade's own record.

Run with::

    PYTHONPATH=src python examples/scaling_to_100k.py            # full tour incl. n = 10⁶
    PYTHONPATH=src python examples/scaling_to_100k.py --no-million
    PYTHONPATH=src python examples/scaling_to_100k.py --engine node   # coroutine runner
"""

from __future__ import annotations

import argparse
import time

from repro.algorithms.mis.luby import LubyMIS
from repro.core import problems
from repro.core.experiment import Experiment
from repro.graphs import generators as gen


def run_workload(name: str, arrays, trials: int = 2, engine: str = "auto") -> None:
    print(f"\n=== {name}: n={arrays.n:,}, m={arrays.m:,} (engine={engine}) ===")

    result = Experiment(
        problem=problems.MIS,
        algorithm=LubyMIS,
        graphs={name: arrays},
        seeds=range(trials),
        id_scheme="sequential",
        max_rounds=20_000,
        engine=engine,
    ).run()

    run = result.run
    timings = run.timings
    print(f"  network build   {timings['network_s']:7.2f} s  (numpy arrays, no tuples)")
    print(f"  {trials} Luby trials   {timings['runner_s']:7.2f} s")
    print(f"  validation      {timings['validate_s']:7.2f} s  (verdicts: {list(run.verdicts)})")
    print(f"  numpy measure   {timings['measure_s']:7.2f} s")
    measurement = run.measurement
    quantiles = "  ".join(f"q{level:g}={value:.1f}" for level, value in measurement.node_quantiles)
    print(
        f"  rounds={[t.rounds for t in run.traces]}  "
        f"AVG_V={measurement.node_averaged:.2f}  "
        f"WORST={measurement.worst_case}  "
        f"|MIS|={len(run.traces[0].selected_nodes()):,}"
    )
    print(f"  node completion quantiles: {quantiles}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--no-million",
        action="store_true",
        help="skip the n = 10⁶ G(n, 10/n) finale (runs the 10⁵ workloads only)",
    )
    parser.add_argument(
        "--engine",
        choices=("node", "array", "auto"),
        default="auto",
        help="execution engine: auto (default) runs the vectorised array "
        "engine, node the per-node coroutine runner",
    )
    args = parser.parse_args()

    t0 = time.perf_counter()
    arrays = gen.cycle_edges(100_000)
    print(f"generated C_100000 endpoint arrays in {time.perf_counter() - t0:.2f} s")
    run_workload("cycle", arrays, engine=args.engine)

    t0 = time.perf_counter()
    arrays = gen.random_regular_edges(4, 50_000, seed=1)
    print(f"\ngenerated random 4-regular (n=50k) arrays in {time.perf_counter() - t0:.2f} s")
    run_workload("random-4-regular", arrays, engine=args.engine)

    if args.no_million:
        return

    # The million-node finale: G(n, 10/n) through the geometric-skip
    # generator, endpoint arrays end to end.  With engine="auto" the round
    # loop itself runs vectorised over the edge arrays, so the whole
    # generate → network → run → validate → measure pipeline at n = 10⁶ is
    # a matter of seconds — no phase is per-node Python any more.
    big_n = 1_000_000
    t0 = time.perf_counter()
    arrays = gen.fast_gnp_edges(big_n, 10.0 / big_n, seed=1)
    print(
        f"\ngenerated G(n=10⁶, p=10/n) endpoint arrays in {time.perf_counter() - t0:.2f} s "
        f"(geometric skip; the Gilbert loop would flip {big_n * (big_n - 1) // 2:,} coins)"
    )
    run_workload("gnp-million", arrays, trials=1, engine=args.engine)


if __name__ == "__main__":
    main()
