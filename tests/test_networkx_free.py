"""The simulator's entry points run without networkx.

networkx serves only the reference validators, the networkx generators and
the lower-bound constructions, and those import it where they run.  An
``Experiment``, a checkpointed sweep, a service job and the validation of a
``Network`` must therefore work in an interpreter that cannot import
networkx, and leave it unloaded.  The check runs in a fresh interpreter,
because this test process has networkx loaded already.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r'''
import importlib
import os
import sys
import tempfile


class RefuseNetworkx:
    """A meta path finder that refuses networkx, as if it were not installed."""

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "networkx":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, RefuseNetworkx())

for module in ("repro", "repro.core.experiment", "repro.analysis", "repro.algorithms",
               "repro.service", "repro.service.cli", "repro.service.api"):
    importlib.import_module(module)

from repro.algorithms.mis.luby import LubyMIS
from repro.analysis.sweep import sweep
from repro.core import problems
from repro.core.experiment import Experiment
from repro.graphs.edgelist import EdgeArrays
from repro.graphs.generators import cycle_edges, fast_gnp_edges
from repro.local.network import Network
from repro.service import JobQueue, ResultStore, SweepSpec
from repro.service.scheduler import run_job

graph = fast_gnp_edges(300, 8 / 299, seed=1)
for engine in ("auto", "node"):
    result = Experiment(
        problem=problems.MIS, algorithm=LubyMIS, graphs=graph, seeds=range(2),
        engine=engine,
    ).run()
    assert result.ok, engine

with tempfile.TemporaryDirectory() as tmp:
    points = sweep(
        "n", [8, 10], cycle_edges,
        {"luby": (lambda net: LubyMIS(), lambda net: problems.MIS)},
        trials=2, checkpoint=os.path.join(tmp, "sweep.db"),
    )
    assert len(points) == 2, points

    db_path = os.path.join(tmp, "service.db")
    spec = SweepSpec(parameter="n", values=(8, 10), family="cycle",
                     algorithms=("luby_mis", "randomized_matching"), trials=2, seed=3)
    with ResultStore(db_path) as store:
        queue = JobQueue(store)
        job_id = queue.submit(spec)
        assert queue.claim().id == job_id
    assert run_job(db_path, job_id) == "done"
    with ResultStore(db_path) as store:
        assert len(store.points(job_id)) == 2 * 2

network = Network.from_edge_arrays(EdgeArrays.from_pairs(3, [(0, 1), (1, 2)]))
assert problems.MIS.validate(network, {0: True, 1: False, 2: True})
assert not problems.MIS.validate(network, {0: True, 1: True, 2: False})

assert "networkx" not in sys.modules
print("networkx-free: ok")
'''


def test_entry_points_run_with_networkx_refused(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=str(tmp_path),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "networkx-free: ok"
