"""Harness smoke test — run explicitly, tier-1 does not collect it::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

It keeps the benchmark itself from rotting: the smoke-sized protocol
must run end to end, report every declared metric, and the pinned
Figure 4 recipe must still equal ``run_figure4``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv, env=None):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          capture_output=True, text=True, env=env)


def test_smoke_protocol_reports_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    proc = _run("--smoke", "--reps", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, result in doc["workloads"].items():
        assert result["failed"] == 0, (name, result["failures"])
        assert set(result["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(result["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert result["per_layer"]["trace.coverage"] >= 0.90, name
    removal = doc["workloads"]["removal-256"]["per_layer"]
    assert removal["core.runtime.drops"] == 1   # the companion is not counted
    assert doc["workloads"]["farm-64"]["per_layer"]["mpi.collectives.calls"] == 0
    assert doc["provenance"]["seed"] == 0


def test_driver_contract_line():
    proc = _run("--smoke", "--workload", "farm-64", "--seed", "3",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_environment_guard():
    proc = _run("--smoke", env={**os.environ, "DYNMPI_OBS": "1"})
    assert proc.returncode == 2
    assert "DYNMPI_OBS" in proc.stderr


def test_fig4_recipe_matches_run_figure4():
    from repro.experiments import run_figure4
    from workloads import FIG4_SCALE, WORKLOADS, _fig4_rows

    cells = WORKLOADS["fig4-grid"].setup(5, "smoke")
    rows = _fig4_rows([cell.run(False, False) for cell in cells])
    for ref in run_figure4(apps=("jacobi",), scale=FIG4_SCALE["smoke"], seed=5):
        ours = rows[(ref.app, ref.n_nodes)]
        assert (ours["dedicated"], ours["noadapt"], ours["dynmpi"]) == (
            ref.t_dedicated, ref.t_noadapt, ref.t_dynmpi)


def test_layer_table():
    from layers import LAYERS, LAYER_TABLE, layer_of

    assert {layer for _, layer in LAYER_TABLE} <= set(LAYERS)
    assert layer_of("/x/src/repro/simcluster/kernel_reference.py") == "simcluster.kernel"
    assert layer_of("/x/src/repro/mpi/group.py") == "mpi.comm"
    assert layer_of("/x/src/repro/core/commcost.py") == "core.runtime"
    assert layer_of("/x/src/repro/_intervals.py") == "core.redistribute"
    assert layer_of("/x/src/repro/config.py") == "other"
    assert layer_of("/usr/lib/python3/site-packages/numpy/_core/fromnumeric.py") is None
