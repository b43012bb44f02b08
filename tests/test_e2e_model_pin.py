"""Exact pins of the simulated model: every cell of the four e2e
benchmark workloads (``benchmarks/e2e/workloads.py``, imported read-only)
at ``smoke`` size, seeds 0 and 1.

Each cell's ``CellRun.sim`` — after the workload's own ``verify``, which
adds ``redist-churn``'s grid hash — is pinned as its label, its
simulated end time as ``float.hex()`` and a sha256 prefix of the whole
record with every float written as ``.hex()``.  The kernel event counts
live in their own table and their own assertion, so a simulator-only
change (same model, fewer events) updates ``N_EVENTS`` and nothing
else.  A change that moves the model updates ``MODEL_PIN`` in the same
commit as Figures 4-7 and lists the cells that moved.
"""

import hashlib
import importlib.util
import json
import pathlib
import sys

import pytest

from repro.campaign.results import jsonable

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"


def _workloads():
    name = "e2e_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, _PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve their module
        spec.loader.exec_module(module)
    return sys.modules[name].WORKLOADS


def _hexed(x):
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _hexed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hexed(v) for v in x]
    return x


#: (workload, seed) -> one (label, wall_time.hex(), record sha256[:16])
#: per cell, recorded before sparse rows moved into CSR slabs
MODEL_PIN = {
    ('removal-256', 0): [
        ('removal:16', '0x1.646d67e267692p-3', '817942a20fa8aaab'),
        ('removal:8', '0x1.b005e914c8ab3p-4', 'b89d1217d8a28a6d'),
    ],
    ('removal-256', 1): [
        ('removal:16', '0x1.6226afb8c1dd3p-3', '7b038f07b291b17d'),
        ('removal:8', '0x1.b90c06c9059dfp-4', '4882c110be1390dd'),
    ],
    ('fig4-grid', 0): [
        ('fig4:jacobi:2:dedicated', '0x1.e7fba2d9d7631p+0', '0a4f51fbfa0813eb'),
        ('fig4:jacobi:2:noadapt', '0x1.f0a954f588776p+1', '55ddccc9e1b22dec'),
        ('fig4:jacobi:2:dynmpi', '0x1.8365c5271dafcp+1', 'fb70d52e8cc89650'),
        ('fig4:jacobi:4:dedicated', '0x1.053350e1633c8p+0', 'ced02326279907e7'),
        ('fig4:jacobi:4:noadapt', '0x1.e2abec8d023adp+0', 'a30f62106a93d71c'),
        ('fig4:jacobi:4:dynmpi', '0x1.67203f7708822p+0', '19f90e9e6dfcea17'),
        ('fig4:jacobi:8:dedicated', '0x1.1fa659af02912p-1', 'e05714d997bd7920'),
        ('fig4:jacobi:8:noadapt', '0x1.0e503692e9a1bp+0', '73dc4471ce1203c3'),
        ('fig4:jacobi:8:dynmpi', '0x1.a075a88b30fa8p-1', '32ccf198dcdc756b'),
    ],
    ('fig4-grid', 1): [
        ('fig4:jacobi:2:dedicated', '0x1.e7fba2d9d7631p+0', '0a4f51fbfa0813eb'),
        ('fig4:jacobi:2:noadapt', '0x1.ef44e4ff8d50dp+1', 'b1bc4f2422b5af48'),
        ('fig4:jacobi:2:dynmpi', '0x1.8277ae3a3b160p+1', '45b9943dd9dd41eb'),
        ('fig4:jacobi:4:dedicated', '0x1.053350e1633c8p+0', 'ced02326279907e7'),
        ('fig4:jacobi:4:noadapt', '0x1.e094c6b321663p+0', '00336e35fd496590'),
        ('fig4:jacobi:4:dynmpi', '0x1.636c0109a0706p+0', '9064e447d1f5bc09'),
        ('fig4:jacobi:8:dedicated', '0x1.1fa659af02912p-1', 'e05714d997bd7920'),
        ('fig4:jacobi:8:noadapt', '0x1.0e36e994b2d75p+0', '79ce3e38ea675566'),
        ('fig4:jacobi:8:dynmpi', '0x1.933b157bc5152p-1', '25ee4d4cbd39987b'),
    ],
    ('farm-64', 0): [
        ('farm:static:churn0', '0x1.75f06ba731cf6p-4', 'a49469845cbe8f42'),
        ('farm:self:churn0', '0x1.861c88bb94b12p-4', '48b3e1b7c49eda6f'),
        ('farm:guided:churn0', '0x1.68428bb826f18p-4', '5ca1506070a3065d'),
        ('farm:factoring:churn0', '0x1.5d634e6a2c80fp-4', '849bca31636e20c7'),
        ('farm:rma:churn0', '0x1.6b24b5b0c041cp-4', '355ede6b41d4224a'),
        ('farm:static:churn1', '0x1.411362aabc7ebp-3', 'efb9dc5e650b26f9'),
        ('farm:self:churn1', '0x1.a2387327d9a8dp-4', '3451ca6cb6b4663d'),
        ('farm:guided:churn1', '0x1.7a529d6cf407cp-4', '9f77312b9adc67c0'),
        ('farm:factoring:churn1', '0x1.73622484bc0c2p-4', '567661d5a6b9f903'),
        ('farm:rma:churn1', '0x1.9ec14ddfff27bp-4', 'ad9327da54df9f00'),
    ],
    ('farm-64', 1): [
        ('farm:static:churn0', '0x1.75f06ba731cf6p-4', '2991c772923a138e'),
        ('farm:self:churn0', '0x1.861c88bb94b12p-4', 'c1f94eaa137190c9'),
        ('farm:guided:churn0', '0x1.68428bb826f18p-4', '9037152152dff717'),
        ('farm:factoring:churn0', '0x1.5d634e6a2c80fp-4', 'f3b1e2dbaffa6d61'),
        ('farm:rma:churn0', '0x1.6b24b5b0c041cp-4', 'ef45b51913e7b25e'),
        ('farm:static:churn1', '0x1.411362aabc7ebp-3', '3c2770587b58488b'),
        ('farm:self:churn1', '0x1.a2387327d9a8dp-4', 'a59ebda4aafaa1fc'),
        ('farm:guided:churn1', '0x1.7a529d6cf407cp-4', 'c439580a034e5cf4'),
        ('farm:factoring:churn1', '0x1.72906d6d632a0p-4', '05cb03bbc10e6f80'),
        ('farm:rma:churn1', '0x1.9ec14ddfff27bp-4', '81d25aa09847934d'),
    ],
    ('redist-churn', 0): [
        ('churn', '0x1.680c4b9d954bcp+0', '207f9d5d0314c2b7'),
    ],
    ('redist-churn', 1): [
        ('churn', '0x1.5324991ec68dap+0', 'b3d2b09dfd8b7c11'),
    ],
}

#: (workload, seed) -> ``sim.n_events`` per cell
N_EVENTS = {
    ('removal-256', 0): (16032, 5677),
    ('removal-256', 1): (16076, 5697),
    ('fig4-grid', 0): (1448, 2096, 5074, 4098, 4379, 10213, 9216, 9310, 24200),
    ('fig4-grid', 1): (1449, 2098, 5075, 4099, 4384, 10210, 9216, 9312, 24216),
    ('farm-64', 0): (851, 7029, 3323, 2459, 8388, 1186, 7083, 3218, 2313, 8437),
    ('farm-64', 1): (851, 7029, 3323, 2459, 8388, 1186, 7083, 3218, 2312, 8437),
    ('redist-churn', 0): (28247,),
    ('redist-churn', 1): (27625,),
}


@pytest.mark.parametrize("key", sorted(MODEL_PIN), ids=lambda k: f"{k[0]}:{k[1]}")
def test_e2e_model_pin(key):
    name, seed = key
    w = _workloads()[name]
    runs = [cell.run(False, False) for cell in w.setup(seed, "smoke")]
    checks = w.verify(runs, seed, "smoke", False)
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]
    sims = [_hexed(jsonable(r.sim)) for r in runs]
    events = tuple(s.pop("n_events") for s in sims)
    got = [(s["label"], s["wall_time"],
            hashlib.sha256(json.dumps(s, sort_keys=True).encode()).hexdigest()[:16])
           for s in sims]
    assert got == MODEL_PIN[key]
    assert events == N_EVENTS[key]
