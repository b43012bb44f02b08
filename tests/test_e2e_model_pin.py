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
#: per cell, re-captured when isend and irecv began charging the calling
#: rank (before that: recorded before sparse rows moved into CSR slabs)
MODEL_PIN = {
    ('removal-256', 0): [
        ('removal:16', '0x1.826a00b3119e5p-4', 'a48778d5bcf30cce'),
        ('removal:8', '0x1.58f869b3a2daap-4', 'b49b5057f95795d2'),
    ],
    ('removal-256', 1): [
        ('removal:16', '0x1.d5d1e7772b696p-4', '2056e0d0fed8be41'),
        ('removal:8', '0x1.4ff58bb2d1238p-4', 'ac9c0f9e67b9361d'),
    ],
    ('fig4-grid', 0): [
        ('fig4:jacobi:2:dedicated', '0x1.e7fba2d9d7631p+0', '0a4f51fbfa0813eb'),
        ('fig4:jacobi:2:noadapt', '0x1.f82ca8d03c9ddp+1', '0fd45521364d1194'),
        ('fig4:jacobi:2:dynmpi', '0x1.8c1ddba1be484p+1', '156ba21904869afd'),
        ('fig4:jacobi:4:dedicated', '0x1.053350e1633c8p+0', 'ced02326279907e7'),
        ('fig4:jacobi:4:noadapt', '0x1.ebcfe386811afp+0', '429ceee77478e78c'),
        ('fig4:jacobi:4:dynmpi', '0x1.6952a4eab1cd0p+0', '849b69560f096d06'),
        ('fig4:jacobi:8:dedicated', '0x1.1fa659af02912p-1', 'e05714d997bd7920'),
        ('fig4:jacobi:8:noadapt', '0x1.10a3a39a4fa1cp+0', '27716d4883ef05b0'),
        ('fig4:jacobi:8:dynmpi', '0x1.a44e99c0da49ap-1', '15b83ac5dffba948'),
    ],
    ('fig4-grid', 1): [
        ('fig4:jacobi:2:dedicated', '0x1.e7fba2d9d7631p+0', '0a4f51fbfa0813eb'),
        ('fig4:jacobi:2:noadapt', '0x1.f316d6957d4abp+1', '8587d904dba4f593'),
        ('fig4:jacobi:2:dynmpi', '0x1.897f723b999d7p+1', '566dc5f7a0ca1919'),
        ('fig4:jacobi:4:dedicated', '0x1.053350e1633c8p+0', 'ced02326279907e7'),
        ('fig4:jacobi:4:noadapt', '0x1.014accce4f9f8p+1', '7dc5f53cda2677c0'),
        ('fig4:jacobi:4:dynmpi', '0x1.62c8949a12ca6p+0', '8c4bf44a97016656'),
        ('fig4:jacobi:8:dedicated', '0x1.1fa659af02912p-1', 'e05714d997bd7920'),
        ('fig4:jacobi:8:noadapt', '0x1.0f9358b8f5d8dp+0', 'db0882a1a68ee8ce'),
        ('fig4:jacobi:8:dynmpi', '0x1.96bb54bb40fc8p-1', 'f9424bf02b434677'),
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
        ('churn', '0x1.4075a5455d674p+0', '2b56b7ae32ba5c12'),
    ],
    ('redist-churn', 1): [
        ('churn', '0x1.48a73886bc8e6p+0', 'b2bc5074df2486ae'),
    ],
}

#: (workload, seed) -> ``sim.n_events`` per cell
N_EVENTS = {
    ('removal-256', 0): (13516, 4874),
    ('removal-256', 1): (13697, 4890),
    ('fig4-grid', 0): (1448, 2112, 5059, 3922, 4213, 9807, 8680, 8775, 22953),
    ('fig4-grid', 1): (1449, 2107, 5057, 3923, 4231, 9801, 8680, 8776, 22951),
    ('farm-64', 0): (851, 7029, 3323, 2459, 7888, 1186, 7083, 3218, 2313, 7939),
    ('farm-64', 1): (851, 7029, 3323, 2459, 7888, 1186, 7083, 3218, 2312, 7939),
    ('redist-churn', 0): (26748,),
    ('redist-churn', 1): (26666,),
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
