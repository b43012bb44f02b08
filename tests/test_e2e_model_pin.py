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
#: per cell, re-captured when the clock became integer nanoseconds
#: (before that: when isend and irecv began charging the calling rank)
MODEL_PIN = {
    ('removal-256', 0): [
        ('removal:16', '0x1.826a0c6bd1bddp-4', 'f554e19769c09496'),
        ('removal:8', '0x1.58f8681751bc7p-4', '000bd94568156402'),
    ],
    ('removal-256', 1): [
        ('removal:16', '0x1.d5d1f32feb88bp-4', 'b600c45d822fd07a'),
        ('removal:8', '0x1.4ff58a1680056p-4', '775146f649f5aee8'),
    ],
    ('fig4-grid', 0): [
        ('fig4:jacobi:2:dedicated', '0x1.e7fba2e7e5c6bp+0', '1d3a3f16711e8cf7'),
        ('fig4:jacobi:2:noadapt', '0x1.f82ca883dc06fp+1', '5f39b6e8ef448d6b'),
        ('fig4:jacobi:2:dynmpi', '0x1.8c1de142e1b82p+1', '8cf033c073f997bf'),
        ('fig4:jacobi:4:dedicated', '0x1.05335148138c7p+0', '1dee83df3141342a'),
        ('fig4:jacobi:4:noadapt', '0x1.ebcfe44c78dd1p+0', 'dadef47588a30411'),
        ('fig4:jacobi:4:dynmpi', '0x1.6952ab10c2f97p+0', '0b9df86520b38f62'),
        ('fig4:jacobi:8:dedicated', '0x1.1fa6597089aaep-1', '25736369f864298d'),
        ('fig4:jacobi:8:noadapt', '0x1.10a3a38019b83p+0', 'b294ca1ea8769776'),
        ('fig4:jacobi:8:dynmpi', '0x1.a44e9f52f4a23p-1', '3c6f54cff992f01a'),
    ],
    ('fig4-grid', 1): [
        ('fig4:jacobi:2:dedicated', '0x1.e7fba2e7e5c6bp+0', '1d3a3f16711e8cf7'),
        ('fig4:jacobi:2:noadapt', '0x1.f316d64e5e657p+1', 'e8791ff3a1a1228f'),
        ('fig4:jacobi:2:dynmpi', '0x1.897f77d1c01e1p+1', 'd64005caecd0e985'),
        ('fig4:jacobi:4:dedicated', '0x1.05335148138c7p+0', '1dee83df3141342a'),
        ('fig4:jacobi:4:noadapt', '0x1.014acd2dc5b60p+1', 'fec3bcfec9ee9128'),
        ('fig4:jacobi:4:dynmpi', '0x1.62c89ab8fe63dp+0', 'a541c523f948b8c5'),
        ('fig4:jacobi:8:dedicated', '0x1.1fa6597089aaep-1', '25736369f864298d'),
        ('fig4:jacobi:8:noadapt', '0x1.0f93588893732p+0', '3a57a4de5d12df4c'),
        ('fig4:jacobi:8:dynmpi', '0x1.96bb5a44d62f0p-1', '67b3906c51812a74'),
    ],
    ('farm-64', 0): [
        ('farm:static:churn0', '0x1.75f06ba731cc7p-4', '85d8f7990228a17b'),
        ('farm:self:churn0', '0x1.861c88bb94affp-4', '7c32438022de79ac'),
        ('farm:guided:churn0', '0x1.68428bb826efdp-4', '07925c12d51cbbb0'),
        ('farm:factoring:churn0', '0x1.5d634e6a2c7fdp-4', 'ff8d3c0ee0944a93'),
        ('farm:rma:churn0', '0x1.6b24b5b0c0409p-4', 'acab92c9581828c8'),
        ('farm:static:churn1', '0x1.411362aabc791p-3', 'f78e172b642e660c'),
        ('farm:self:churn1', '0x1.a2387327d9a79p-4', 'b09ebfc589d17491'),
        ('farm:guided:churn1', '0x1.7a529d6cf4056p-4', '4d36b50083636751'),
        ('farm:factoring:churn1', '0x1.73622484bc095p-4', '9fd5a1b1732fa7ef'),
        ('farm:rma:churn1', '0x1.9ec14ddfff260p-4', '4e48064362225035'),
    ],
    ('farm-64', 1): [
        ('farm:static:churn0', '0x1.75f06ba731cc7p-4', '2d89465b32b5bebd'),
        ('farm:self:churn0', '0x1.861c88bb94affp-4', '817418ab154464c0'),
        ('farm:guided:churn0', '0x1.68428bb826efdp-4', '51690efef3f41fac'),
        ('farm:factoring:churn0', '0x1.5d634e6a2c7fdp-4', 'dcddfb83e0a08aa2'),
        ('farm:rma:churn0', '0x1.6b24b5b0c0409p-4', '66548598b9948eb8'),
        ('farm:static:churn1', '0x1.411362aabc791p-3', '4eda4561dd99b51e'),
        ('farm:self:churn1', '0x1.a2387327d9a79p-4', '0b82364a09a3f4eb'),
        ('farm:guided:churn1', '0x1.7a529d6cf4056p-4', 'ba971e0c1cd7b24f'),
        ('farm:factoring:churn1', '0x1.72906d6d63274p-4', '09f8a6ccceafe8ee'),
        ('farm:rma:churn1', '0x1.9ec14ddfff260p-4', '9031b5b6a6af22ed'),
    ],
    ('redist-churn', 0): [
        ('churn', '0x1.4075a63d74884p+0', '64acee0a50340df8'),
    ],
    ('redist-churn', 1): [
        ('churn', '0x1.48a73943b24b3p+0', 'da2c8d3336779fd3'),
    ],
}

#: (workload, seed) -> ``sim.n_events`` per cell
N_EVENTS = {
    ('removal-256', 0): (13516, 4874),
    ('removal-256', 1): (13697, 4890),
    ('fig4-grid', 0): (1448, 2112, 5059, 3921, 4212, 9807, 8677, 8771, 22953),
    ('fig4-grid', 1): (1449, 2107, 5057, 3922, 4230, 9801, 8677, 8772, 22951),
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


#: one observed smoke cell per workload: a removal, a Figure 4 app with
#: competitors, a farm policy under churn, the redistribution churn
INVARIANT_CELLS = (("removal-256", "removal:8"), ("fig4-grid", "fig4:jacobi:4:dynmpi"),
                   ("farm-64", "farm:rma:churn1"), ("redist-churn", "churn"))


@pytest.mark.parametrize("name,label", INVARIANT_CELLS, ids=lambda v: v)
def test_clock_is_integer_and_slices_tile_busy_time(name, label, monkeypatch):
    """The integer clock end to end: every heap key pushed and every
    simulator's final ``now`` is an ``int``; per node the CPU slices
    never overlap and their durations sum to ``cpu.busy_time`` exactly."""
    from types import SimpleNamespace

    from repro.simcluster import cpu as cpu_module
    from repro.simcluster import kernel

    keys, sims, cpus = [], [], []
    heapq = kernel.heapq

    def heappush(heap, item):
        keys.append(item[0])
        heapq.heappush(heap, item)

    monkeypatch.setattr(kernel, "heapq", SimpleNamespace(
        heappush=heappush, heappop=heapq.heappop, heapify=heapq.heapify))
    for cls, seen in ((kernel.Simulator, sims), (cpu_module.RoundRobinCPU, cpus)):
        def init(self, *args, _init=cls.__init__, _seen=seen, **kwargs):
            _init(self, *args, **kwargs)
            _seen.append(self)
        monkeypatch.setattr(cls, "__init__", init)

    (cell,) = [c for c in _workloads()[name].setup(0, "smoke") if c.label == label]
    run = cell.run(True, False)
    assert run.error is None and keys and sims and cpus
    assert {type(k) for k in keys} == {int}
    assert {type(sim.now) for sim in sims} == {int}
    for cpu in cpus:
        mine = sorted((s, e) for node, _, s, e in cpu.obs.slices if node == cpu.node_id)
        assert all(a[1] <= b[0] for a, b in zip(mine, mine[1:]))
        assert sum(e - s for s, e in mine) == cpu.busy_time
