"""Scenario fuzzer: randomized-but-seeded load/failure schedules with
three independent invariant checkers.

Each fuzz iteration derives a scenario from ``(campaign_seed, index)``
through a SplitMix64 generator that draws with the shared finalizer
:func:`~repro.simcluster.rng.mix64` — no ``random`` module, no numpy
Generator, only wrapping uint64 arithmetic, so the draw sequence is
bit-stable across Python and numpy versions.  The scenario is then
executed up to three times:

1. **oracle** (PR 3): the distributed run must compute exactly what
   its sequential reference computes, redistribution or not;
2. **sanitize** (PR 1): the run must survive the runtime communication
   sanitizer (deadlock diagnosis, finalize accounting, collective
   checks) without a finding;
3. **perturb** (PR 6): with dynscope recording on, the exported trace
   must be byte-identical under schedule-perturbation seeds — the
   adaptation machinery must not leak MPI-undefined match order into
   results.

A violated invariant persists the scenario to ``failures.jsonl`` with
a minimal repro command line (``python -m repro.campaign fuzz --seed S
--index I``) so a failure found in a thousand-scenario sweep is one
copy-paste away from a debugger.

``failures.jsonl`` is also a **regression corpus**: ``python -m
repro.campaign fuzz --replay failures.jsonl`` re-runs every recorded
scenario through all three invariants and exits 0 only when the whole
corpus is clean — the check that a fixed bug stays fixed.  Replay
re-derives the scenario from ``(seed, index)``; if the derived slug no
longer matches the recorded one (the generator changed since the row
was written), it falls back to the recorded ``params`` verbatim and
marks the row ``drifted`` — corpus entries outlive fuzzer tweaks.
"""

from __future__ import annotations

import json
import multiprocessing
import pathlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..simcluster.rng import mix64
from .runner import run_combo
from .scenarios import build_scenario, resolve_params
from .space import combo_slug

__all__ = [
    "SplitMix64",
    "FuzzReport",
    "fuzz_params",
    "fuzz_one",
    "load_corpus",
    "replay_one",
    "run_fuzz",
    "run_replay",
]

_MASK = (1 << 64) - 1
#: perturbation seeds each scenario's trace must be invariant under
PERTURB_SEEDS = (1, 2)


class SplitMix64:
    """Tiny deterministic PRNG (SplitMix64), seeded from integers.

    The campaign's randomness must be reproducible from ``(seed,
    index)`` alone, forever — library RNGs can change their draw
    streams between versions, this cannot.
    """

    def __init__(self, *seed_parts: int):
        acc = 0xCBF29CE484222325  # FNV-1a offset basis, folds the parts
        for part in seed_parts:
            acc ^= part & _MASK
            acc = (acc * 0x100000001B3) & _MASK
        self._state = acc

    def next_u64(self) -> int:
        # mix64 adds the golden-ratio increment before finalizing
        z = int(mix64(np.array([self._state], dtype=np.uint64))[0])
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        return z

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive)."""
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        return self.next_u64() % den < num


def fuzz_params(seed: int, index: int) -> dict:
    """The scenario for fuzz iteration ``index`` of campaign ``seed``."""
    rng = SplitMix64(seed, index)
    app = rng.choice(("jacobi", "sor", "cg", "particle"))
    crash = app == "jacobi" and rng.chance(3, 20)
    if crash:
        # stay inside the envelope PR 2 proved bitwise-exact: 4 nodes,
        # default-Ethernet cycle lengths, crash well before the end
        n_nodes = 4
        size = 64
        cycles = rng.randint(36, 48)
        failure = f"crash:n{rng.randint(1, 3)}@c{rng.randint(8, 18)}"
    else:
        n_nodes = rng.randint(2, 5)
        size = rng.randint(24, 40) if app == "cg" else rng.randint(16, 32)
        cycles = rng.randint(6, 14)
        failure = "none"
        if rng.chance(1, 4):
            failure = (f"slow:n{rng.randint(0, n_nodes - 1)}"
                       f"@c{rng.randint(2, 5)}x{rng.randint(1, 2)}")
    triggers = []
    for _ in range(rng.randint(0, 2)):
        node = rng.randint(0, n_nodes - 1)
        start = rng.randint(2, max(2, cycles // 2))
        frag = f"n{node}@c{start}x{rng.randint(1, 3)}"
        if rng.chance(1, 3):
            frag += f"-c{start + rng.randint(2, 6)}"
        triggers.append(frag)
    return {
        "app": app,
        "n_nodes": n_nodes,
        "size": size,
        "cycles": cycles,
        "load": "+".join(triggers) or "none",
        "failure": failure,
        "seed": rng.randint(0, 10_000),
        "check": 1,
    }


# ---------------------------------------------------------------------------
# invariant checkers
# ---------------------------------------------------------------------------

def _oracle_invariant(params: dict) -> str:
    """Run with the sequential-reference check armed; '' when clean."""
    try:
        row = run_combo(dict(params))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "" if row["checks"].get("oracle", "ok") == "ok" else \
        row["checks"]["oracle"]


def _sanitize_invariant(params: dict) -> str:
    """Re-run under the PR-1 runtime sanitizer; '' when clean."""
    sanitized = dict(params)
    sanitized["sanitize"] = 1
    sanitized["check"] = 0  # the oracle already ran; keep this run lean
    try:
        run_combo(sanitized)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return ""


def _traced_export(params: dict, perturb: int) -> str:
    from ..obs.export import jsonl_text

    traced = dict(params)
    traced["observe"] = 1
    traced["perturb"] = perturb
    traced["check"] = 0
    result = build_scenario(resolve_params(traced)).run()
    return jsonl_text(result.job.cluster.obs)


def _perturb_invariant(params: dict) -> str:
    """PR-6 cross-check: the dynscope export must not move under
    schedule-perturbation seeds; '' when invariant."""
    try:
        base = _traced_export(params, 0)
        for seed in PERTURB_SEEDS:
            if _traced_export(params, seed) != base:
                return (f"trace differs under DYNMPI_PERTURB={seed} — "
                        f"a schedule-dependent outcome leaked into the run")
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return ""


_INVARIANTS = (
    ("oracle", _oracle_invariant),
    ("sanitize", _sanitize_invariant),
    ("perturb", _perturb_invariant),
)


def fuzz_one(args: tuple) -> dict:
    """Run all invariants for one iteration (pool-safe unit of work)."""
    seed, index = args
    params = fuzz_params(seed, index)
    verdicts = {}
    for name, checker in _INVARIANTS:
        verdicts[name] = checker(params) or "ok"
    ok = all(v == "ok" for v in verdicts.values())
    row = {
        "index": index,
        "seed": seed,
        "slug": combo_slug(params),
        "params": params,
        "invariants": verdicts,
        "ok": ok,
    }
    if not ok:
        row["repro"] = (f"python -m repro.campaign fuzz "
                        f"--seed {seed} --index {index}")
    return row


def replay_one(row: dict) -> dict:
    """Re-check one corpus row (pool-safe).  Prefers re-deriving the
    scenario from ``(seed, index)``; falls back to the recorded params
    when the derived slug no longer matches (generator drift)."""
    seed, index = int(row["seed"]), int(row["index"])
    params = fuzz_params(seed, index)
    drifted = combo_slug(params) != row.get("slug", combo_slug(params))
    if drifted:
        params = dict(row["params"])
    verdicts = {}
    for name, checker in _INVARIANTS:
        verdicts[name] = checker(dict(params)) or "ok"
    ok = all(v == "ok" for v in verdicts.values())
    out = {
        "index": index,
        "seed": seed,
        "slug": row.get("slug") or combo_slug(params),
        "params": params,
        "invariants": verdicts,
        "ok": ok,
    }
    if drifted:
        out["drifted"] = True
    if not ok:
        out["repro"] = row.get("repro") or (
            f"python -m repro.campaign fuzz --seed {seed} --index {index}"
        )
    return out


def load_corpus(path) -> list:
    """Parse a ``failures.jsonl`` corpus.  Raises ConfigError for a
    line that is not JSON or lacks the replay keys, and for an empty
    corpus."""
    rows = []
    text = pathlib.Path(path).read_text(encoding="utf-8")
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:
            raise ConfigError(f"{path}:{n}: {exc}") from None
        missing = {"seed", "index", "params"} - set(row)
        if missing:
            raise ConfigError(
                f"{path}:{n}: corpus row missing {sorted(missing)}"
            )
        rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: empty corpus")
    return rows


def run_replay(corpus_path, *, workers: int = 1) -> "FuzzReport":
    """Replay every row of a failure corpus; the report is clean only
    when every recorded scenario now passes all invariants."""
    rows = load_corpus(corpus_path)
    if workers > 1 and len(rows) > 1:
        with multiprocessing.Pool(min(workers, len(rows))) as pool:
            out = pool.map(replay_one, rows)
    else:
        out = [replay_one(row) for row in rows]
    seeds = sorted({r["seed"] for r in out})
    return FuzzReport(seed=seeds[0] if len(seeds) == 1 else -1, rows=out)


@dataclass
class FuzzReport:
    seed: int
    rows: list = field(default_factory=list)

    @property
    def n_scenarios(self) -> int:
        return len(self.rows)

    @property
    def failures(self) -> list:
        return [r for r in self.rows if not r["ok"]]

    @property
    def clean(self) -> bool:
        return not self.failures

    def render(self) -> str:
        out = [f"fuzz: seed={self.seed} {self.n_scenarios} scenario(s), "
               f"{len(self.failures)} failure(s)"]
        for row in self.rows:
            if row["ok"]:
                continue
            bad = {k: v for k, v in row["invariants"].items() if v != "ok"}
            out.append(f"  FAIL index={row['index']} {row['slug']}")
            for name, verdict in sorted(bad.items()):
                out.append(f"    {name}: {verdict}")
            out.append(f"    repro: {row['repro']}")
        if self.clean:
            out.append("fuzz: all invariants clean")
        return "\n".join(out)


def run_fuzz(
    seed: int,
    iterations: int,
    *,
    workers: int = 1,
    out_dir: Optional[pathlib.Path] = None,
    indices: Optional[Sequence[int]] = None,
) -> FuzzReport:
    """Fuzz ``iterations`` scenarios (or exactly ``indices``); persists
    failing scenarios with repro lines when ``out_dir`` is given."""
    todo = list(indices) if indices is not None else list(range(iterations))
    jobs = [(seed, i) for i in todo]
    if workers > 1 and len(jobs) > 1:
        with multiprocessing.Pool(min(workers, len(jobs))) as pool:
            rows = pool.map(fuzz_one, jobs)
    else:
        rows = [fuzz_one(job) for job in jobs]
    report = FuzzReport(seed=seed, rows=rows)
    if out_dir is not None:
        out_dir = pathlib.Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "failures.jsonl", "a", encoding="utf-8") as fh:
            for row in report.failures:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    return report
