"""The schedule-perturbation harness.

The repo's headline guarantee — two identical seeded runs export
byte-identical traces — holds only when nothing the MPI standard
leaves undefined leaks into the result.  That claim is checked by
running, not by proof: a schedule-clean program exports a
byte-identical trace under *every* perturbation seed, and a wildcard
receive that several concurrent senders can supply shows up as a real
byte-level diff.  This module runs a traced target once unperturbed
and once per seed (``DYNMPI_PERTURB=<seed>`` flips the kernel's
wildcard-match tie-breaks, see
:class:`repro.simcluster.kernel.Perturb`), then compares the JSONL
trace exports byte for byte.

Targets:

* ``"removal"`` — the canonical seeded removal scenario
  (:func:`repro.obs.scenario.run_removal`), the byte-determinism
  reference run;
* a path to a Python file exposing ``run_traced() -> str`` returning a
  trace export (``tests/fixtures/perturb/any_source_race.py`` is a
  seeded ANY_SOURCE race demonstrated this way).
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..errors import ConfigError

__all__ = ["PerturbReport", "SeedRun", "capture_trace", "run_perturbed"]


@dataclass(frozen=True)
class SeedRun:
    seed: int
    identical: bool
    #: human-readable description of the first differing line, "" when
    #: the traces are byte-identical
    first_diff: str = ""


@dataclass(frozen=True)
class PerturbReport:
    target: str
    runs: tuple
    trace_lines: int

    @property
    def invariant(self) -> bool:
        """True when every seed reproduced the unperturbed trace."""
        return all(r.identical for r in self.runs)

    def to_json(self) -> dict:
        return {
            "tool": "dynrace-perturb",
            "target": self.target,
            "trace_lines": self.trace_lines,
            "invariant": self.invariant,
            "runs": [
                {
                    "seed": r.seed,
                    "identical": r.identical,
                    "first_diff": r.first_diff,
                }
                for r in self.runs
            ],
        }

    def render(self) -> str:
        out = [
            f"perturb: target={self.target} "
            f"({self.trace_lines} trace lines)"
        ]
        for r in self.runs:
            verdict = "identical" if r.identical else f"DIFFERS ({r.first_diff})"
            out.append(f"  seed {r.seed}: {verdict}")
        out.append(
            "perturb: trace is schedule-invariant" if self.invariant
            else "perturb: trace depends on the message schedule"
        )
        return "\n".join(out)


@contextlib.contextmanager
def _perturb_env(seed: Optional[int]) -> Iterator[None]:
    prev = os.environ.get("DYNMPI_PERTURB")
    try:
        if seed is None:
            os.environ.pop("DYNMPI_PERTURB", None)
        else:
            os.environ["DYNMPI_PERTURB"] = str(seed)
        yield
    finally:
        if prev is None:
            os.environ.pop("DYNMPI_PERTURB", None)
        else:
            os.environ["DYNMPI_PERTURB"] = prev


def capture_trace(target: str = "removal") -> str:
    """Run ``target`` once with tracing on; returns the JSONL export."""
    if target == "removal":
        from ..obs.export import jsonl_text
        from ..obs.scenario import run_removal
        _result, cluster = run_removal(observe=True)
        return jsonl_text(cluster.obs)
    return _load_target(target).run_traced()


def _load_target(path: str):
    import importlib.util

    spec = importlib.util.spec_from_file_location("_perturb_target", path)
    if spec is None or spec.loader is None:
        raise ConfigError(f"cannot load perturbation target {path!r}")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    if not callable(getattr(mod, "run_traced", None)):
        raise ConfigError(
            f"perturbation target {path!r} must define run_traced() -> str"
        )
    return mod


def _first_diff(base: str, other: str) -> str:
    a, b = base.splitlines(), other.splitlines()
    for i, (la, lb) in enumerate(zip(a, b), start=1):
        if la != lb:
            return f"line {i}: {_shorten(la)} != {_shorten(lb)}"
    return f"line count {len(a)} != {len(b)}"


def _shorten(line: str, limit: int = 96) -> str:
    return line if len(line) <= limit else line[: limit - 3] + "..."


def run_perturbed(target: str = "removal",
                  seeds: Sequence[int] = (1, 2, 3)) -> PerturbReport:
    """Capture the unperturbed trace, re-run under each seed, and diff.

    Each individual run — perturbed or not — is deterministic; the
    report says whether the *schedule* leaks into the trace bytes."""
    with _perturb_env(None):
        base = capture_trace(target)
    runs = []
    for seed in seeds:
        with _perturb_env(int(seed)):
            trace = capture_trace(target)
        identical = trace == base
        runs.append(SeedRun(
            int(seed), identical,
            "" if identical else _first_diff(base, trace),
        ))
    return PerturbReport(target, tuple(runs), len(base.splitlines()))
