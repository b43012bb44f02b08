"""Resumable on-disk sweep state (the execo ``ParamSweeper`` idiom).

The sweeper owns a campaign directory::

    <dir>/
      spec.json          # the parameter space (written once at create)
      journal.jsonl      # append-only combo state transitions
      results/<slug>.json  # one deterministic result row per done combo

State is *reconstructed* from the journal, never stored mutably: each
line is ``{"slug": ..., "event": "claim" | "done" | "error" | "skip"}``
(plus an ``error`` detail for error/skip lines).  Replaying the
journal yields, per combo:

* **done** — a ``done`` event was journaled (the result row exists);
* **skipped** — quarantined after exhausting its retry budget;
* **tries** — the number of failed attempts so far: ``error`` events
  plus *stale claims* (a ``claim`` with no matching ``done``/``error``
  means the previous campaign process died mid-combo — kill -9, OOM,
  power loss — and the combo is re-queued, with the lost attempt
  counted against its budget so a combo that kills the whole campaign
  cannot loop forever).

Everything else is pending.  ``journal.jsonl`` is append-only and
flushed per line, so a campaign killed at any instant loses at most
the in-flight combos' attempts — never completed work.  A kill inside
a write leaves a last line with no newline: replay drops such a torn
tail and cuts it off the file before anything is appended.  A line
that does not parse anywhere else is damage, not a kill, and a
:class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from ..errors import ConfigError
from .space import Combo, ParamSpace, expand

__all__ = ["ParamSweeper", "SweepStats"]

#: a combo is quarantined once it has failed this many attempts
DEFAULT_MAX_TRIES = 3


@dataclass(frozen=True)
class SweepStats:
    total: int
    done: int
    skipped: int
    in_progress: int

    @property
    def pending(self) -> int:
        return self.total - self.done - self.skipped - self.in_progress

    @property
    def complete(self) -> bool:
        """No work left: everything is either done or quarantined."""
        return self.done + self.skipped == self.total

    def render(self) -> str:
        return (f"{self.done}/{self.total} done, {self.pending} pending, "
                f"{self.in_progress} in progress, {self.skipped} quarantined")


class ParamSweeper:
    """Journaled sweep state over an expanded parameter space."""

    def __init__(self, directory: str | pathlib.Path, space: ParamSpace,
                 *, max_tries: int = DEFAULT_MAX_TRIES):
        if max_tries < 1:
            raise ConfigError("max_tries must be >= 1")
        self.dir = pathlib.Path(directory)
        self.space = space
        self.max_tries = max_tries
        self.combos: list[Combo] = expand(space)
        self._by_slug = {c.slug: c for c in self.combos}
        self.results_dir = self.dir / "results"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self._journal_path = self.dir / "journal.jsonl"
        self.done: set[str] = set()
        self.skipped: set[str] = set()
        self.tries: dict[str, int] = {}
        self.errors: dict[str, str] = {}
        #: slugs claimed by *this* process and not yet resolved
        self._live_claims: set[str] = set()
        #: quarantine decisions made during replay, journaled below
        self._deferred_skips: list[str] = []
        self._replay()
        self._journal = open(self._journal_path, "a", encoding="utf-8")
        for slug in self._deferred_skips:
            self._record({"slug": slug, "event": "skip",
                          "error": self.errors.get(slug, "")})
        self._deferred_skips = []

    # -- persistence -----------------------------------------------------
    @staticmethod
    def create(directory: str | pathlib.Path, space: ParamSpace,
               *, max_tries: int = DEFAULT_MAX_TRIES) -> "ParamSweeper":
        """Create a campaign directory (or re-open a matching one).

        The spec is persisted into the directory so ``resume`` and
        ``status`` need nothing but the path.  Re-creating with a
        *different* space is an error — silently mixing spaces would
        corrupt the journal's meaning.
        """
        directory = pathlib.Path(directory)
        spec_path = directory / "spec.json"
        spec = {"campaign": space.to_json(), "max_tries": max_tries}
        if spec_path.exists():
            existing = json.loads(spec_path.read_text(encoding="utf-8"))
            if existing != spec:
                raise ConfigError(
                    f"{directory} already holds a different campaign; "
                    f"use a fresh directory (or 'resume' to continue it)"
                )
        else:
            directory.mkdir(parents=True, exist_ok=True)
            spec_path.write_text(
                json.dumps(spec, indent=2, sort_keys=True) + "\n")
        return ParamSweeper(directory, space, max_tries=max_tries)

    @staticmethod
    def open_dir(directory: str | pathlib.Path) -> "ParamSweeper":
        """Re-open an existing campaign directory from its spec.json."""
        directory = pathlib.Path(directory)
        spec_path = directory / "spec.json"
        try:
            spec = json.loads(spec_path.read_text(encoding="utf-8"))
        except OSError:
            raise ConfigError(
                f"{directory} is not a campaign directory (no spec.json)")
        return ParamSweeper(
            directory,
            ParamSpace.from_json(spec["campaign"]),
            max_tries=int(spec.get("max_tries", DEFAULT_MAX_TRIES)),
        )

    def _journal_records(self) -> list[tuple]:
        """The journal's ``(slug, event, record)`` entries in order,
        after repairing a last line the previous process died inside."""
        try:
            data = self._journal_path.read_bytes()
        except FileNotFoundError:
            return []
        *lines, tail = data.split(b"\n")
        if tail:
            # no trailing newline.  A fragment is dropped and cut off
            # the file (the next record would be glued onto it); a
            # whole record that only lost its newline gets it back.
            try:
                json.loads(tail)
            except ValueError:
                with open(self._journal_path, "r+b") as fh:
                    fh.truncate(len(data) - len(tail))
            else:
                lines.append(tail)
                with open(self._journal_path, "ab") as fh:
                    fh.write(b"\n")
        records = []
        for n, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                records.append((rec["slug"], rec["event"], rec))
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(
                    f"{self._journal_path} line {n} is not a journal "
                    f"record ({exc!r}); only the last line may be torn"
                ) from None
        return records

    def _replay(self) -> None:
        open_claims: dict[str, int] = {}
        for slug, event, rec in self._journal_records():
            if slug not in self._by_slug:
                raise ConfigError(
                    f"journal mentions unknown combo {slug!r} — the "
                    f"campaign directory does not match this space")
            if event == "claim":
                open_claims[slug] = open_claims.get(slug, 0) + 1
            elif event == "done":
                open_claims.pop(slug, None)
                self.done.add(slug)
            elif event == "error":
                open_claims.pop(slug, None)
                self.tries[slug] = self.tries.get(slug, 0) + 1
                self.errors[slug] = rec.get("error", "")
            elif event == "skip":
                self.skipped.add(slug)
            else:
                raise ConfigError(f"journal has unknown event {event!r}")
        # stale claims: the previous process died mid-combo
        for slug, n in open_claims.items():
            if slug not in self.done:
                self.tries[slug] = self.tries.get(slug, 0) + n
                self.errors.setdefault(
                    slug, "stale claim: previous campaign process died "
                          "while running this combo")
        # quarantine anything already over budget (including repeat
        # victims of mid-combo kills)
        for slug, tries in self.tries.items():
            if (tries >= self.max_tries and slug not in self.done
                    and slug not in self.skipped):
                # the journal handle is not open yet during replay;
                # __init__ journals these right after opening it
                self.skipped.add(slug)
                self._deferred_skips.append(slug)

    def _record(self, rec: dict) -> None:
        self._journal.write(json.dumps(rec, sort_keys=True) + "\n")
        self._journal.flush()

    # -- the sweep protocol ---------------------------------------------
    def pending(self) -> list[Combo]:
        """Combos still to run, in deterministic space order."""
        busy = self.done | self.skipped | self._live_claims
        return [c for c in self.combos if c.slug not in busy]

    def claim(self, combo: Combo) -> None:
        self._record({"slug": combo.slug, "event": "claim"})
        self._live_claims.add(combo.slug)

    def mark_done(self, combo_slug: str, result: dict) -> None:
        """Persist the deterministic result row, then journal success."""
        path = self.results_dir / f"{combo_slug}.json"
        path.write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n")
        self._record({"slug": combo_slug, "event": "done"})
        self._live_claims.discard(combo_slug)
        self.done.add(combo_slug)

    def mark_error(self, combo_slug: str, error: str) -> bool:
        """Journal a failed attempt; quarantines when the retry budget
        is exhausted.  Returns True when the combo stays retryable."""
        self._record({"slug": combo_slug, "event": "error", "error": error})
        self._live_claims.discard(combo_slug)
        self.tries[combo_slug] = self.tries.get(combo_slug, 0) + 1
        self.errors[combo_slug] = error
        if self.tries[combo_slug] >= self.max_tries:
            self._record({"slug": combo_slug, "event": "skip",
                          "error": error})
            self.skipped.add(combo_slug)
            return False
        return True

    def release_claims(self) -> None:
        """Forget this process's unresolved claims (end of a pass)."""
        self._live_claims.clear()

    # -- reads -----------------------------------------------------------
    def stats(self) -> SweepStats:
        return SweepStats(
            total=len(self.combos),
            done=len(self.done),
            skipped=len(self.skipped),
            in_progress=len(self._live_claims),
        )

    def load_results(self) -> list[dict]:
        """Every persisted result row, sorted by slug."""
        rows = []
        for slug in sorted(self.done):
            path = self.results_dir / f"{slug}.json"
            rows.append(json.loads(path.read_text(encoding="utf-8")))
        return rows

    def quarantined(self) -> list[tuple[str, int, str]]:
        """(slug, tries, last error) for every quarantined combo."""
        return [
            (slug, self.tries.get(slug, 0), self.errors.get(slug, ""))
            for slug in sorted(self.skipped)
        ]

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "ParamSweeper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
