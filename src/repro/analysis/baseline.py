"""Finding-baseline files for ``python -m repro.analysis check``.

``--baseline FILE`` / ``--write-baseline FILE``: a baseline is a JSON
snapshot of finding *fingerprints* — line-independent stable ids — so
known findings can be carried while new ones still fail the gate.
"""

from __future__ import annotations

import json

from ..errors import ConfigError

__all__ = ["load_baseline", "save_baseline"]


def load_baseline(path) -> set:
    """Read a baseline file; returns the set of carried fingerprints
    (empty for a missing file).  A file that is not a baseline raises
    :class:`~repro.errors.ConfigError` naming what is wrong with it."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return set()
    except json.JSONDecodeError as exc:
        raise ConfigError(f"baseline {path} is not valid JSON: {exc}") from exc
    try:
        return {str(e["fingerprint"]) for e in data.get("findings", [])}
    except (AttributeError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"baseline {path} is malformed: every entry of its "
            f"\"findings\" list needs a \"fingerprint\" ({exc!r})"
        ) from exc


def save_baseline(path, findings) -> None:
    data = {
        "tool": "repro.analysis check",
        "findings": [
            {
                "fingerprint": f.fingerprint,
                "code": f.code,
                "path": f.path,
                "function": f.function,
                "message": f.message,
            }
            for f in findings
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
