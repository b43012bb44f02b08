"""The one command-line contract of the ``python -m repro.<tool>``
entry points (``analysis``, ``campaign``, ``experiments``, ``farm``,
``obs``).

Exit 0 is success and 1 is findings (each tool says which).  Exit 2 is
bad input — every usage error argparse finds, every
:class:`~repro.errors.ReproError` and every ``OSError`` (a path that
cannot be read or written) — reported as exactly one ``<prog>:
<message>`` line on stderr.  Any other exception is a bug and stays a
traceback.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, Optional, Sequence

from .errors import ConfigError, ReproError

__all__ = ["ArgumentParser", "cli_entry"]


class ArgumentParser(argparse.ArgumentParser):
    """An ``argparse.ArgumentParser`` whose usage errors raise
    :class:`ConfigError` instead of printing the usage text and
    exiting.  ``add_subparsers`` builds its subparsers from the same
    class (its default ``parser_class``), so they raise too."""

    def error(self, message: str):
        raise ConfigError(message)


Main = Callable[[Optional[Sequence[str]]], int]


def cli_entry(prog: str) -> Callable[[Main], Main]:
    """Decorate ``main(argv) -> int`` with the contract: a
    ``ReproError`` or ``OSError`` leaving it becomes one ``<prog>: ...``
    line on stderr and exit code 2."""
    def wrap(main: Main) -> Main:
        @functools.wraps(main)
        def guarded(argv: Optional[Sequence[str]] = None) -> int:
            try:
                return main(argv)
            except (ReproError, OSError) as exc:
                message = str(exc).replace("\n", " ")
                print(f"{prog}: {message}", file=sys.stderr)
                return 2
        return guarded
    return wrap
