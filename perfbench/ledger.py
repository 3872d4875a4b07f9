"""The exact call ledger: Python calls per operation, by package.

A :mod:`cProfile` run (the interpreter's C-level profile hook, the same
hook ``sys.setprofile`` installs) counts every call, including calls into
builtins and the standard library.  The simulator is deterministic, so
over a fixed stretch of *simulated* time the counts repeat exactly for a
given seed; they are machine-independent.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import Counter
from typing import Callable, Dict

import repro

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Packages of ``repro`` reported on their own; all other code under
#: ``repro`` counts as ``repro_other``, everything else as ``stdlib``.
PACKAGES = ("giop", "simnet", "core", "obs", "totem", "runtime", "orb")
LEDGER_BINS = PACKAGES + ("repro_other", "stdlib")


def _package(filename: str) -> str:
    if not filename.startswith(REPRO_DIR):
        return "stdlib"
    top = filename[len(REPRO_DIR):].split(os.sep, 1)[0]
    if top in PACKAGES:
        return top
    return "repro_other"


def count_calls(fn: Callable[[], None]) -> Dict[str, int]:
    """Run ``fn`` under the profiler; calls by package."""
    profiler = cProfile.Profile()
    profiler.runcall(fn)
    stats = pstats.Stats(profiler)
    calls: Counter = Counter()
    for (filename, _line, _name), row in stats.stats.items():
        calls[_package(filename)] += row[1]     # calls, recursive included
    return dict(calls)
