"""Fixed reference work that gauges the host's speed.

This shared host drifts: for minutes at a time every CPU-bound Python
computation runs up to a third slower or faster, so the same commit
gives job times that move by 20% or more between two sets of runs.
run.py times this computation right after every job and reports each
job's time as a multiple of the median reference time of its round,
scaled by REF_S.  The reference is pure Python in the style of
mdl's kernels (bitmask sets, GF(2) elimination with a memo dict,
closure loops, set building) and shares no code with mdl, so no change
to mdl moves it: a change that makes mdl twice as fast halves the
ratio, while a slow spell of the host moves both sides alike.

Process start-up drifts more than computation does: in one slow spell
the set-up probes of a run took 40% to 60% longer while reference()
took 10% longer.  So set-up is gauged by a reference probe of its own
kind, probe(): a fresh interpreter that imports the standard-library
modules a set-up probe imports and runs the reference computation.
"""

from __future__ import annotations

import gc
import importlib
import time

N = 13
COLUMNS = tuple((0x5A3 * (i + 7) ** 3 + i * 0x1F) & 0x7F for i in range(N))
FLATS = 223  # flats of rank at most 3 of the matroid on COLUMNS

# Seconds that reference() takes at the reference speed: its median on
# the 2-core VM the README's figures come from.  Reported times are in
# seconds at that speed.
REF_S = 0.0104

# Standard-library modules that a set-up probe imports beyond the
# interpreter's start-up set (these four pull in the rest), and the
# seconds that a reference probe takes at the reference speed: its
# median on the same VM.
PROBE_IMPORTS = ("argparse", "dataclasses", "fractions", "json")
PROBE_S = 0.128


def _flats() -> int:
    """Flats of rank at most 3 of the GF(2) column matroid on COLUMNS."""
    memo: dict[int, int] = {}

    def rank(x: int) -> int:
        r = memo.get(x)
        if r is None:
            pivots: list[int] = []
            for e in range(N):
                if x >> e & 1:
                    v = COLUMNS[e]
                    for p in pivots:
                        v = min(v, v ^ p)
                    if v:
                        pivots.append(v)
            r = memo[x] = len(pivots)
        return r

    flats = {0}
    level = [0]
    for _ in range(3):
        nxt = set()
        for f in level:
            for e in range(N):
                if not f >> e & 1:
                    g = f | 1 << e
                    rg = rank(g)
                    cl = g
                    for h in range(N):
                        if not cl >> h & 1 and rank(g | 1 << h) == rg:
                            cl |= 1 << h
                    nxt.add(cl)
        level = sorted(nxt)
        flats.update(nxt)
    return len(flats)


def reference() -> float:
    """Seconds that one run of the reference computation takes now."""
    gc.collect()
    start = time.perf_counter()
    n = _flats()
    seconds = time.perf_counter() - start
    if n != FLATS:
        raise RuntimeError(f"reference computation found {n} flats, not {FLATS}")
    return seconds


def probe() -> None:
    """Body of a reference probe process: the imports and three runs of
    the reference computation, then say so on stdout."""
    for name in PROBE_IMPORTS:
        importlib.import_module(name)
    for _ in range(3):
        if _flats() != FLATS:
            raise RuntimeError("reference computation went wrong")
    print("ready", flush=True)
