"""The three workloads: their inputs, their `mdl` command lines and checks.

Every input is a catalog matroid with pinned parameters (and, for
`linear_random`, a pinned generator seed), written as a .mtd file in
coordinates drawn from the run's seed: the rows are permuted and each
row and each column is multiplied by a nonzero scalar.  The seed so
changes the bytes of every input, but neither the labelled matroid nor
the zero pattern of its columns, and so neither the searches nor the
length of an elimination.  That is deliberate.  The cost of an exact
cover search depends wildly on labels and instances (`tau` of PG(4,2)
with a=2 takes 4 s in catalog order and 0.03 s under a random
relabelling; `linear_random(5, 24, 2)` seeds 0 to 3 take 0.5 s to 3 s),
and dense random coordinates move the cost of the same job by 30%
(`tau` of PG(3,3): 0.084 s to 0.117 s over six seeds).  A benchmark
whose work changes with the seed cannot compare two commits measured
on different seeds.

`mdl verify` draws its corpora inside mdl from its own `--seed`, so
there are no coordinates for the run's seed to redraw.  The `verify`
workload pins that seed (VERIFY_SEED) and does not use the run's seed:
over run seeds 201 to 220 passed through, the fastest of three rounds
took 1.96 s to 2.86 s and single suites moved by 2x (lem7: 0.29 s to
0.63 s), so the corpus, not the program, set the figure.
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

NAMES = ("cover", "geometry", "verify")

# Rounds whose times make the figures: with the set-up probes, about
# four fifths of a 36 s run on the reference host, so that a run still
# ends near its 36 s when the host is a quarter slower.  A fixed count
# keeps the number of samples behind each per-job median independent of
# how fast the program is.
TIMED_ROUNDS = {"cover": 15, "geometry": 19, "verify": 14}

# fields whose mdl tables are built during set-up
FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9)


def load_mdl(root: str):
    """Import mdl from the checkout's src/, and from nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mdl", "cli.py")):
        raise SystemExit(f"perfbench: no mdl sources under {src}")
    sys.path.insert(0, src)
    import mdl.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(mdl.cli.__file__))) != src:
        raise SystemExit(f"perfbench: imported mdl from {mdl.cli.__file__}, not {src}")
    return mdl


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> failure reason


# name -> (family, params, generator seed); pg(n, q) is PG(n-1, q).
# The linear_random seeds are ones whose cover search is hard for their
# size: the branch and bound takes 77% to 98% of each `tau` job.  On
# geometries and in `tauw` the search is easy and enumerating flats
# dominates, so those jobs are few.
COVER_INPUTS = {
    "pg42": ("pg", (4, 2), 0),
    "pg43": ("pg", (4, 3), 0),
    "a": ("linear_random", (5, 16, 2), 1),
    "b": ("linear_random", (5, 17, 2), 0),
    "c": ("linear_random", (5, 17, 2), 1),
    "d": ("linear_random", (5, 17, 2), 5),
    "e": ("linear_random", (5, 18, 2), 0),
    "f": ("linear_random", (5, 18, 2), 1),
    "g": ("linear_random", (5, 18, 2), 2),
    "h": ("linear_random", (5, 18, 2), 4),
    "i": ("linear_random", (5, 18, 2), 5),
    "j": ("linear_random", (4, 16, 3), 7),
    "k": ("linear_random", (4, 18, 3), 2),
    "l": ("linear_random", (4, 20, 3), 2),
    "m": ("linear_random", (4, 18, 4), 5),
    "n": ("linear_random", (4, 20, 4), 0),
    "o": ("linear_random", (4, 20, 4), 5),
}
GEOMETRY_INPUTS = {
    "pg42": ("pg", (4, 2), 0),
    "pg33": ("pg", (3, 3), 0),
    "pg34": ("pg", (3, 4), 0),
    "pg35": ("pg", (3, 5), 0),
    "pg43": ("pg", (4, 3), 0),
}

# (file, a) for tau, (file, d) for tauw, (file, a, b) for cover thm4;
# b = q + 2 keeps U_{a+1,b} out of every GF(q)-representable input
COVER_JOBS = {
    "tau": [("pg42", 2)] + [(name, 2) for name in "abcdefghijklmno"],
    "tauw": [("pg42", 3)],
    "thm4": [("pg43", 1, 5), ("a", 1, 4), ("n", 1, 6)],
}
# geometries that `rep` and `pg` recognise
REP_PG = ("pg42", "pg33", "pg34")
# (file, q, h, t): stacks to find in PG(n-1,q') for q' > q, whose lines
# have q'+1 > q+1 points, and none in GF(q)-representable geometries
STACK_FOUND = [("pg43", 2, 2, 2), ("pg35", 4, 1, 2), ("pg34", 3, 1, 2),
               ("pg33", 2, 1, 2)]
STACK_NONE = [("pg33", 3, 1, 2), ("pg42", 2, 1, 3), ("pg34", 4, 1, 3)]
ROUND = ("pg42", "pg33", "pg34", "pg35")
# lemma -> trials, sized so that no job takes much over 0.2 s: a job's
# fastest time is steadier the shorter the job and the more rounds it
# gets.  lem14 (geometry-shaped; its fourth shape alone takes 2 s) stays
# a small minority.  lem9 is left out: some seeds make it raise outside
# its trial guard (see CHANGES.md).
VERIFY_SEED = 0
VERIFY_TRIALS = {
    "thm4": 125, "cor5": 95, "lem7": 60, "lem8": 95, "lem10": 95,
    "lem11": 30, "lem12": 60, "lem14": 3, "lem16": 60, "lem17": 50,
    "hirschfeld": 20,
}


def write_input(mdl, path: str, family: str, params, gen_seed: int,
                rng: random.Random) -> None:
    """Generate a catalog matroid and write it in seed-drawn coordinates."""
    m = mdl.catalog.gen(family, params, seed=gen_seed)
    q, rows = m.field.q, m.matrix.rows
    f = checks.Field(q)
    perm = rng.sample(range(rows), rows)
    row_scale = [rng.randrange(1, q) for _ in range(rows)]
    cols = []
    for col in m.matrix.columns():
        mul = f.mul[rng.randrange(1, q)]
        cols.append(tuple(mul[f.mul[s][col[p]]] for p, s in zip(perm, row_scale)))
    lin = mdl.core.LinearMatroid(mdl.gf.Matrix.from_columns(mdl.gf.field(q), cols, rows))
    header = (f"catalog {family} {list(params)} generator seed {gen_seed}, "
              "in seed-drawn coordinates")
    mdl.catalog.write_matroid(lin, path, name=family, header=header)


def inputs_of(workload: str) -> dict:
    return {"cover": COVER_INPUTS, "geometry": GEOMETRY_INPUTS}.get(workload, {})


def prepare(mdl, workload: str, seed: int, workdir: str) -> None:
    """Set-up: build the field tables and write the workload's inputs."""
    for q in FIELD_ORDERS:
        mdl.gf.field(q)
    rng = random.Random(f"{workload}:{seed}")
    for name, (family, params, gen_seed) in inputs_of(workload).items():
        write_input(mdl, os.path.join(workdir, name + ".mtd"), family, params, gen_seed, rng)


def probe(root: str, workload: str, seed: str, workdir: str) -> None:
    """Body of a set-up probe process: set up, then say so on stdout."""
    mdl = load_mdl(root)
    prepare(mdl, workload, int(seed), workdir)
    print("ready", flush=True)


def jobs(workload: str, workdir: str) -> list[Job]:
    """The workload's fixed job list; inputs must already be written."""

    def inp(name: str) -> checks.LinearInput:
        family, params, _ = inputs_of(workload)[name]
        return checks.read_linear(os.path.join(workdir, name + ".mtd"),
                                  pg_rank=params[0] if family == "pg" else None)

    out: list[Job] = []
    if workload == "cover":
        for name, a in COVER_JOBS["tau"]:
            out.append(Job(f"tau {name} a={a}", ("tau", f"{name}.mtd", "--a", str(a), "--json"),
                           partial(checks.tau, inp(name), a)))
        for name, d in COVER_JOBS["tauw"]:
            out.append(Job(f"tauw {name} d={d}", ("tauw", f"{name}.mtd", "--d", str(d), "--json"),
                           partial(checks.tauw, inp(name), d)))
        for name, a, b in COVER_JOBS["thm4"]:
            out.append(Job(f"cover thm4 {name} a={a} b={b}",
                           ("cover", "thm4", f"{name}.mtd", "--a", str(a), "--b", str(b), "--json"),
                           partial(checks.thm4, inp(name), a, b)))
    elif workload == "geometry":
        for name in REP_PG:
            m = inp(name)
            out.append(Job(f"rep {name}", ("rep", f"{name}.mtd", "--q", str(m.q)),
                           partial(checks.rep, m)))
            out.append(Job(f"pg {name}", ("pg", f"{name}.mtd", "--n", str(m.pg_rank),
                                          "--q", str(m.q), "--json"),
                           partial(checks.pg, m, m.pg_rank)))
        for name, q, h, t in STACK_FOUND:
            out.append(Job(f"stack find {name} q={q} h={h} t={t}",
                           ("stack", "find", f"{name}.mtd", "--q", str(q), "--h", str(h),
                            "--t", str(t), "--json"),
                           partial(checks.stack_found, inp(name), q, h, t)))
        for name, q, h, t in STACK_NONE:
            out.append(Job(f"stack find {name} q={q} h={h} t={t}",
                           ("stack", "find", f"{name}.mtd", "--q", str(q), "--h", str(h),
                            "--t", str(t), "--json"),
                           partial(checks.stack_none, inp(name), q)))
        for name in ROUND:
            out.append(Job(f"round {name}", ("round", f"{name}.mtd", "--json"),
                           partial(checks.weakly_round_pg, inp(name))))
    elif workload == "verify":
        for lemma, trials in VERIFY_TRIALS.items():
            out.append(Job(f"verify {lemma} x{trials}",
                           ("verify", lemma, "--trials", str(trials), "--seed", str(VERIFY_SEED),
                            "--json"),
                           partial(checks.verify, trials)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
