"""Seeded property suites behind `mdl verify` and the acceptance tests.

A suite draws trial i from an rng shared by all its trials and returns
the matroid to dump if the trial fails (or None) and check() -> (ok,
detail), which does the trial's work.  `run_suite` alone loops over the
trials, seeds the rng and decides what an exception in a check means.

Draws that are a pure function of a few small parameters and take
nothing from the rng (`pg` and `u24_tower` geometries, uniform
matroids and their sums, planted block stacks) go through `_fixed`,
which hands every trial of one `run_suite` call the same instance.  A
later trial so reuses the rank memo and flat levels an earlier one
filled.  Outputs cannot change: a matroid changes after construction
only in its rank memo, flat levels and full rank, which are pure
functions of it, and the rng stream is drawn as before.  The shared
instances are dropped when the call ends, however it ends; outside a
call `_fixed` builds afresh.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import catalog, covers, gf, rep, stacks
from . import reduce as reductions
from .bits import bits, mask_of, submasks, union
from .core import LinearMatroid, Matroid, UniformMatroid, direct_sum
from .errors import CapExceeded, InputError, PremiseError


@dataclass(frozen=True)
class Trial:
    index: int
    passed: bool
    detail: str
    dump: Matroid | None = None


@dataclass(frozen=True)
class SuiteResult:
    lemma: str
    trials: list[Trial]

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.trials)

    @property
    def counts(self) -> tuple[int, int]:
        good = sum(1 for t in self.trials if t.passed)
        return good, len(self.trials)


# build(*args) -> instance, for the fixed draws of the running
# `run_suite` call; None outside one
_shared: dict | None = None


def _fixed(build: Callable, *args):
    """build(*args), or the instance an earlier trial of this run built."""
    if _shared is None:
        return build(*args)
    key = (build, args)
    if key not in _shared:
        _shared[key] = build(*args)
    return _shared[key]


def _random_linear(rng: random.Random, q: int, rmin: int, rmax: int,
                   nmin: int, nmax: int) -> LinearMatroid:
    r = rng.randint(rmin, rmax)
    n = rng.randint(max(nmin, r), nmax)
    return catalog.gen("linear_random", (r, n, q), seed=rng.randrange(2 ** 32))


def _proper_subset(rng: random.Random, m: Matroid) -> int:
    els = list(m.elements())
    if len(els) <= 1:
        return 0
    count = rng.randint(0, len(els) - 1)
    return mask_of(rng.sample(els, count))


def _mixed_corpus(rng: random.Random) -> Matroid:
    roll = rng.randrange(6)
    if roll == 0:
        r = rng.randint(1, 3)
        return _fixed(UniformMatroid, r, rng.randint(r, r + 5))
    if roll == 1:
        return _fixed(catalog.gen, "u24_tower", (rng.randint(1, 2),))
    if roll == 2:
        return _fixed(catalog.gen, "pg", (3, 2))
    if roll == 3:
        return _fixed(catalog.gen, "pg", (rng.choice([2, 3]), 3))
    return _random_linear(rng, rng.choice([2, 3, 4]), 2, 4, 3, 10)


# -- planted stack instances ------------------------------------------

U24_BLOCK = ((1, 0), (0, 1), (1, 1), (1, 2))  # four points of a GF(4) line


def _blocks_matroid(nblocks: int, extras: Sequence[Sequence[int]],
                    loops: int = 0) -> tuple[LinearMatroid, tuple[int, ...]]:
    """GF(4) matroid of nblocks mutually skew U_{2,4} layers plus extra
    columns supported on chosen blocks; returns it with the block parts."""
    f = gf.field(4)
    rows = 2 * nblocks
    columns: list[tuple[int, ...]] = []
    for i in range(nblocks):
        for vx, vy in U24_BLOCK:
            col = [0] * rows
            col[2 * i] = vx
            col[2 * i + 1] = vy
            columns.append(tuple(col))
    for support in extras:
        col = [0] * rows
        for i in support:
            col[2 * i] = 1
        columns.append(tuple(col))
    for _ in range(loops):
        columns.append((0,) * rows)
    m = LinearMatroid(gf.Matrix.from_columns(f, columns, rows))
    parts = tuple(mask_of(range(4 * i, 4 * i + 4)) for i in range(nblocks))
    return m, parts


# -- suites ------------------------------------------------------------


def suite_thm4(rng: random.Random, i: int, seed: int):
    """Covering bound and the constructive cover on excluded-minor inputs."""
    q = 2 if i % 2 == 0 else 3
    b = q + 2
    m = _random_linear(rng, q, 2, 5, 4, 12)

    def check():
        r = m.rank()
        bound = math.comb(b - 1, 1) ** max(r - 1, 0)
        t1 = covers.tau(m, 1).value
        cov = covers.kdensity_cover(m, 1, b)
        ranks_ok = all(m.rank(s) <= 1 for s in cov.sets)
        ok = (t1 <= bound and union(cov.sets) == m.ground and len(cov.sets) <= bound and ranks_ok)
        return ok, f"q={q} r={r} tau1={t1} cover={len(cov.sets)} bound={bound}"

    return m, check


def suite_cor5(rng: random.Random, i: int, seed: int):
    """Both contraction inequalities on U(a,b)-safe linear matroids."""
    q = rng.choice([2, 3])
    m = _random_linear(rng, q, 2, 4, 3, 10)
    c = _proper_subset(rng, m)

    def check():
        rpt = covers.check_contraction_inequalities(m, c, 1, q + 2, q + 3)
        return rpt.ok, (f"q={q} rC={m.rank(c)} tau_a {rpt.tau_a_mc}>={rpt.cover_bound} "
                        f"tau_d {rpt.tau_d_mc}>={rpt.weighted_bound}")

    return m, check


def suite_lem10(rng: random.Random, i: int, seed: int):
    """Weighted contraction inequality over the mixed corpus."""
    m = _mixed_corpus(rng)
    c = _proper_subset(rng, m)
    d = rng.randint(2, 5)

    def check():
        rc = m.rank(c)
        td_m = covers.tau_weighted(m, d).value
        td_mc = covers.tau_weighted(m.contract(c), d).value
        return td_mc >= Fraction(td_m, d ** rc), f"d={d} rC={rc} {td_mc} >= {td_m}/{d}^{rc}"

    return m, check


def suite_lem7(rng: random.Random, i: int, seed: int):
    """Stack projection survival on planted block stacks."""
    k = rng.choice([1, 1, 2])
    rc_target = rng.choice([0, 1, 2] if k == 1 else [0, 1])
    nblocks = k * (rc_target + 1)
    picked = rng.sample(range(nblocks), rc_target) if rc_target else []
    extras = tuple((b,) for b in picked)
    overlap = rng.random() < 0.3 and rc_target >= 1
    loops = 1 if rc_target == 0 and rng.random() < 0.5 else 0
    m, parts = _fixed(_blocks_matroid, nblocks, extras, loops)
    cmask = mask_of(range(4 * nblocks, 4 * nblocks + len(extras) + loops))
    if overlap:  # then loops == 0
        # swap one extra for an element of its block: C meets E(S)
        cmask &= cmask - 1
        cmask |= 1 << (4 * picked[0])
    cert = stacks.StackCert(parts, 2, 2)

    def check():
        res = stacks.project_stack(m, cert, cmask, k)
        ok = stacks.verify_stack(m.contract(cmask), res).ok and res.height == k
        return ok, f"k={k} rC={m.rank(cmask)} overlap={overlap} parts={res.height}"

    return m, check


def suite_lem8(rng: random.Random, i: int, seed: int):
    """Stack skewing with exact zero connectivity afterwards."""
    a = rng.choice([0, 1, 1, 2])
    h = rng.choice([1, 2] if a <= 1 else [1])
    nblocks = (a + 1) * h
    picked = rng.sample(range(nblocks), a) if a else []
    extras = tuple((b,) for b in picked)
    loops = 1 if a == 0 else 0
    m, parts = _fixed(_blocks_matroid, nblocks, extras, loops)
    x = mask_of(range(4 * nblocks, 4 * nblocks + len(extras) + loops))
    cert = stacks.StackCert(parts, 2, 2)

    def check():
        c, res = stacks.skew_stack(m, cert, x, a)
        conn = m.contract(c).local_conn(x & ~c, res.union())
        return conn == 0 and res.height == h, f"a={a} h={h} C={bin(c)} conn={conn}"

    return m, check


def suite_lem9(rng: random.Random, i: int, seed: int):
    """Low-connectivity dense restriction, including the trivial branch."""
    q = rng.choice([2, 3])
    a, b = 1, q + 2
    roll = rng.randrange(4)
    if roll == 0:
        m = _fixed(catalog.gen, "pg", (3, q))
    elif roll == 1:
        m = _fixed(catalog.gen, "pg", (4, 2) if q == 2 else (3, 3))
    else:
        m = _random_linear(rng, q, 2, 4, 4, 10)
    if rng.random() < 0.25 or m.rank() < 2:
        y = rng.choice(m.flats_of_rank(1))  # rank <= a: trivial branch
    else:
        kk = rng.randint(2, min(3, m.rank()))
        y = rng.choice(m.flats_of_rank(kk))

    def check():
        x = reductions.reduce_connectivity(m, y, a, b)
        conn = m.local_conn(x, y)
        lhs = covers.tau(m.restrict(x), a).value
        rhs = Fraction(covers.tau(m, a).value,
                       math.comb(b - 1, a) ** max(m.rank(y) - a, 0))
        return (conn <= a and lhs >= rhs,
                f"q={q} rY={m.rank(y)} conn={conn} tau|X={lhs} target={rhs}")

    return m, check


# (a, b, d, n): U_{a+1,n} with ceil(n/a) = d just above C(b-1, a)
LEM11_GRID = [(a, b, d, a * d)
              for a in (1, 2) for b in range(a + 2, a + 5)
              for d in (math.comb(b - 1, a) + 1, math.comb(b - 1, a) + 2)
              if b <= a * d <= 16]


def suite_lem11(rng: random.Random, i: int, seed: int):
    """Uniform-minor extraction from thick uniform matroids."""
    a, b, d, n = LEM11_GRID[i % len(LEM11_GRID)]
    m = _fixed(UniformMatroid, a + 1, n)

    def check():
        c, x = covers.thick_uniform_minor(m, a, b, d)
        minor = m.contract(c)
        els = list(bits(x))
        sample = random.Random(seed + i)
        ok = (minor.rank(x) == a + 1 and x.bit_count() >= b and
              all(minor.rank(mask_of(sample.sample(els, a + 1))) == a + 1
                  for _ in range(20)))
        return ok, f"a={a} b={b} d={d} n={n} |X|={x.bit_count()}"

    return m, check


def suite_lem12(rng: random.Random, i: int, seed: int):
    """d-minimal cover structure: thick members of rank <= a, sandwich."""
    if rng.random() < 0.3:
        a, b, q = 2, 7, 2
    else:
        q = rng.choice([2, 3])
        a, b = 1, q + 2
    d = math.comb(b - 1, a) + rng.randint(1, 3)
    m = _random_linear(rng, q, a + 1, 4, 4, 10)

    def check():
        res = covers.tau_weighted(m, d)
        ta = covers.tau(m, a).value
        ranks_ok = all(m.rank(f) <= a for f in res.cover.sets)
        thick_ok = all(covers.is_d_thick(m, f, d) for f in res.cover.sets)
        sandwich = ta <= res.value <= d ** a * ta
        return (ranks_ok and thick_ok and sandwich,
                f"a={a} d={d} tau_a={ta} tau_d={res.value} "
                f"ranks_ok={ranks_ok} thick_ok={thick_ok}")

    return m, check


LEM14_SHAPES = [(3, 2, 1), (4, 2, 1), (4, 2, 2), (5, 2, 1), (3, 3, 1), (4, 3, 1)]


def suite_lem14(rng: random.Random, i: int, seed: int):
    """No-stack-in-projection on geometry-plus-noise premises."""
    n, q, extra = LEM14_SHAPES[i % len(LEM14_SHAPES)]
    m = catalog.gen("pg_plus_noise", (n, q, q * q, extra), seed=rng.randrange(2 ** 32))

    def check():
        npg = (q ** n - 1) // (q - 1)
        x = mask_of(range(npg, npg + extra))
        h = m.rank(x)
        rpt = stacks.check_no_stack_in_projection(m, x, q, h, 3)
        summary = {t: v is None for t, v in rpt.results.items()}
        return rpt.ok, f"n={n} q={q} extra={extra} h={h} none_found={summary}"

    return m, check


def suite_lem16(rng: random.Random, i: int, seed: int):
    """Weakly round restriction keeping the density premise."""
    roll = rng.randrange(4)
    if roll == 0:
        m = _fixed(catalog.gen, "pg", (3, 2))  # already weakly round
    elif roll == 1:
        m = _fixed(UniformMatroid, 2, rng.randint(2, 6))  # rank <= 2 branch
    elif roll == 2:
        # the parts are shared, so the sum's key repeats too
        m = _fixed(direct_sum, (_fixed(UniformMatroid, 3, 3),
                                _fixed(UniformMatroid, 2, rng.randint(6, 10))))
    else:
        m = direct_sum([_fixed(UniformMatroid, 2, 2), _random_linear(rng, 2, 2, 3, 4, 8)])
    a, q = 1, 2

    def check():
        alpha = Fraction(covers.tau(m, a).value, q ** m.rank())
        n = reductions.weakly_round_restriction(m, a, q, alpha)
        round_ok, _ = n.is_weakly_round()
        dens_ok = covers.tau(n, a).value >= alpha * q ** n.rank()
        return round_ok and dens_ok, f"r(M)={m.rank()} r(N)={n.rank()} alpha={alpha}"

    return m, check


def suite_lem17(rng: random.Random, i: int, seed: int):
    """Spanning contraction preserving two restrictions."""
    roll = rng.randrange(3)
    if roll == 0:
        m = _fixed(catalog.gen, "pg", (4, 2))
    elif roll == 1:
        m = _fixed(catalog.gen, "pg", (3, rng.choice([2, 3])))
    else:
        m = _fixed(UniformMatroid, 3, rng.randint(5, 8))
    r = m.rank()
    if rng.random() < 0.25:
        y = m.basis_of(m.ground)  # already spanning: C must stay empty
        kx = rng.randint(1, r - 1)
    else:
        kx = rng.randint(1, r - 2)
        ky = rng.randint(kx + 1, r - 1)
        y = rng.choice(m.flats_of_rank(ky))
    x = rng.choice(m.flats_of_rank(kx))

    def check():
        n = reductions.span_into(m, x, y)
        span_ok = n.rank(y) == n.rank()
        keep_x = all(n.rank(z) == m.rank(z) for z in submasks(x))
        keep_y = all(n.rank(z) == m.rank(z) for z in submasks(y))
        return span_ok and keep_x and keep_y, f"rX={m.rank(x)} rY={m.rank(y)} r(N)={n.rank()}"

    return m, check


# (a, b, q, expected): U_{a+1,b} is GF(q)-representable if q >= b, U_{2,q+2} is not
HIRSCHFELD_GRID = ([(a, b, q, True) for a in (1, 2) for b in range(a + 2, 8)
                    for q in (2, 3, 4, 5, 7, 8) if q >= b] +
                   [(1, q + 2, q, False) for q in (2, 3, 4, 5)])


def suite_hirschfeld(rng: random.Random, i: int, seed: int):
    """Representability of uniform matroids at and beyond the threshold."""
    a, b, q, expect = HIRSCHFELD_GRID[i % len(HIRSCHFELD_GRID)]

    def check():
        got = rep.uniform_representability_fact(a, b, q)
        return got == expect, f"U_{{{a + 1},{b}}} over GF({q}): {got} expect {expect}"

    return None, check


SUITES = {
    "thm4": suite_thm4,
    "cor5": suite_cor5,
    "lem7": suite_lem7,
    "lem8": suite_lem8,
    "lem9": suite_lem9,
    "lem10": suite_lem10,
    "lem11": suite_lem11,
    "lem12": suite_lem12,
    "lem14": suite_lem14,
    "lem16": suite_lem16,
    "lem17": suite_lem17,
    "hirschfeld": suite_hirschfeld,
}


def run_suite(lemma: str, trials: int, seed: int) -> SuiteResult:
    """Trials 0..trials-1 of a suite, all drawn from random.Random(seed).

    A check that raises PremiseError, or a RuntimeError other than
    CapExceeded, fails its trial: each suite builds the lemma's premises
    in, and a RuntimeError is a procedure failing its own re-verification.
    Any other exception, and any exception of a draw, propagates.

    The trials share their fixed draws (see `_fixed`) until the call
    ends, and no longer.
    """
    global _shared
    if lemma not in SUITES:
        raise InputError(f"unknown lemma suite {lemma!r}; "
                         f"choose from {sorted(SUITES)}")
    rng = random.Random(seed)
    out = []
    _shared = {}
    try:
        for i in range(trials):
            m, check = SUITES[lemma](rng, i, seed)
            try:
                ok, detail = check()
            except CapExceeded:
                raise
            except (PremiseError, RuntimeError) as exc:
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            out.append(Trial(i, ok, detail, None if ok else m))
    finally:
        _shared = None
    return SuiteResult(lemma, out)
