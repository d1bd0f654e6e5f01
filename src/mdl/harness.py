"""Seeded property suites behind `mdl verify` and the acceptance tests.

Each suite generates its own corpus deterministically from (trials,
seed), runs one lemma-shaped check per trial, and reports per-trial
verdicts.  A failed trial carries the offending matroid when it has a
file representation, so the CLI can dump a replayable counterexample.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import catalog, covers, gf, rep, stacks
from . import reduce as reductions
from .bits import bits, mask_of, submasks
from .core import LinearMatroid, Matroid, UniformMatroid, direct_sum


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


def _guarded_trial(i: int, m: Matroid, check, raised: str) -> Trial:
    """Trial i from check() -> (ok, detail); an exception fails the trial
    with detail "<raised> <exception>" instead of ending the suite."""
    try:
        ok, detail = check()
    except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
        return Trial(i, False, f"{raised} {exc}", m)
    return Trial(i, ok, detail, None if ok else m)


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
        return UniformMatroid(r, rng.randint(r, r + 5))
    if roll == 1:
        return catalog.gen("u24_tower", (rng.randint(1, 2),))
    if roll == 2:
        return catalog.gen("pg", (3, 2))
    if roll == 3:
        return catalog.gen("pg", (rng.choice([2, 3]), 3))
    return _random_linear(rng, rng.choice([2, 3, 4]), 2, 4, 3, 10)


# -- planted stack instances ------------------------------------------

U24_BLOCK = ((1, 0), (0, 1), (1, 1), (1, 2))  # four points of a GF(4) line


def _blocks_matroid(nblocks: int, extras: list[list[int]],
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


def suite_thm4(trials: int, seed: int) -> SuiteResult:
    """Covering bound and the constructive cover on excluded-minor inputs."""
    rng = random.Random(seed)
    out = []
    for i in range(trials):
        q = 2 if i % 2 == 0 else 3
        b = q + 2
        m = _random_linear(rng, q, 2, 5, 4, 12)
        r = m.rank()
        bound = math.comb(b - 1, 1) ** max(r - 1, 0)
        t1 = covers.tau(m, 1).value

        def check():
            cov = covers.kdensity_cover(m, 1, b)
            union = 0
            for s in cov.sets:
                union |= s
            ranks_ok = all(m.rank(s) <= 1 for s in cov.sets)
            ok = (t1 <= bound and union == m.ground and len(cov.sets) <= bound and ranks_ok)
            return ok, f"q={q} r={r} tau1={t1} cover={len(cov.sets)} bound={bound}"

        out.append(_guarded_trial(i, m, check, "kdensity_cover raised"))
    return SuiteResult("thm4", out)


def suite_cor5(trials: int, seed: int) -> SuiteResult:
    """Both contraction inequalities on U(a,b)-safe linear matroids."""
    rng = random.Random(seed)
    out = []
    for i in range(trials):
        q = rng.choice([2, 3])
        m = _random_linear(rng, q, 2, 4, 3, 10)
        c = _proper_subset(rng, m)
        rpt = covers.check_contraction_inequalities(m, c, 1, q + 2, q + 3)
        ok = rpt.ok
        out.append(Trial(i, ok,
                         f"q={q} rC={m.rank(c)} tau_a {rpt.tau_a_mc}>={rpt.cover_bound} "
                         f"tau_d {rpt.tau_d_mc}>={rpt.weighted_bound}",
                         None if ok else m))
    return SuiteResult("cor5", out)


def suite_lem10(trials: int, seed: int) -> SuiteResult:
    """Weighted contraction inequality over the mixed corpus."""
    rng = random.Random(seed)
    out = []
    for i in range(trials):
        m = _mixed_corpus(rng)
        c = _proper_subset(rng, m)
        d = rng.randint(2, 5)
        rc = m.rank(c)
        td_m = covers.tau_weighted(m, d).value
        td_mc = covers.tau_weighted(m.contract(c), d).value
        ok = td_mc >= Fraction(td_m, d ** rc)
        out.append(Trial(i, ok, f"d={d} rC={rc} {td_mc} >= {td_m}/{d}^{rc}",
                         None if ok else m))
    return SuiteResult("lem10", out)


def suite_lem7(trials: int, seed: int) -> SuiteResult:
    """Stack projection survival on planted block stacks."""
    rng = random.Random(seed)
    out = []
    for i in range(trials):
        k = rng.choice([1, 1, 2])
        rc_target = rng.choice([0, 1, 2] if k == 1 else [0, 1])
        nblocks = k * (rc_target + 1)
        picked = rng.sample(range(nblocks), rc_target) if rc_target else []
        extras = [[b] for b in picked]
        overlap = rng.random() < 0.3 and rc_target >= 1
        loops = 1 if rc_target == 0 and rng.random() < 0.5 else 0
        m, parts = _blocks_matroid(nblocks, extras, loops=loops)
        cmask = 0
        base_cols = 4 * nblocks
        for j in range(len(extras)):
            cmask |= 1 << (base_cols + j)
        if overlap:
            # swap one extra for an element of its block: C meets E(S)
            cmask &= cmask - 1
            cmask |= 1 << (4 * picked[0])
        if loops:
            cmask |= 1 << (base_cols + len(extras))
        cert = stacks.StackCert(parts, 2, 2)

        def check():
            res = stacks.project_stack(m, cert, cmask, k)
            ok = stacks.verify_stack(m.contract(cmask), res).ok and res.height == k
            return ok, f"k={k} rC={m.rank(cmask)} overlap={overlap} parts={res.height}"

        out.append(_guarded_trial(i, m, check, "raised"))
    return SuiteResult("lem7", out)


def suite_lem8(trials: int, seed: int) -> SuiteResult:
    """Stack skewing with exact zero connectivity afterwards."""
    rng = random.Random(seed)
    out = []
    for i in range(trials):
        a = rng.choice([0, 1, 1, 2])
        h = rng.choice([1, 2] if a <= 1 else [1])
        nblocks = (a + 1) * h
        picked = rng.sample(range(nblocks), a) if a else []
        extras = [[b] for b in picked]
        loops = 1 if a == 0 else 0
        m, parts = _blocks_matroid(nblocks, extras, loops=loops)
        base_cols = 4 * nblocks
        x = 0
        for j in range(len(extras) + loops):
            x |= 1 << (base_cols + j)
        cert = stacks.StackCert(parts, 2, 2)

        def check():
            c, res = stacks.skew_stack(m, cert, x, a)
            conn = m.contract(c).local_conn(x & ~c, res.union())
            return conn == 0 and res.height == h, f"a={a} h={h} C={bin(c)} conn={conn}"

        out.append(_guarded_trial(i, m, check, "raised"))
    return SuiteResult("lem8", out)


def suite_lem9(trials: int, seed: int) -> SuiteResult:
    """Low-connectivity dense restriction, including the trivial branch."""
    rng = random.Random(seed)
    out = []
    for i in range(trials):
        q = rng.choice([2, 3])
        a, b = 1, q + 2
        roll = rng.randrange(4)
        if roll == 0:
            m = catalog.gen("pg", (3, q))
        elif roll == 1:
            m = catalog.gen("pg", (4, 2)) if q == 2 else catalog.gen("pg", (3, 3))
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

        out.append(_guarded_trial(i, m, check, "raised"))
    return SuiteResult("lem9", out)


def suite_lem11(trials: int, seed: int) -> SuiteResult:
    """Uniform-minor extraction from thick uniform matroids."""
    grid = []
    for a in (1, 2):
        for b in range(a + 2, a + 5):
            dmin = math.comb(b - 1, a) + 1
            for d in (dmin, dmin + 1):
                n = a * d  # ceil(n/a) = d
                if n >= b and n <= 16:
                    grid.append((a, b, d, n))
    out = []
    for i in range(trials):
        a, b, d, n = grid[i % len(grid)]
        m = UniformMatroid(a + 1, n)

        def check():
            c, x = covers.thick_uniform_minor(m, a, b, d)
            minor = m.contract(c)
            ok = (minor.rank(x) == a + 1 and x.bit_count() >= b and
                  all(minor.rank(s) == a + 1
                      for s in _sample_subsets(x, a + 1, 20, seed + i)))
            return ok, f"a={a} b={b} d={d} n={n} |X|={x.bit_count()}"

        out.append(_guarded_trial(i, m, check, "raised"))
    return SuiteResult("lem11", out)


def _sample_subsets(mask: int, k: int, count: int, seed: int) -> list[int]:
    els = list(bits(mask))
    rng = random.Random(seed)
    out = []
    for _ in range(min(count, 50)):
        out.append(mask_of(rng.sample(els, k)))
    return out


def suite_lem12(trials: int, seed: int) -> SuiteResult:
    """d-minimal cover structure: thick members of rank <= a, sandwich."""
    rng = random.Random(seed)
    out = []
    for i in range(trials):
        if rng.random() < 0.3:
            a, b, q = 2, 7, 2
        else:
            q = rng.choice([2, 3])
            a, b = 1, q + 2
        d = math.comb(b - 1, a) + rng.randint(1, 3)
        m = _random_linear(rng, q, a + 1, 4, 4, 10)
        res = covers.tau_weighted(m, d)
        ta = covers.tau(m, a).value
        ranks_ok = all(m.rank(f) <= a for f in res.cover.sets)
        thick_ok = all(covers.is_d_thick(m, f, d) for f in res.cover.sets)
        sandwich = ta <= res.value <= d ** a * ta
        ok = ranks_ok and thick_ok and sandwich
        out.append(Trial(i, ok,
                         f"a={a} d={d} tau_a={ta} tau_d={res.value} "
                         f"ranks_ok={ranks_ok} thick_ok={thick_ok}",
                         None if ok else m))
    return SuiteResult("lem12", out)


LEM14_SHAPES = [(3, 2, 1), (4, 2, 1), (4, 2, 2), (5, 2, 1), (3, 3, 1), (4, 3, 1)]


def suite_lem14(trials: int, seed: int) -> SuiteResult:
    """No-stack-in-projection on geometry-plus-noise premises."""
    rng = random.Random(seed)
    out = []
    for i in range(trials):
        n, q, extra = LEM14_SHAPES[i % len(LEM14_SHAPES)]
        m = catalog.gen("pg_plus_noise", (n, q, q * q, extra),
                        seed=rng.randrange(2 ** 32))
        npg = (q ** n - 1) // (q - 1)
        x = mask_of(range(npg, npg + extra))
        h = m.rank(x)

        def check():
            rpt = stacks.check_no_stack_in_projection(m, x, q, h, 3)
            summary = {t: v is None for t, v in rpt.results.items()}
            return rpt.ok, f"n={n} q={q} extra={extra} h={h} none_found={summary}"

        out.append(_guarded_trial(i, m, check, "raised"))
    return SuiteResult("lem14", out)


def suite_lem16(trials: int, seed: int) -> SuiteResult:
    """Weakly round restriction keeping the density premise."""
    rng = random.Random(seed)
    out = []
    for i in range(trials):
        roll = rng.randrange(4)
        if roll == 0:
            m = catalog.gen("pg", (3, 2))  # already weakly round
        elif roll == 1:
            m = UniformMatroid(2, rng.randint(2, 6))  # rank <= 2 branch
        elif roll == 2:
            m = direct_sum([UniformMatroid(3, 3), UniformMatroid(2, rng.randint(6, 10))])
        else:
            m = direct_sum([UniformMatroid(2, 2), _random_linear(rng, 2, 2, 3, 4, 8)])
        a = 1
        q = 2
        alpha = Fraction(covers.tau(m, a).value, q ** m.rank())

        def check():
            n = reductions.weakly_round_restriction(m, a, q, alpha)
            round_ok, _ = n.is_weakly_round()
            dens_ok = covers.tau(n, a).value >= alpha * q ** n.rank()
            return round_ok and dens_ok, f"r(M)={m.rank()} r(N)={n.rank()} alpha={alpha}"

        out.append(_guarded_trial(i, m, check, "raised"))
    return SuiteResult("lem16", out)


def suite_lem17(trials: int, seed: int) -> SuiteResult:
    """Spanning contraction preserving two restrictions."""
    rng = random.Random(seed)
    out = []
    for i in range(trials):
        roll = rng.randrange(3)
        if roll == 0:
            m = catalog.gen("pg", (4, 2))
        elif roll == 1:
            m = catalog.gen("pg", (3, rng.choice([2, 3])))
        else:
            m = UniformMatroid(3, rng.randint(5, 8))
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

        out.append(_guarded_trial(i, m, check, "raised"))
    return SuiteResult("lem17", out)


def suite_hirschfeld(trials: int, seed: int) -> SuiteResult:
    """Representability of uniform matroids at and beyond the threshold."""
    grid = []
    for a in (1, 2):
        for b in range(a + 2, 8):
            for q in (2, 3, 4, 5, 7, 8):
                if q >= b:
                    grid.append((a, b, q, True))
    for q in (2, 3, 4, 5):
        grid.append((1, q + 2, q, False))
    out = []
    for i in range(trials):
        a, b, q, expect = grid[i % len(grid)]
        got = rep.uniform_representability_fact(a, b, q)
        ok = got == expect
        out.append(Trial(i, ok, f"U_{{{a + 1},{b}}} over GF({q}): {got} expect {expect}"))
    return SuiteResult("hirschfeld", out)


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
    if lemma not in SUITES:
        raise ValueError(f"unknown lemma suite {lemma!r}; "
                         f"choose from {sorted(SUITES)}")
    return SUITES[lemma](trials, seed)
