"""The GF(q) echelon kernel against a reference that does no elimination.

The reference grows the span of a family as an explicit set of vectors,
one generator at a time: a generator already in the set adds nothing,
any other one raises the rank by 1 and multiplies the set by q.  Linear
matroids built on the kernel must agree with a matroid whose rank oracle
is that reference and whose closure and flats come from the generic
`Matroid` scans, on a seeded corpus with loops and parallel columns.
So must direct sums, which answer closures and flat steps part by part,
against a sum ranked part by part with those same scans.  Both sides of
those comparisons build flats with the same level loop, so every level
is also checked against flats grown from rank queries alone.
"""

import random

import pytest

from mdl import catalog, gf
from mdl.bits import bits, mask_of, submasks
from mdl.core import (DirectSumMatroid, LinearMatroid, Matroid, MinorMatroid, UniformMatroid,
                      direct_sum, parallel_extension)

QS = [2, 3, 4, 5, 7, 8, 9]


def span_rank(f, rows, vectors):
    span = {(0,) * rows}
    rank = 0
    for v in vectors:
        v = tuple(v)
        if v in span:
            continue
        multiples = [tuple(f.mul_table[c][x] for x in v) for c in range(f.q)]
        span = {tuple(f.add_table[a][b] for a, b in zip(s, w))
                for s in span for w in multiples}
        rank += 1
    return rank


class SpanMatroid(Matroid):
    """Column matroid ranked by span_rank; closure and flats_of_rank are
    the base class scans over that rank."""

    kind = "span_reference"

    def __init__(self, f, rows, columns):
        super().__init__(len(columns), (1 << len(columns)) - 1)
        self.f, self.rows, self.columns = f, rows, columns

    def _rank_impl(self, x):
        return span_rank(self.f, self.rows, [self.columns[e] for e in bits(x)])


def with_loop_and_parallel(m, rng):
    """m's columns plus a zero column and a nonzero multiple of one column,
    each inserted at a random position."""
    f, rows = m.field, m.matrix.rows
    cols = list(m.matrix.columns())
    c = rng.randrange(1, f.q)
    twin = tuple(f.mul_table[c][x] for x in rng.choice(cols))
    cols.insert(rng.randint(0, len(cols)), twin)
    cols.insert(rng.randint(0, len(cols)), (0,) * rows)
    return LinearMatroid(gf.Matrix.from_columns(f, cols, rows))


def corpus(q):
    rng = random.Random(1306 + q)
    rmax = 4 if q <= 5 else 3
    out = []
    for _ in range(3):
        r = rng.randint(2, rmax)
        n = rng.randint(r + 1, 8)
        out.append(catalog.gen("linear_random", (r, n, q), seed=rng.randrange(2 ** 32)))
    out.append(catalog.gen("pg", (3 if q <= 4 else 2, q)))
    if q == 2:
        out.append(catalog.gen("pg", (4, 2)))
    return [with_loop_and_parallel(m, rng) for m in out]


@pytest.mark.parametrize("q", QS)
def test_kernel_matches_span_reference(q):
    rng = random.Random(q)
    for lin in corpus(q):
        f, rows = lin.field, lin.matrix.rows
        cols = lin.matrix.columns()
        vecs = [gf.vector(f, c) for c in cols]
        ref = SpanMatroid(f, rows, cols)
        subsets = [lin.ground, 0] + [rng.getrandbits(lin.n) for _ in range(40)]
        for x in subsets:
            r = ref.rank(x)
            pivots = gf.echelon(f, vecs, x)
            assert len(pivots) == r
            assert lin.rank(x) == r
            assert gf.rank_of_vectors(f, [cols[e] for e in bits(x)]) == r
            cl = ref.closure(x)
            assert lin.closure(x) == cl
            assert gf.spanned(f, pivots, vecs, lin.ground) == cl
        for k in range(lin.rank() + 2):
            assert lin.flats_of_rank(k) == ref.flats_of_rank(k), (q, k)


def minors(m, rng):
    """A single contraction, a single deletion and a contract-then-delete
    minor on seeded element sets, each as a function of the matroid."""
    live = list(bits(m.ground))
    c = mask_of(rng.sample(live, rng.randint(1, 2)))
    d = mask_of(rng.sample([e for e in live if not c >> e & 1], rng.randint(1, 2)))
    return [lambda n: n.contract(c), lambda n: n.delete(d),
            lambda n: n.contract(c).delete(d)]


def levels_by_extension(m):
    """The flats of every rank, 0 to r(M), each level ascending: rank-k
    flats as closures of single-element extensions of rank-(k-1) flats,
    closures taken from rank queries alone.  Extensions by an element
    already in a closure found from the same flat are skipped, since they
    close to that flat."""

    def cl(x):
        r = m.rank(x)
        return x | sum(1 << e for e in bits(m.ground & ~x) if m.rank(x | 1 << e) == r)

    levels = [[cl(0)]]
    for _ in range(m.rank()):
        level = set()
        for f in levels[-1]:
            rest = m.ground & ~f
            while rest:
                g = cl(f | rest & -rest)
                level.add(g)
                rest &= ~g
        levels.append(sorted(level))
    return levels


@pytest.mark.parametrize("q", QS)
def test_minor_flats_match_span_reference(q):
    rng = random.Random(2024 + q)
    for lin in corpus(q):
        ref = SpanMatroid(lin.field, lin.matrix.rows, lin.matrix.columns())
        for i, minor in enumerate(minors(lin, rng)):
            lm, rm = minor(lin), minor(ref)
            assert lm.ground == rm.ground
            by_extension = levels_by_extension(rm)
            for k in range(lm.rank() + 2):
                flats = rm.flats_of_rank(k)
                assert lm.flats_of_rank(k) == flats, (q, i, k)
                if k <= lm.rank():
                    assert flats == by_extension[k], (q, i, k)


def nested_minors(m, rng):
    """minors(m) plus a minor of a minor of a minor."""
    live = list(bits(m.ground))
    c, d, e = (1 << x for x in rng.sample(live, 3))
    return minors(m, rng) + [lambda n: n.contract(c).delete(d).contract(e)]


def check_minor_closures(m, minor_of, rng, ref=None):
    """Each minor's closure equals the base closure of X plus the
    contracted set, cut to the minor's ground; also on ref's minors."""
    for minor in minor_of(m, rng):
        mm = minor(m)
        for _ in range(30):
            x = rng.getrandbits(m.n) & rng.getrandbits(m.n) & mm.ground
            cl = m.closure(x | mm.contracted) & mm.ground
            assert mm.closure(x) == cl
            if ref is not None:
                assert minor(ref).closure(x) == cl


@pytest.mark.parametrize("q", QS)
def test_minor_closure_matches_base_closure(q):
    rng = random.Random(8192 + q)
    for lin in corpus(q):
        ref = SpanMatroid(lin.field, lin.matrix.rows, lin.matrix.columns())
        check_minor_closures(lin, nested_minors, rng, ref)


def test_minor_closure_of_other_kinds():
    """Minors of uniform, direct-sum and parallel-extension matroids close
    through their base's own closure."""
    rng = random.Random(8191)
    fano = catalog.gen("pg", (3, 2))
    for m in (UniformMatroid(3, 7), direct_sum([UniformMatroid(2, 4), fano]),
              parallel_extension(fano, [0, 3, 3])):
        check_minor_closures(m, nested_minors, rng)


def grouped_by_closure(m, x, mask):
    """The elements e of mask grouped by m.closure(x + e), least first."""
    groups = {}
    for e in bits(mask):
        key = m.closure(x | 1 << e)
        groups[key] = groups.get(key, 0) | 1 << e
    return list(groups.values())


def classes_by_closure(m, x, mask):
    """mask & m.closure(x), then the rest of mask grouped_by_closure."""
    cl = m.closure(x)
    return [mask & cl, *grouped_by_closure(m, x, mask & ~cl)]


@pytest.mark.parametrize("q", QS)
def test_classes_match_closure_grouping(q):
    rng = random.Random(4096 + q)
    for lin in corpus(q):
        f, cols = lin.field, lin.matrix.columns()
        vecs = [gf.vector(f, c) for c in cols]
        ref = SpanMatroid(f, lin.matrix.rows, cols)
        for _ in range(30):
            x = rng.getrandbits(lin.n) & rng.getrandbits(lin.n)
            outside = lin.ground & ~ref.closure(x)
            part = rng.getrandbits(lin.n)
            for mask in (outside, outside & part, lin.ground, lin.ground & part):
                expected = classes_by_closure(ref, x, mask)
                assert gf.classes(f, gf.echelon(f, vecs, x), vecs, mask) == expected
                assert lin._classes(x, mask) == expected


def test_classes_contract_on_every_kind():
    """For each kind of matroid and its minors, `_classes(x, mask)` with
    mask meeting cl(x) is mask & cl(x), then the rest of mask grouped by
    closure in order of least elements; a mask missing cl(x) gets 0
    first."""
    rng = random.Random(2727)
    fano = catalog.gen("pg", (3, 2))
    kinds = [corpus(3)[0], corpus(2)[3], UniformMatroid(3, 7), UniformMatroid(0, 4),
             UniformMatroid(1, 5), UniformMatroid(5, 8),
             direct_sum([UniformMatroid(2, 4), fano, corpus(5)[1]]),
             direct_sum([UniformMatroid(3, 5), UniformMatroid(1, 3), UniformMatroid(2, 2)]),
             parallel_extension(fano, [0, 3, 3]), parallel_extension(corpus(4)[2], [1, 1])]
    checked = {"meets": 0, "misses": 0}
    for m in kinds:
        for mm in [m] + [minor(m) for minor in nested_minors(m, rng)]:
            for _ in range(20):
                x = rng.getrandbits(m.n) & rng.getrandbits(m.n) & mm.ground
                cl = mm.closure(x)
                for mask in (mm.ground, rng.getrandbits(m.n) & mm.ground | cl & -cl,
                             mm.ground & ~cl):
                    got = mm._classes(x, mask)
                    assert got[0] == mask & cl, (mm, x, mask)
                    assert got == classes_by_closure(mm, x, mask), (mm, x, mask)
                    checked["meets" if mask & cl else "misses"] += 1
    assert checked["meets"] > 300 and checked["misses"] > 300


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("n, q, k, count", [
    (4, 4, 2, 357), (4, 4, 3, 85), (5, 3, 3, 1210), (3, 9, 2, 91), (5, 3, 2, 1210)])
def test_geometry_flat_counts(n, q, k, count):
    """Rank-k flats of PG(n-1, q) are the k-dimensional subspaces of GF(q)^n."""
    assert gaussian_binomial(n, k, q) == count
    assert len(catalog.gen("pg", (n, q)).flats_of_rank(k)) == count


def test_vector_encoding():
    assert gf.vector(gf.field(2), (1, 0, 1, 1)) == 0b1101
    assert gf.vector(gf.field(3), [2, 0, 1]) == (2, 0, 1)
    # plain GF(2) tuples still rank through the public wrapper
    assert gf.rank_of_vectors(gf.field(2), [(1, 0, 1), (0, 1, 1), (1, 1, 0)]) == 2


class SumReference(Matroid):
    """Direct sum ranked part by part through an element-by-element map,
    with the base class scans for everything else."""

    kind = "sum_reference"

    def __init__(self, parts):
        self.where = [(part, e) for part in parts for e in bits(part.ground)]
        super().__init__(len(self.where))
        self.parts = parts

    def _rank_impl(self, x):
        local = {id(part): 0 for part in self.parts}
        for g in bits(x):
            part, e = self.where[g]
            local[id(part)] |= 1 << e
        return sum(part.rank(local[id(part)]) for part in self.parts)


def sum_corpus(q):
    """Direct sums over GF(q), each as (sum, reference): uniform parts
    (loops and parallel classes among them), linear parts with a loop and
    a parallel column, a minor with holes in its live elements, an empty
    part and a nested sum.  Every part is in both; each nested sum is
    rebuilt as a SumReference in the reference."""
    rng = random.Random(5150 + q)
    lin = corpus(q)

    def minor_of(m):
        live = list(bits(m.ground))
        c = mask_of(rng.sample(live, 1))
        d = mask_of(rng.sample([e for e in live if not c >> e & 1], 2))
        return m.contract(c).delete(d)

    a, b, c = lin[:3]
    holed = minor_of(lin[rng.randrange(3)])
    inner = [UniformMatroid(1, 2), minor_of(a)]
    sums = [[a, UniformMatroid(0, 1), UniformMatroid(1, 2)],
            [UniformMatroid(2, 3), b, UniformMatroid(0, 0)],
            [c, UniformMatroid(3, 3), c.delete(c.ground)],
            [holed, UniformMatroid(1, 2)]]
    out = [(direct_sum(parts), SumReference(parts)) for parts in sums]
    out.append((direct_sum([direct_sum(inner), holed]),
                SumReference([SumReference(inner), holed])))
    return out


def check_direct_sum(m, ref, rng):
    assert m.ground == ref.ground and m.rank() == ref.rank()
    for _ in range(25):
        x = rng.getrandbits(m.n) & rng.getrandbits(m.n) & m.ground
        mask = rng.getrandbits(m.n) & m.ground
        cl = ref.closure(x)
        assert m.closure(x) == cl
        assert m._spanned(x, mask) == ref._spanned(x, mask)
        outside = m.ground & ~cl
        for sub in (outside, outside & mask, mask, m.ground):
            assert m._classes(x, sub) == ref._classes(x, sub) == classes_by_closure(ref, x, sub)
    for k in range(m.rank() + 2):
        assert m.flats_of_rank(k) == ref.flats_of_rank(k), k


@pytest.mark.parametrize("q", QS)
def test_direct_sum_matches_rank_reference(q):
    """Closures, spans, flat steps (groups and their order) and flats of
    direct sums and of their minors equal the generic scans'."""
    rng = random.Random(7000 + q)
    for m, ref in sum_corpus(q):
        check_direct_sum(m, ref, rng)
        for minor in nested_minors(m, rng):
            check_direct_sum(minor(m), minor(ref), rng)


def test_direct_sum_flats_take_no_closure(monkeypatch):
    """flats_of_rank of a direct sum takes no closure: cl(∅), the points
    and every later flat step come from the parts' `_classes` (it used to
    close the empty set once)."""
    calls = []
    closure = DirectSumMatroid.closure
    monkeypatch.setattr(DirectSumMatroid, "closure", lambda self, x: calls.append(x) or closure(self, x))
    for q in (2, 5):
        for m, ref in sum_corpus(q):
            calls.clear()
            for k in range(m.rank() + 1):
                m.flats_of_rank(k)
            assert calls == []


@pytest.mark.parametrize("q", [2, 3, 9])
def test_minor_bottom_levels_take_one_elimination(q, monkeypatch):
    """Levels 0 and 1 of a contraction of a linear matroid take one
    `gf.echelon` call, of the contracted set, and no closure (they took
    two eliminations and one closure: cl(∅), then the points)."""
    counts = {"closures": 0, "eliminations": 0}
    closure, echelon = Matroid.closure, gf.echelon

    def counted_closure(self, x):
        counts["closures"] += 1
        return closure(self, x)

    def counted_echelon(*args):
        counts["eliminations"] += 1
        return echelon(*args)

    rng = random.Random(31 + q)
    for lin in corpus(q):
        live = list(bits(lin.ground))
        m = lin.contract(mask_of(rng.sample(live, 2)))
        m.rank()
        monkeypatch.setattr(Matroid, "closure", counted_closure)
        monkeypatch.setattr(gf, "echelon", counted_echelon)
        levels = [m.flats_of_rank(0), m.flats_of_rank(1)]
        monkeypatch.undo()
        assert counts == {"closures": 0, "eliminations": 1 if m.rank() else 0}, lin
        counts.update(closures=0, eliminations=0)
        assert levels == (levels_by_extension(m) + [[]])[:2]


def check_levels_by_extension(m):
    """Every level of m.flats_of_rank is strictly ascending and equals the
    level grown by levels_by_extension."""
    want = levels_by_extension(m)
    for k, level in enumerate(want):
        got = m.flats_of_rank(k)
        assert all(a < b for a, b in zip(got, got[1:])), k
        assert got == level, k
    assert m.flats_of_rank(len(want)) == []


@pytest.mark.parametrize("q", QS)
def test_flat_levels_match_extension_reference(q):
    """Linear matroids, direct sums and their nested minors, whose flats
    come from one `_classes` pass per parent, against flats grown from
    rank queries alone (the span and sum references above share the
    level loop, so they cannot catch a fault in it)."""
    rng = random.Random(9100 + q)
    for m in corpus(q) + [s for s, _ in sum_corpus(q)]:
        check_levels_by_extension(m)
        for minor in nested_minors(m, rng):
            check_levels_by_extension(minor(m))


def test_flat_levels_of_other_kinds_match_extension_reference():
    fano = catalog.gen("pg", (3, 2))
    for m in (UniformMatroid(0, 3), UniformMatroid(1, 4), UniformMatroid(3, 6),
              UniformMatroid(4, 4), UniformMatroid(2, 5).delete(0b10),
              parallel_extension(fano, [0, 3, 3]),
              parallel_extension(UniformMatroid(3, 5), [4, 0]).contract(0b10),
              UniformMatroid(5, 8), UniformMatroid(2, 8).contract(0b1000),
              UniformMatroid(4, 9).contract(0b11).delete(0b100).contract(0b100000),
              direct_sum([UniformMatroid(3, 5), UniformMatroid(1, 3), UniformMatroid(0, 2)]),
              direct_sum([UniformMatroid(2, 4), UniformMatroid(3, 4)]).contract(0b10001)):
        check_levels_by_extension(m)


def uniform_kinds():
    """U(r, n) for every r <= 5 and n <= 8, direct sums of three of
    them on at most 9 elements, and nested minors of both."""
    rng = random.Random(2828)
    parts = [UniformMatroid(r, n) for n in range(9) for r in range(min(n, 5) + 1)]
    small = [p for p in parts if p.n <= 3]
    sums = [direct_sum(rng.sample(small, 3)) for _ in range(8)]
    out = []
    for m in parts + sums:
        out.append(m)
        if m.size() >= 5:
            out += [minor(m) for minor in nested_minors(m, rng)]
    return out


def test_uniform_classes_match_rank_scan():
    """`UniformMatroid._classes` by rule equals the rank-scan default
    `Matroid._classes` for every x: on U(r, n) itself, inside direct
    sums and through nested minors."""
    rng = random.Random(2929)
    checked = {"meets": 0, "misses": 0}
    for m in uniform_kinds():
        for x in submasks(m.ground):
            part = rng.getrandbits(m.n) & m.ground
            for mask in (m.ground, m.ground & ~x, part | x & -x, part & ~x):
                assert m._classes(x, mask) == Matroid._classes(m, x, mask), (m, x, mask)
                checked["meets" if mask & x else "misses"] += 1
    assert checked["meets"] > 5000 and checked["misses"] > 5000


def test_uniform_flats_take_no_closure_and_no_rank_query(monkeypatch):
    """Every level of U(4, 9) and of a contraction of it comes from the
    rule: no closure and no rank query once the rank is known."""
    counts = {"closures": 0, "ranks": 0}
    closure, rank, minor_rank = Matroid.closure, Matroid.rank, MinorMatroid.rank

    def counted_closure(self, x):
        counts["closures"] += 1
        return closure(self, x)

    def counted(real):
        def counted_rank(self, x=None):
            counts["ranks"] += x is not None
            return real(self, x)
        return counted_rank

    for m in (UniformMatroid(4, 9), UniformMatroid(4, 9).contract(0b100100)):
        m.rank()
        monkeypatch.setattr(Matroid, "closure", counted_closure)
        monkeypatch.setattr(Matroid, "rank", counted(rank))
        monkeypatch.setattr(MinorMatroid, "rank", counted(minor_rank))
        levels = [m.flats_of_rank(k) for k in range(m.rank() + 1)]
        monkeypatch.undo()
        assert counts == {"closures": 0, "ranks": 0}, m
        assert levels == levels_by_extension(m)
