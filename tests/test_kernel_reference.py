"""`mdl.covers`, `mdl.rep`, `mdl.gf`, `mdl.stacks` and `mdl.catalog`
against the verbatim copies of their earlier kernels in
tests/kernel_reference.py: the same covers, witnesses, cover values and
selections, re-check verdicts, matrix entries, stack parts, drawn
columns and error text on seeded corpora."""

import random
from collections import Counter

import pytest

import kernel_reference as ref
from test_echelon import with_loop_and_parallel
from mdl import catalog, covers, gf, rep, stacks
from mdl.bits import bits, mask_of
from mdl.core import LinearMatroid, Matroid, UniformMatroid, direct_sum, parallel_extension
from mdl.errors import InputError

FIELDS = (2, 3, 4, 5, 7, 8, 9)
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


def corpus():
    """Seeded (label, matroid) pairs: linear_random over every field in
    FIELDS, their contractions, restrictions and nested minors, uniform
    matroids, direct sums and parallel extensions."""
    rng = random.Random(22)
    for q in FIELDS:
        for r, n, seed in ((2, 6, 0), (3, 8, 1), (3, 10, 2), (4, 9, 3)):
            m = catalog.gen("linear_random", (r, n, q), seed=seed)
            label = f"lr({r},{n},{q})#{seed}"
            yield label, m
            e = rng.randrange(n)
            yield f"{label}/{e}", m.contract(1 << e)
            keep = rng.getrandbits(n) | 1
            yield f"{label}|{keep:b}", m.restrict(keep)
            c, d = rng.sample(range(n), 2)
            nested = m.contract(1 << c).delete(1 << d)
            low = nested.ground & -nested.ground
            yield f"{label}/{c}\\{d}/{low.bit_length() - 1}", nested.contract(low)
    for r, n in ((2, 5), (2, 7), (3, 6), (3, 8), (4, 7)):
        yield f"U({r},{n})", UniformMatroid(r, n)
    fano = catalog.gen("fano")
    lr = catalog.gen("linear_random", (2, 5, 3), seed=4)
    yield "fano+U(2,4)", direct_sum([fano, UniformMatroid(2, 4)])
    yield "lr+U(1,3)+lr/0", direct_sum([lr, UniformMatroid(1, 3), lr.contract(1)])
    yield "fano||", parallel_extension(fano, [0, 0, 3])
    yield "lr||", parallel_extension(lr, [1, 4])


CORPUS = list(corpus())


def outcome(fn, *args):
    """fn's value, or its exception's type, message and witness.  The
    message is cut before the clause naming a contracted set: the
    reference's copy of kdensity_cover does not build it."""
    try:
        return "ok", fn(*args)
    except (RuntimeError, ValueError) as exc:
        message = str(exc).split(" after contracting ")[0]
        return type(exc).__name__, message, getattr(exc, "witness", None)


@pytest.mark.parametrize("label,m", CORPUS, ids=[label for label, _ in CORPUS])
def test_kdensity_cover_matches_reference(label, m):
    raised = 0
    for a in (1, 2, 3):
        for b in (a + 1, a + 2, a + 4, 9):
            want = outcome(ref.kdensity_cover, m, a, b)
            assert outcome(covers.kdensity_cover, m, a, b) == want, (a, b)
            raised += want[0] == "UniformMinorDetected"
    if label.startswith("U("):
        assert raised  # the cap raised, and with the same witness


@pytest.mark.parametrize("label,m", CORPUS, ids=[label for label, _ in CORPUS])
def test_max_uniform_restriction_matches_reference(label, m):
    for k in (2, 3, 4):
        for cap in (None, k, k + 2):
            want = outcome(ref._max_uniform_restriction, m, k, cap)
            assert outcome(covers._max_uniform_restriction, m, k, cap) == want, (k, cap)


def test_thick_uniform_minor_matches_reference():
    found = 0
    for label, m in CORPUS + [("U(2,6)", UniformMatroid(2, 6)), ("U(3,7)", UniformMatroid(3, 7))]:
        for a, b, d in ((1, 3, 3), (1, 4, 4), (2, 4, 4), (2, 4, 7)):
            want = outcome(ref.thick_uniform_minor, m, a, b, d)
            assert outcome(covers.thick_uniform_minor, m, a, b, d) == want, (label, a, b, d)
            found += want[0] == "ok"
    assert found


def tau1_corpus():
    """Seeded matroids for tau at a = 1: linear_random over every field
    in FIELDS with a loop and a parallel column, their contractions,
    deletions and nested minors, uniform matroids, direct sums, parallel
    extensions, and members of rank 0 and 1 and with an empty ground."""
    rng = random.Random(27)
    lin = []
    for q in FIELDS:
        for r, n in ((2, 5), (3, 7), (3, 10), (4, 9)):
            m = with_loop_and_parallel(
                catalog.gen("linear_random", (r, n, q), seed=rng.randrange(2 ** 32)), rng)
            lin.append(m)
            live = list(bits(m.ground))
            c, d, e = (1 << x for x in rng.sample(live, 3))
            yield m
            yield m.contract(c)
            yield m.delete(d)
            yield m.contract(c).delete(d).contract(e)
    fano = catalog.gen("fano")
    for r, n in ((0, 0), (0, 3), (1, 1), (1, 4), (2, 5), (3, 6), (4, 4)):
        yield UniformMatroid(r, n)
    yield direct_sum([fano, UniformMatroid(2, 4), UniformMatroid(0, 2)])
    yield direct_sum([lin[1], UniformMatroid(1, 3), lin[5].contract(1 << 2)])
    yield parallel_extension(fano, [0, 0, 3])
    yield parallel_extension(lin[2], [1, 4, 4]).contract(0b1)
    yield LinearMatroid(gf.Matrix.from_columns(gf.field(3), [(0, 0)] * 3, 2))
    yield LinearMatroid(gf.Matrix.from_columns(gf.field(5), [(1, 2), (0, 0), (2, 4), (3, 1)], 2))
    yield fano.delete(fano.ground)
    yield fano.contract(0b1011)


def test_tau1_matches_search_reference():
    """tau at a = 1 reads epsilon and the points; the search on the points
    gives the same value and certificate."""
    ranks = Counter()
    for m in tau1_corpus():
        want = ref.tau(m, 1)
        assert covers.tau(m, 1) == want, m
        assert want.value == (m.epsilon() if m.rank() > 1 else int(m.ground != 0))
        ranks[min(m.rank(), 2)] += 1
        ranks["empty"] += m.ground == 0
    assert ranks[0] >= 3 and ranks[1] >= 3 and ranks[2] >= 90 and ranks["empty"] >= 2


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_tau_weighted_matches_every_level_reference(d, monkeypatch):
    """tau_weighted stops below the first level whose every flat the
    weight rule drops; reading every level gives the same value and
    certificate.  The levels the stop skips are counted: for d >= 2 it
    skips some on at least 13 members and more than the top level (E)
    on at least 2.  At d = 1 the answer is (E), and no level is read."""
    read = []
    flats_of_rank = Matroid.flats_of_rank
    monkeypatch.setattr(Matroid, "flats_of_rank",
                        lambda self, k: read.append(k) or flats_of_rank(self, k))
    skipped = Counter()
    highest = set()
    for m in tau1_corpus():
        read.clear()
        want = ref.tau_weighted(m, d)
        top = max(read, default=-1)
        read.clear()
        assert covers.tau_weighted(m, d) == want, m
        highest.add(max(read, default=-1))
        skipped[top - max(read, default=-1)] += 1
    cut = sum(n for levels, n in skipped.items() if levels)
    below_top = sum(n for levels, n in skipped.items() if levels > 1)
    if d == 1:
        assert highest == {-1}, skipped
    else:
        assert cut >= 13 and below_top >= 2, skipped


def cover_calls(monkeypatch):
    """The (universe, cands, weights) of every `_min_cover` call that tau
    and tau_weighted make over the corpus."""
    calls = []

    def record(universe, cands, weights):
        calls.append((universe, list(cands), list(weights)))
        return real(universe, cands, weights)

    real = covers._min_cover
    with monkeypatch.context() as mp:
        mp.setattr(covers, "_min_cover", record)
        for _, m in CORPUS:
            for a in (1, 2, 3):
                covers.tau(m, a)
            for d in (2, 3):
                covers.tau_weighted(m, d)
    return calls


def test_min_cover_matches_reference(monkeypatch):
    calls = cover_calls(monkeypatch)
    assert len(calls) > 300
    searched = 0
    for universe, cands, weights in calls:
        want = ref._min_cover(universe, cands, weights)
        assert covers._min_cover(universe, cands, weights) == want
        searched += want[0] > 1 and len(want[1]) > 1
    assert searched
    # an infeasible list, an empty one and an empty universe
    for universe, cands in ((0b1111, [0b0011, 0b0100]), (0b1, []), (0, [0b1]), (0, [])):
        weights = [1] * len(cands)
        assert covers._min_cover(universe, cands, weights) == ref._min_cover(universe, cands, weights)


def recheck_corpus():
    """(simp, field, assignment) triples: the assignments the search
    re-checks on the projective geometries of rank 3 and 4 within
    rep.MAX_POINTS and on restrictions of them, each followed by copies
    with one column moved to another point, two columns made equal and
    one column scaled."""
    rng = random.Random(3)
    seen = []

    def record(simp, f, assign):
        seen.append((simp, f, dict(assign)))
        return real(simp, f, assign)

    real = rep._rank_functions_match
    rep._rank_functions_match = record
    try:
        for n, q in ((3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3)):
            m = catalog.gen("pg", (n, q))
            rep.is_representable(m, q)
            for _ in range(2):
                keep = rng.getrandbits(m.n) | m.basis_of(m.ground)
                rep.is_representable(m.restrict(keep), q)
    finally:
        rep._rank_functions_match = real
    for simp, f, assign in seen:
        yield simp, f, assign
        els = sorted(assign)
        r = len(assign[els[0]])
        e, g = rng.sample(els, 2)
        used = {gf.point_index(f, v) for v in assign.values()}
        free = [p for p in range((f.q ** r - 1) // (f.q - 1)) if p not in used]
        moved = dict(assign)
        moved[e] = gf.point_vector(rng.choice(free or [gf.point_index(f, assign[g])]), f.q, r)
        yield simp, f, moved
        yield simp, f, {**assign, e: assign[g]}
        c = rng.randrange(1, f.q)
        yield simp, f, {**assign, e: tuple(f.mul(c, x) for x in assign[e])}


def test_rank_functions_match_matches_reference():
    verdicts = []
    for simp, f, assign in recheck_corpus():
        want = ref._rank_functions_match(simp, f, assign)
        assert rep._rank_functions_match(simp, f, assign) == want, (f, assign)
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def matrix_outcome(build):
    try:
        m = build()
    except InputError as exc:
        return "InputError", str(exc)
    return m.rows, m.cols, m.entries, m.columns(), [m.column(j) for j in range(m.cols)]


@pytest.mark.parametrize("q,rows,cols,entries", [
    (3, 0, 0, []),
    (3, 0, 4, []),
    (3, 2, 0, [[], []]),
    (5, 3, 4, [[0, 1, 2, 3], [4, 0, 0, 1], [2, 2, 2, 2]]),
    (2, 1, 1, [[1]]),
    (3, 2, 3, [[0, 1, 2], [2, 7, -1]]),    # first bad entry: 7
    (3, 2, 3, [[0, -2, 9], [0, 0, 0]]),    # a negative entry first
    (4, 2, 2, [[0, 1], [3, 4]]),
    (3, 2, 3, [[0, 1, 2], [0, 1]]),        # a short row
    (3, 3, 2, [[0, 1], [1, 0]]),           # a missing row
    (3, 1, 2, [[0, 1], [1, 0]]),           # an extra row
    (3, 2, 2, [[3, 0], [0, 1, 2]]),        # a bad entry and a wrong shape
])
def test_matrix_matches_reference(q, rows, cols, entries):
    f = gf.field(q)
    assert (matrix_outcome(lambda: gf.Matrix(f, rows, cols, entries))
            == matrix_outcome(lambda: ref.Matrix(f, rows, cols, entries)))
    if all(len(row) == cols for row in entries) and len(entries) == rows:
        columns = [tuple(entries[i][j] for i in range(rows)) for j in range(cols)]
        assert (matrix_outcome(lambda: gf.Matrix.from_columns(f, columns, rows))
                == matrix_outcome(lambda: ref.Matrix.from_columns(f, columns, rows)))


def test_matrix_matches_reference_on_the_catalog():
    f = gf.field(8)
    for family, params in (("pg", (3, 4)), ("linear_random", (4, 12, 8)), ("fano", ())):
        m = catalog.gen(family, params, seed=5)
        cols = m.matrix.columns()
        old = ref.Matrix.from_columns(m.field, cols, m.matrix.rows)
        assert (m.matrix.entries, m.matrix.columns()) == (old.entries, old.columns())
    rng = random.Random(8)
    cols = [tuple(rng.randrange(8) for _ in range(5)) for _ in range(30)]
    new, old = gf.Matrix.from_columns(f, cols, 5), ref.Matrix.from_columns(f, cols, 5)
    assert (new.entries, new.columns()) == (old.entries, old.columns())


def planted_projections():
    """Seeded (m, cert, C, k) in the lem7 shapes, k in {1, 2}: GF(4)
    blocks of U_{2,4} layers plus extra columns on chosen blocks.  C
    always meets the stack: each extra column joins C itself or through
    an element of a block it lies on, at least one through an element,
    and a fifth of the time one more stack element joins, which may
    break the premise r(C) <= h/k - 1."""
    from mdl.harness import _blocks_matroid

    rng = random.Random(26)
    for _ in range(150):
        k = rng.choice([1, 2])
        rc_target = rng.choice([1, 2] if k == 1 else [1])
        nblocks = k * (rc_target + 1)
        extras = [rng.sample(range(nblocks), rng.choice([1, 1, 2])) for _ in range(rc_target)]
        loops = rng.choice([0, 0, 1])
        m, parts = _blocks_matroid(nblocks, extras, loops=loops)
        through = rng.randrange(1 << rc_target) or 1
        c = mask_of(range(4 * nblocks + len(extras), 4 * nblocks + len(extras) + loops))
        for i, support in enumerate(extras):
            c |= 1 << (4 * rng.choice(support) + rng.randrange(4) if through >> i & 1
                       else 4 * nblocks + i)
        if rng.random() < 0.2:
            c |= 1 << rng.randrange(4 * nblocks)
        yield m, stacks.StackCert(parts, 2, 2), c, k


def test_project_stack_matches_parallel_extension_reference():
    kinds = Counter()
    for m, cert, c, k in planted_projections():
        want = outcome(ref.project_stack, m, cert, c, k)
        assert outcome(stacks.project_stack, m, cert, c, k) == want, (cert.parts, c, k)
        if want[0] == "ok":
            want = want[1].parts
            kinds["folded" if want[0] & ~cert.parts[0] else "verbatim"] += 1
        else:
            kinds[want[0]] += 1
    assert kinds["folded"] >= 20 and kinds["verbatim"] >= 10, kinds


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_random_columns_match_randrange_reference(q):
    """Entries drawn by getrandbits with rejection are randrange's: the
    same columns, and the generator left in the same state."""
    for rows in range(1, 7):
        for seed in range(3):
            got, want = random.Random(seed), random.Random(seed)
            assert (catalog._random_columns(got, 12, rows, q)
                    == ref._random_columns(want, 12, rows, q)), (rows, seed)
            assert got.random() == want.random()
