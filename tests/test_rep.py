"""Representability oracle vs an independent exhaustive enumerator."""

import hashlib
import random

import pytest

import rep_reference
from mdl import catalog, gf, harness, rep, stacks
from mdl.bits import bits, mask_of, submasks
from mdl.core import LinearMatroid, UniformMatroid, direct_sum, parallel_extension
from mdl.errors import CapExceeded


def brute_representable(m, q):
    """Independent oracle: enumerate assignments of projective points.

    Fixes a greedy basis to identity columns (any representation can be
    changed to this form), then tries every point for every remaining
    element, checking rank agreement on all subsets of the assigned
    prefix at each step.  No flats, no constraint propagation.
    """
    f = gf.field(q)
    simp, _ = m.simplify()
    els = sorted(simp.elements())
    r = m.rank()
    if not els or r <= 1:
        return True
    points = gf.normalized_vectors(f, r)
    basis = simp.basis_of(simp.ground)
    order = sorted(bits(basis)) + [e for e in els if not (basis >> e) & 1]
    unit = [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]

    def ranks_agree(assign):
        keys = list(assign)
        kmask = 0
        for e in keys:
            kmask |= 1 << e
        for sub in submasks(kmask):
            vecs = [assign[e] for e in bits(sub)]
            if gf.rank_of_vectors(f, vecs) != simp.rank(sub):
                return False
        return True

    def go(idx, assign):
        if idx == len(order):
            return True
        e = order[idx]
        pool = [unit[idx]] if idx < r else points
        for v in pool:
            assign[e] = v
            if ranks_agree(assign) and go(idx + 1, assign):
                return True
            del assign[e]
        return False

    return go(0, {})


TINY = {
    "u23": UniformMatroid(2, 3),
    "u24": UniformMatroid(2, 4),
    "u25": UniformMatroid(2, 5),
    "fano": catalog.gen("pg", (3, 2)),
}

# classical verdicts, frozen: U_{2,n} needs a field with >= n line points;
# the Fano plane is representable exactly in characteristic 2
EXPECTED = {
    ("u23", 2): True, ("u23", 3): True, ("u23", 4): True, ("u23", 5): True,
    ("u24", 2): False, ("u24", 3): True, ("u24", 4): True, ("u24", 5): True,
    ("u25", 2): False, ("u25", 3): False, ("u25", 4): True, ("u25", 5): True,
    ("fano", 2): True, ("fano", 3): False, ("fano", 4): True, ("fano", 5): False,
}


@pytest.mark.parametrize("name,q", sorted(EXPECTED))
def test_oracle_matches_brute_force_and_table(name, q):
    m = TINY[name]
    expected = EXPECTED[(name, q)]
    assert brute_representable(m, q) == expected
    assert rep.is_representable(m, q).representable == expected


def test_hirschfeld_fact_u25_gf5():
    assert rep.uniform_representability_fact(1, 5, 5)
    assert not rep.uniform_representability_fact(1, 5, 3)
    assert rep.uniform_representability_fact(1, 3, 2)


def test_uniform_fact_caps():
    with pytest.raises(CapExceeded):
        rep.uniform_representability_fact(3, 6, 2)
    with pytest.raises(CapExceeded):
        rep.uniform_representability_fact(1, 8, 8)


def test_cap_message_names_the_exceeded_limit():
    with pytest.raises(CapExceeded) as exc:
        rep.is_representable(UniformMatroid(6, 6), 2)
    assert str(exc.value) == "representability cap: rank 6 > 5"
    with pytest.raises(CapExceeded) as exc:
        rep.is_representable(catalog.gen("pg", (4, 4)), 4)
    assert str(exc.value) == "representability cap: 85 points > 40"


def test_returned_matrix_is_sound():
    for m, q in [(TINY["fano"], 2), (TINY["u24"], 3), (TINY["u25"], 4)]:
        res = rep.is_representable(m, q)
        assert res.representable
        lin = LinearMatroid(res.matrix)
        for x in submasks(m.ground):
            assert lin.rank(x) == m.rank(x)


def test_matrix_handles_loops_and_parallels():
    f = gf.field(2)
    cols = [(1, 0), (1, 0), (0, 0), (0, 1)]
    m = LinearMatroid(gf.Matrix.from_columns(f, cols, 2))
    res = rep.is_representable(m, 2)
    assert res.representable
    assert res.matrix.column(2) == (0, 0)
    assert res.matrix.column(0) == res.matrix.column(1)


def test_minor_closure_of_representability():
    fano = catalog.gen("pg", (3, 2))
    for e in list(fano.elements())[:4]:
        assert rep.is_representable(fano.contract(1 << e), 2).representable
        assert rep.is_representable(fano.delete(1 << e), 2).representable


def test_subfield_monotonicity():
    for m, q in [(TINY["u24"], 3), (TINY["fano"], 2)]:
        assert rep.is_representable(m, q).representable
        assert rep.is_representable(m, q * q).representable


def test_uniform_line_exhaustion():
    for q in (2, 3, 4):
        m = UniformMatroid(2, q + 2)
        assert not rep.is_representable(m, q).representable


def test_is_pg_examples():
    pg33 = catalog.gen("pg", (3, 3))
    assert rep.is_pg(pg33, 3, 3)
    fano = catalog.gen("pg", (3, 2))
    assert rep.is_pg(fano, 3, 2)
    assert not rep.is_pg(fano.delete(0b1), 3, 2)  # 6 points, not 7
    assert not rep.is_pg(UniformMatroid(3, 7), 3, 2)


def test_is_pg_refuses_non_field_orders():
    # q = 1 used to reach the point-count formula and divide by zero
    fano = catalog.gen("pg", (3, 2))
    for q in (1, 6, 0, -2):
        with pytest.raises(ValueError, match="prime power"):
            rep.is_pg(fano, 3, q)


def test_is_pg_embedded_geometry():
    # PG(3,2) points read over GF(4) is still the binary geometry
    m = catalog.gen("pg_plus_noise", (4, 2, 4, 0))
    assert rep.is_pg(m, 4, 2)
    assert not rep.is_pg(m, 4, 3)


def test_caps_enforced():
    with pytest.raises(CapExceeded):
        rep.is_representable(UniformMatroid(6, 8), 2)
    big = catalog.gen("pg", (4, 3))  # 40 points is at cap; 41 would not be
    assert rep.is_representable(big, 3).representable
    assert rep.is_pg(big, 4, 3)
    over = catalog.gen("pg_plus_noise", (4, 3, 9, 1), seed=0)
    assert over.epsilon() == 41
    with pytest.raises(CapExceeded, match="41 points > 40"):
        rep.is_representable(over, 9)


def test_rank_zero_and_one():
    f = gf.field(3)
    loops = LinearMatroid(gf.Matrix.from_columns(f, [(0,), (0,)], 1))
    res = rep.is_representable(loops, 3)
    assert res.representable
    assert all(v == (0,) for v in res.matrix.columns())
    par = LinearMatroid(gf.Matrix.from_columns(f, [(1,), (2,)], 1))
    assert rep.is_representable(par, 2).representable


def low_rank_corpus(q):
    """Rank-0 and rank-1 inputs over GF(q): all-loop matrices, one point
    with parallels and loops, U(0,n), U(1,n) and contractions to rank 1."""
    f = gf.field(q)
    for rows, n in ((0, 0), (0, 2), (1, 1), (2, 3)):
        yield LinearMatroid(gf.Matrix.from_columns(f, [(0,) * rows] * n, rows))
    c = 2 % q if q > 2 else 1
    yield LinearMatroid(gf.Matrix.from_columns(f, [(0, 0), (1, 0), (0, 0), (c, 0)], 2))
    for n in (0, 1, 3):
        yield UniformMatroid(0, n)
    for n in (1, 2, 5):
        yield UniformMatroid(1, n)
    m = catalog.gen("linear_random", (3, 7, q), seed=q)
    assert m.rank() == 3
    yield m.contract(mask_of(list(bits(m.basis_of(m.ground)))[:2]))
    yield UniformMatroid(3, 5).contract(0b11)


def test_low_rank_search_matches_reference():
    """Rank 0 and rank 1 go through the general search: the same verdict
    and matrix as the reference's early exits."""
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in low_rank_corpus(q):
            assert m.rank() <= 1
            want, _ = rep_reference.reference_is_representable(m, q)
            got = rep.is_representable(m, q)
            assert got.representable == want.representable, (m, q)
            assert got.matrix.columns() == want.matrix.columns(), (m, q)
            checked += 1
    assert checked == 7 * 13


# -- the flat re-check against an all-subsets reference ---------------------


def subsets_rank_match(simp, f, assign):
    """Reference: compare ranks on every subset of simp's ground set."""
    return all(simp.rank(x) == gf.rank_of_vectors(f, [assign[e] for e in bits(x)])
               for x in submasks(simp.ground))


def rank_match_corpus(q):
    """Simple matroids over GF(q) with their columns, plus perturbed copies.

    The perturbations scale a column (the rank function is kept), replace
    a column by a random vector, swap two columns, or lift one column
    out of the others' space by an extra coordinate, so both verdicts
    occur.
    """
    rng = random.Random(q)
    f = gf.field(q)
    geometry = ("pg", (3, q)) if q <= 3 else ("pg", (2, q))
    for family, params, seed in [(*geometry, 0), ("linear_random", (3, 9, q), 0),
                                 ("linear_random", (4, 9, q), 1)]:
        m = catalog.gen(family, params, seed=seed)
        simp, _ = m.simplify()
        els = sorted(simp.elements())
        true = {e: m.matrix.column(e) for e in els}
        yield simp, f, true
        for _ in range(4):
            assign = dict(true)
            e, g = rng.sample(els, 2)
            kind = rng.randrange(4)
            if kind == 0:
                c = rng.randrange(1, q)
                assign[e] = tuple(f.mul(c, a) for a in assign[e])
            elif kind == 1:
                assign[e] = tuple(rng.randrange(q) for _ in assign[e])
            elif kind == 2:
                assign[e], assign[g] = assign[g], assign[e]
            else:
                assign = {x: v + (int(x == e),) for x, v in assign.items()}
            yield simp, f, assign


def test_rank_functions_match_against_all_subsets():
    verdicts = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        for simp, f, assign in rank_match_corpus(q):
            want = subsets_rank_match(simp, f, assign)
            assert rep._rank_functions_match(simp, f, assign) == want, (q, assign)
            verdicts.append(want)
    assert True in verdicts and False in verdicts


def long_line_corpus():
    """Seeded (label, matroid, q) inputs for the long-line exit.

    linear_random matroids checked over their own field (all True);
    lem7-style GF(4) block stacks, contracted and restricted to a run of
    blocks (layers of rank 2 to 5), checked over GF(2) and GF(3); and
    restrictions of PG(2,4) and PG(2,3) checked over GF(2).
    """
    rng = random.Random(1313)
    for q in (2, 3, 4, 5, 7, 8, 9):
        for r in (2, 3, 3, 4) if q <= 4 else (2, 3):
            n = rng.randint(r + 1, 9 if q <= 4 else 8)
            seed = rng.randrange(2 ** 32)
            yield f"linear_random {r} {n} {q} seed {seed}", \
                catalog.gen("linear_random", (r, n, q), seed=seed), q
    for nblocks in (2, 3):
        extras = [[b] for b in rng.sample(range(nblocks), 2)] + [[0, nblocks - 1]]
        m, parts = harness._blocks_matroid(nblocks, extras, loops=1)
        # contract nothing, the loop, or one extra column: a contracted
        # extra folds the blocks it is supported on
        for c in [0] + [1 << e for e in bits(m.ground & ~mask_of(range(4 * nblocks)))]:
            mc = m.contract(c)
            for lo in range(nblocks):
                for hi in range(lo + 1, nblocks + 1):
                    layer = mc.restrict(sum(parts[lo:hi]) & mc.ground)
                    if 2 <= layer.rank() <= rep.MAX_RANK:
                        for q in (2, 3):
                            yield f"blocks {nblocks} {extras} c={c} {lo}:{hi} q={q}", layer, q
    for n, q in ((3, 4), (3, 3)):
        pg = catalog.gen("pg", (n, q))
        for size in (4, 6, 8, 10):
            keep = mask_of(rng.sample(list(bits(pg.ground)), size))
            yield f"pg {n} {q} keep {keep:#x}", pg.restrict(keep), 2


# verdict_digest() as the plain search gave it, before the long-line exit
LONG_LINE_DIGEST = "dd558756f03bdd1741f8af9f1510c4ec213e57fc2f8f8b6e2914e32ff6f44232"


def verdict_digest():
    """sha256 of every input's verdict and matrix, one line per input."""
    h = hashlib.sha256()
    for label, m, q in long_line_corpus():
        res = rep.is_representable(m, q)
        cols = res.matrix.columns() if res.matrix is not None else None
        h.update(f"{label}|{res.representable}|{cols}\n".encode())
    return h.hexdigest()


def test_long_line_exit_keeps_verdicts_and_matrices():
    """The same verdicts and matrices as the plain search gives."""
    assert verdict_digest() == LONG_LINE_DIGEST


def test_long_line_never_reaches_the_search(monkeypatch):
    """With no node allowed, inputs with a line of more than q+1 points
    still answer False, while one without such a line hits the budget."""
    monkeypatch.setattr(rep, "NODE_CAP", 0)
    long_lines = [(UniformMatroid(2, 4), 2), (UniformMatroid(2, 5), 3), (UniformMatroid(2, 10), 8),
                  (catalog.gen("pg", (3, 3)), 2), (catalog.gen("pg", (3, 4)), 3)]
    for label, m, q in long_line_corpus():
        if any(ln.bit_count() > q + 1 for ln in m.simplify()[0].flats_of_rank(2)):
            long_lines.append((m, q))
    assert len(long_lines) > 20
    for m, q in long_lines:
        assert rep.is_representable(m, q) == rep.RepResult(False, None)
    with pytest.raises(CapExceeded):
        rep.is_representable(catalog.gen("pg", (3, 2)), 3)


# -- the search over point indices against the tuple-based reference --------


def test_point_indices_are_lex_ranks():
    """gf.point_vector and gf.point_index agree with gf.normalized_vectors
    (held to a recursive enumerator in test_gf), scaled or not."""
    rng = random.Random(15)
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = gf.field(q)
        for r in (1, 2, 3, 4):
            pts = gf.normalized_vectors(f, r)
            assert [gf.point_vector(i, q, r) for i in range(len(pts))] == pts
            for i, v in enumerate(pts):
                c = rng.randrange(1, q)
                assert gf.point_index(f, v) == gf.point_index(f, [f.mul(c, x) for x in v]) == i


def test_span_against_ranks():
    """_span holds exactly the points whose vector adds no rank."""
    rng = random.Random(151)
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = gf.field(q)
        for r in (2, 3, 4):
            pts = gf.normalized_vectors(f, r)
            for _ in range(4):
                chosen = rng.sample(range(len(pts)), rng.randint(1, r + 1))
                vecs = [pts[i] for i in chosen]
                k = gf.rank_of_vectors(f, vecs)
                want = {i for i, v in enumerate(pts) if gf.rank_of_vectors(f, vecs + [v]) == k}
                got = rep._span(f, r, chosen)
                assert got == want and len(got) == (q ** k - 1) // (q - 1)
                if len(chosen) == 2 and k == 2:
                    assert rep._line(q, r, *sorted(chosen)) == want


def differential_corpus():
    """Seeded (label, matroid, q) inputs for the search against the reference.

    Restrictions of PG(3,2), PG(3,3) and PG(4,2), each checked over
    three fields; linear_random matroids of ranks 2 to 5 over their own
    field (rank 4 with one element past a basis and no rank 5 over
    GF(7), GF(8) and GF(9), where the reference takes seconds); and
    small uniform matroids.  Planes and hyperplanes exclude points on
    many of the rank-4 and rank-5 inputs.
    """
    rng = random.Random(1515)
    for params, sizes, qs in (((4, 2), (6, 8, 10, 12), (2, 3, 4)),
                              ((4, 3), (6, 8, 10), (2, 3, 9)),
                              ((5, 2), (7, 9, 11), (2, 3, 4))):
        pg = catalog.gen("pg", params)
        for size in sizes:
            keep = mask_of(rng.sample(list(bits(pg.ground)), size))
            for q in qs:
                yield f"pg {params} keep {keep:#x} q={q}", pg.restrict(keep), q
    for q in (2, 3, 4, 5, 7, 8, 9):
        for r in (2, 3, 4, 5) if q <= 5 else (2, 3, 4):
            n = r + 1 if r == 4 and q > 5 else rng.randint(r + 1, r + 3)
            seed = rng.randrange(2 ** 32)
            yield (f"linear_random {r} {n} {q} seed {seed}",
                   catalog.gen("linear_random", (r, n, q), seed=seed), q)
    for r, n, q in ((3, 5, 3), (3, 5, 4), (3, 6, 5), (4, 5, 2), (4, 6, 3), (4, 6, 4),
                    (4, 6, 5), (5, 6, 2)):
        yield f"U({r},{n}) q={q}", UniformMatroid(r, n), q


def test_search_matches_reference_with_no_more_nodes(monkeypatch):
    """The same verdict and matrix as the reference, within its node count.

    The node budget is set to the reference's count, so a search that
    took more nodes would raise; one node less shows where the span rule
    cut the search.
    """
    cut = []
    for label, m, q in differential_corpus():
        monkeypatch.setattr(rep, "NODE_CAP", 2_000_000)
        want, nodes = rep_reference.reference_is_representable(m, q)
        monkeypatch.setattr(rep, "NODE_CAP", nodes)
        got = rep.is_representable(m, q)
        assert got.representable == want.representable, label
        assert (got.matrix is None) == (want.matrix is None), label
        if got.matrix is not None:
            assert got.matrix.columns() == want.matrix.columns(), label
        if nodes:
            monkeypatch.setattr(rep, "NODE_CAP", nodes - 1)
            try:
                rep.is_representable(m, q)
                cut.append(m.rank())
            except CapExceeded:
                pass
    assert cut.count(4) >= 10 and cut.count(5) >= 4


def test_higher_flats_prune_uniform_matroids(monkeypatch):
    """Planes and hyperplanes exclude points: U(4,6) over GF(16) and U(5,7)
    over GF(8) need few nodes (the reference exceeds 1,000 on both)."""
    monkeypatch.setattr(rep, "NODE_CAP", 1_000)
    for m, q in ((UniformMatroid(4, 6), 16), (UniformMatroid(5, 7), 8)):
        res = rep.is_representable(m, q)
        assert res.representable
        lin = LinearMatroid(res.matrix)
        for x in submasks(m.ground):
            assert lin.rank(x) == m.rank(x)


def test_no_point_list(monkeypatch):
    """Neither the point-count exit nor the search lists PG(r-1, q)."""
    pg33, fano = catalog.gen("pg", (3, 3)), catalog.gen("pg", (3, 2))

    def refuse(f, r):
        raise AssertionError("normalized_vectors called")

    monkeypatch.setattr(gf, "normalized_vectors", refuse)
    assert rep.is_representable(pg33, 2) == rep.RepResult(False, None)
    assert rep.is_representable(fano, 2).representable
    assert rep.is_pg(fano, 3, 2)


# -- verdicts from the input's own field ------------------------------------

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31)


def own_field_corpus(seed=17):
    """Deletions, contractions and nested minors of seeded linear matroids."""
    rng = random.Random(seed)
    for q in (2, 3, 4, 5, 7, 8, 9):
        for _ in range(3):
            r = rng.randint(2, 4)
            m = catalog.gen("linear_random", (r, rng.randint(r + 2, r + 5), q),
                            seed=rng.randrange(2 ** 32))
            els = list(m.elements())
            d, c, c2 = (1 << e for e in rng.sample(els, 3))
            yield q, m.delete(d)
            yield q, m.contract(c)
            yield q, m.contract(c).delete(d).contract(c2)


def counting_search(monkeypatch):
    calls = []
    search = rep.is_representable

    def counted(m, q):
        calls.append(q)
        return search(m, q)

    monkeypatch.setattr(rep, "is_representable", counted)
    return calls


def test_own_field_verdicts_match_the_search(monkeypatch):
    """`representable` equals the search's verdict over every field order,
    and searches exactly when GF(q) is no extension of the input's field
    and the rank is at least 3."""
    search = rep.is_representable
    calls = counting_search(monkeypatch)
    verdicts = []
    for q, m in own_field_corpus():
        for q2 in PRIME_POWERS:
            embeds = any(q ** j == q2 for j in range(1, 6))
            calls.clear()
            got = rep.representable(m, q2)
            assert got == search(m, q2).representable, (q, q2)
            assert len(calls) == (0 if embeds or m.rank() < 3 else 1), (q, q2)
            verdicts.append(got)
    assert len(verdicts) == 7 * 3 * 3 * len(PRIME_POWERS)
    assert verdicts.count(False) >= 20


def test_non_embedding_fields_and_non_linear_bases_reach_the_search(monkeypatch):
    calls = counting_search(monkeypatch)
    pg34, pg39 = catalog.gen("pg", (3, 4)), catalog.gen("pg", (3, 9))
    ternary = catalog.gen("pg", (3, 3))
    fano = catalog.gen("pg", (3, 2))
    line = pg39.flats_of_rank(2)[0]
    off = pg39.ground & ~line
    inputs = [
        (pg34.delete(0b1), 2, False),  # GF(4) over GF(2)
        (pg39.restrict(line | (off & -off)), 3, False),  # GF(9) over GF(3)
        (ternary.delete(0b1), 2, False),  # GF(3) over GF(2)
        (UniformMatroid(3, 5).delete(0b1), 2, True),
        (direct_sum([fano, fano]).contract(0b1), 2, True),
        (parallel_extension(fano, [0, 1]).delete(0b1), 2, True),
    ]
    for m, q, want in inputs:
        assert m.rank() >= 3
        before = len(calls)
        assert rep.representable(m, q) == want
        assert calls[before:] == [q]


def test_own_field_verdicts_take_no_search(monkeypatch):
    def refuse(m, q):
        raise AssertionError("is_representable called")

    monkeypatch.setattr(rep, "is_representable", refuse)
    assert stacks.find_stack(catalog.gen("pg", (3, 4)), 4, 1, 3) is None
    pg42 = catalog.gen("pg", (4, 2))
    line = pg42.flats_of_rank(2)[0]
    cert = stacks.StackCert((line, pg42.ground & ~line), 2, 2)
    assert stacks.verify_stack(pg42, cert).reason == "layer 1 is GF(2)-representable"
    assert rep.is_pg(catalog.gen("pg", (4, 4)), 4, 4)
    assert rep.is_pg(catalog.gen("pg", (3, 9)), 3, 9)
    # rank 2 is settled by the point count, over any field
    assert not rep.representable(catalog.gen("pg", (3, 9)).contract(0b1), 3)
    assert rep.representable(UniformMatroid(2, 4).delete(0b1), 2)


# -- rank <= 2 verdicts by the point count ------------------------------------

FIELDS = (2, 3, 4, 5, 7, 8, 9)


def low_rank_minors(m, rng):
    """Minors of m of ranks 2, 1 and 0: contractions of a growing part of
    a basis (they gain loops and parallel classes), each also with a
    random element deleted."""
    basis = list(bits(m.basis_of(m.ground)))
    for k in range(m.rank() - 2, m.rank() + 1):
        c = mask_of(basis[:k])
        minor = m.contract(c)
        yield minor
        yield minor.delete(1 << rng.choice(list(minor.elements())))


def rank_two_corpus():
    """U(2, n) for n <= 12; rank-0, 1 and 2 minors of seeded linear
    inputs over every field of FIELDS, loops and parallel pairs among
    them; and the rank-2 layers (restrictions to lines, and contractions
    of rank-3 inputs by a point) of direct sums and parallel extensions."""
    rng = random.Random(2)
    for n in range(13):
        yield UniformMatroid(min(2, n), n)
    for q0 in FIELDS:
        for r, n, seed in ((2, 12, 0), (3, 9, 1), (4, 10, 2)):
            yield from low_rank_minors(catalog.gen("linear_random", (r, n, q0), seed=seed), rng)
    f = gf.field(3)
    yield LinearMatroid(gf.Matrix.from_columns(
        f, [(0, 0), (1, 0), (2, 0), (0, 1), (0, 0), (1, 1), (1, 2), (2, 2)], 2))
    fano = catalog.gen("pg", (3, 2))
    spaces = [direct_sum([UniformMatroid(2, 5), UniformMatroid(1, 2)]),
              direct_sum([UniformMatroid(1, 3), fano]),
              direct_sum([UniformMatroid(2, 11), UniformMatroid(0, 2), UniformMatroid(1, 1)]),
              parallel_extension(fano, [0, 1, 1, 5]),
              parallel_extension(catalog.gen("pg", (3, 3)), [0, 2, 4]),
              parallel_extension(UniformMatroid(3, 12), [0, 0, 7])]
    for m in spaces:
        for fl in m.flats_of_rank(2):
            yield m.restrict(fl)
        if m.rank() == 3:
            for p in m.flats_of_rank(1):
                point = p & ~m.loops()
                yield m.contract(point & -point)


def test_rank_two_verdicts_match_the_reference(monkeypatch):
    """Rank 0 and 1 are True, and rank 2 is True iff there are at most
    q + 1 points: the search's verdict, without the search."""
    inputs = list(rank_two_corpus())
    reference = [[rep_reference.reference_is_representable(m, q)[0].representable
                  for q in FIELDS] for m in inputs]

    def refuse(m, q):
        raise AssertionError("is_representable called")

    monkeypatch.setattr(rep, "is_representable", refuse)
    ranks, outcomes = set(), set()
    for m, want in zip(inputs, reference):
        assert m.rank() <= 2
        ranks.add(m.rank())
        for q, verdict in zip(FIELDS, want):
            assert rep.representable(m, q) == verdict, (m, q)
            outcomes.add((m.rank(), verdict))
    assert ranks == {0, 1, 2}
    assert outcomes == {(0, True), (1, True), (2, True), (2, False)}


def test_rank_two_verdict_has_no_point_cap():
    # U(2, 50) has more points than the search's cap, but its verdict is
    # the point count's (no field order up to gf.MAX_ORDER reaches 49);
    # the search itself keeps the cap
    assert UniformMatroid(2, 50).epsilon() > rep.MAX_POINTS
    for q in (7, 32):
        assert not rep.representable(UniformMatroid(2, 50), q)
        with pytest.raises(CapExceeded, match="50 points > 40"):
            rep.is_representable(UniformMatroid(2, 50), q)


def test_stack_suite_searches_only_rank_three_layers(monkeypatch):
    """lem7 asks `representable` of layers of rank 2 to 5; only those of
    rank 3 and more reach the search, each exactly once."""
    asked, searched = [], []
    representable, search = rep.representable, rep.is_representable

    def count_asked(m, q):
        asked.append(m.rank())
        return representable(m, q)

    def count_searched(m, q):
        searched.append(m.rank())
        return search(m, q)

    monkeypatch.setattr(rep, "representable", count_asked)
    monkeypatch.setattr(rep, "is_representable", count_searched)
    assert harness.run_suite("lem7", 60, 0).passed
    assert 2 in asked and min(searched) == 3
    assert sorted(searched) == sorted(k for k in asked if k >= 3)
    assert len(searched) == 54


def test_recheck_eliminates_once_per_hyperplane(monkeypatch):
    """The re-check of a found matrix makes one elimination of all the
    columns and one per hyperplane: 1 + 40 on PG(3,3) (the all-levels
    check made one per flat, 212)."""
    counts = {"recheck": 0}
    inside = [False]
    echelon, match = gf.echelon, rep._rank_functions_match

    def counted_echelon(*args):
        counts["recheck"] += inside[0]
        return echelon(*args)

    def counted_match(*args):
        inside[0] = True
        try:
            return match(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(gf, "echelon", counted_echelon)
    monkeypatch.setattr(rep, "_rank_functions_match", counted_match)
    assert rep.is_representable(catalog.gen("pg", (4, 3)), 3).representable
    assert counts == {"recheck": 41}
