"""Matroid kernel behavior against brute-force oracles and paper examples."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdl import core, gf
from mdl.bits import bits, mask_of, submasks
from mdl.core import (DirectSumMatroid, LinearMatroid, Matroid, MinorMatroid,
                      ParallelExtensionMatroid, UniformMatroid, direct_sum,
                      parallel_extension, validate_rank_axioms)
from mdl.errors import CapExceeded
from mdl import catalog


def linear(q, cols):
    rows = len(cols[0])
    return LinearMatroid(gf.Matrix.from_columns(gf.field(q), [tuple(c) for c in cols], rows))


def random_linear(seed, q=2, r=3, n=7):
    rng = random.Random(seed)
    cols = []
    for _ in range(n):
        while True:
            c = tuple(rng.randrange(q) for _ in range(r))
            if any(c):
                break
        cols.append(c)
    return linear(q, cols)


# -- rank ---------------------------------------------------------------


def test_uniform_rank_capped():
    m = UniformMatroid(2, 4)
    assert m.rank(0b0111) == 2
    assert m.rank(0b0001) == 1
    assert m.rank() == 2


def test_pg_full_rank():
    m = catalog.gen("pg", (3, 2))
    assert m.rank() == 3
    assert m.size() == 7


def test_minor_rank_formula():
    m = UniformMatroid(3, 6)
    mc = m.contract(0b000001)
    assert mc.rank(0b000110) == 2  # r({0,1,2}) - r({0}) = 3 - 1


def test_rank_out_of_range():
    m = UniformMatroid(2, 4)
    with pytest.raises(IndexError):
        m.rank(1 << 10)


def test_direct_sum_rank_additive():
    m = direct_sum([UniformMatroid(2, 3), UniformMatroid(2, 3)])
    assert m.rank() == 4
    assert m.rank(0b000111) == 2
    assert m.local_conn(0b000111, 0b111000) == 0


# -- closure, flats, points ----------------------------------------------


def test_closure_of_empty_is_loops():
    m = linear(2, [(1, 0), (0, 0), (1, 1)])
    assert m.closure(0) == 0b010


def test_closure_uniform_no_parallel():
    m = UniformMatroid(2, 4)
    assert m.closure(0b0001) == 0b0001


def test_closure_pg_line():
    m = catalog.gen("pg", (3, 2))
    cl = m.closure(0b011)
    assert cl.bit_count() == 3
    assert m.rank(cl) == 2


def test_closure_properties_exhaustive_small():
    m = random_linear(5, q=3, r=3, n=6)
    for x in submasks(m.ground):
        cl = m.closure(x)
        assert cl & x == x
        assert m.rank(cl) == m.rank(x)
        assert m.closure(cl) == cl


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 127))
def test_closure_monotone_random(seed, xbits):
    m = random_linear(seed, q=2, r=3, n=7)
    x = xbits & m.ground
    y = m.ground
    assert m.closure(x) & m.closure(y) == m.closure(x)


def test_epsilon_examples():
    assert catalog.gen("pg", (3, 2)).epsilon() == 7
    assert UniformMatroid(2, 4).epsilon() == 4
    # duplicated column counts once
    m = linear(3, [(1, 0), (2, 0), (0, 1)])
    assert m.epsilon() == 2


def test_flats_of_rank_examples():
    fano = catalog.gen("pg", (3, 2))
    lines = fano.flats_of_rank(2)
    assert len(lines) == 7
    assert all(l.bit_count() == 3 for l in lines)
    assert lines == sorted(lines)
    u35 = UniformMatroid(3, 5)
    assert u35.flats_of_rank(1) == [1 << i for i in range(5)]
    assert u35.flats_of_rank(0) == [0]
    assert fano.flats_of_rank(3) == [fano.ground]
    assert fano.flats_of_rank(5) == []


def test_top_flat_needs_no_classes_pass():
    """The rank-r level is [E] without a `_classes` call on the
    hyperplanes; the levels below are built as before."""
    fano = catalog.gen("pg", (3, 2))
    pg32 = catalog.gen("pg", (3, 3))
    loops = linear(2, [(0, 0), (0, 0), (0, 0)])
    corpus = [UniformMatroid(3, 5), UniformMatroid(1, 2), fano, pg32,
              linear(3, [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 0), (1, 1, 1)]),
              fano.contract(0b1), fano.delete(0b110), pg32.contract(0b10).delete(0b1100),
              direct_sum([UniformMatroid(2, 4), UniformMatroid(0, 2), fano]),
              loops, direct_sum([loops, UniformMatroid(0, 1)])]
    for m in corpus:
        r = m.rank()
        below = m.flats_of_rank(r - 1)
        calls = []
        classes = m._classes
        m._classes = lambda x, mask: calls.append(x) or classes(x, mask)
        assert m.flats_of_rank(r) == [m.ground]
        del m._classes  # minors later in the corpus share their base
        assert calls == [], m
        assert m.flats_of_rank(r - 1) == below


@pytest.mark.parametrize("params, calls, sent, sizes", [
    ((4, 3), 27, 790, [1, 40, 130, 40, 1]),
    ((5, 3), 211, 17908, [1, 121, 1210, 1210, 121, 1])])
def test_each_covering_flat_reduced_from_one_parent(params, calls, sent, sizes):
    """Every level of PG(n-1, q) is built with each flat reduced from one
    parent: `_classes` gets only the elements outside a flat f that no
    cover of f found so far holds, and is not called when there are none.
    Reducing all of E - f for every flat f took 171 calls on 6,280
    elements for PG(3,3) and 2,542 on 286,891 for PG(4,3)."""
    m = catalog.gen("pg", params)
    seen = []
    classes = m._classes
    m._classes = lambda x, mask: seen.append(mask.bit_count()) or classes(x, mask)
    levels = [m.flats_of_rank(k) for k in range(m.rank() + 1)]
    assert (len(seen), sum(seen)) == (calls, sent)
    assert [len(level) for level in levels] == sizes


def test_simplify():
    m = linear(3, [(1, 0), (2, 0), (0, 1), (0, 0)])
    simp, mapping = m.simplify()
    assert sorted(simp.elements()) == [0, 2]
    assert mapping == {0: 0, 1: 0, 2: 2, 3: None}
    simple = UniformMatroid(2, 4)
    s2, map2 = simple.simplify()
    assert s2.ground == simple.ground
    assert map2 == {e: e for e in range(4)}
    loops_only = linear(2, [(0,), (0,)])
    s3, _ = loops_only.simplify()
    assert s3.ground == 0


def test_local_conn_examples():
    m = direct_sum([UniformMatroid(2, 3), UniformMatroid(2, 3)])
    assert m.local_conn(0b000111, 0b111000) == 0
    u = UniformMatroid(3, 6)
    assert u.local_conn(0b000011, 0b001110) == 2
    assert u.local_conn(0b000111, 0b000111) == u.rank(0b000111)


def test_local_conn_bounds_exhaustive():
    m = random_linear(11, q=2, r=3, n=6)
    for x in submasks(m.ground):
        for y in (0b1, 0b110011, m.ground, 0b10101):
            c = m.local_conn(x, y & m.ground)
            assert 0 <= c <= min(m.rank(x), m.rank(y & m.ground))


# -- weak roundness -------------------------------------------------------


def test_weak_roundness_u33_false():
    ok, pair = UniformMatroid(3, 3).is_weakly_round()
    assert not ok
    a, b = pair
    m = UniformMatroid(3, 3)
    assert a | b == m.ground
    assert m.rank(a) <= m.rank() - 2
    assert m.rank(b) <= m.rank() - 1


def test_weak_roundness_pg_true():
    ok, pair = catalog.gen("pg", (4, 2)).is_weakly_round()
    assert ok and pair is None


def test_weak_roundness_low_rank_true():
    assert UniformMatroid(2, 5).is_weakly_round()[0]
    assert UniformMatroid(1, 3).is_weakly_round()[0]


def test_weak_roundness_preserved_by_contraction():
    for m in [catalog.gen("pg", (3, 2)), catalog.gen("pg", (3, 3)),
              UniformMatroid(3, 6)]:
        assert m.is_weakly_round()[0]
        for e in m.elements():
            assert m.contract(1 << e).is_weakly_round()[0]


# -- minors ---------------------------------------------------------------


def test_contract_empty_identity():
    m = catalog.gen("pg", (3, 2))
    mc = m.contract(0)
    assert mc is m


def test_contract_uniform_parallel():
    m = UniformMatroid(2, 4).contract(0b0001)
    for e in bits(m.ground):
        assert m.rank(1 << e) == 1
    assert m.rank(m.ground) == 1
    assert m.closure(0b0010) == m.ground


def test_delete_line_keeps_rank():
    fano = catalog.gen("pg", (3, 2))
    line = fano.flats_of_rank(2)[0]
    assert fano.delete(line).rank() == 3


def test_minor_flattening_and_composition():
    m = catalog.gen("pg", (4, 2))
    step = m.contract(0b1).contract(0b10)
    joint = m.contract(0b11)
    assert isinstance(step, MinorMatroid) and step.base is m
    for x in [0b11100, 0b1010100, joint.ground]:
        assert step.rank(x & joint.ground) == joint.rank(x & joint.ground)


def test_minor_commutation_exhaustive():
    m = random_linear(3, q=2, r=3, n=8)
    c, d = 0b00000011, 0b00110000
    a = m.contract(c).delete(d)
    b = m.delete(d).contract(c)
    assert a.ground == b.ground
    for x in submasks(a.ground):
        assert a.rank(x) == b.rank(x)


def test_contract_delete_overlap_error():
    m = UniformMatroid(2, 4)
    with pytest.raises(ValueError):
        m.minor(0b0011, 0b0010)


def test_epsilon_contraction_monotone():
    for seed in range(4):
        m = random_linear(seed, q=2, r=4, n=9)
        eps = m.epsilon()
        for e in bits(m.nonloops()):
            assert m.contract(1 << e).epsilon() <= eps


def test_parallel_extension():
    m = UniformMatroid(2, 4)
    pe = parallel_extension(m, [0, 2])
    assert pe.size() == 6
    i0, i2 = pe.copy_index(0), pe.copy_index(1)
    assert pe.rank((1 << i0) | 0b0001) == 1  # copy parallel to original
    assert pe.rank((1 << i0) | (1 << i2)) == 2
    assert pe.closure(0b0001) == 0b0001 | (1 << i0)


# -- closure protocol against rank queries ------------------------------


def rank_closure(m, x):
    """x plus every element e with r(x + e) = r(x), from m.rank alone."""
    rx = m.rank(x)
    return x | mask_of(e for e in bits(m.ground & ~x) if m.rank(x | 1 << e) == rx)


def closure_corpus():
    """Every kind of matroid that answers closures, each with its minors:
    uniform ones of rank 0, r and n, linear ones with a loop and a
    parallel pair, direct sums with uniform, minor and empty parts, and
    parallel extensions."""
    lin2 = linear(2, [(1, 0, 0), (0, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    lin3 = linear(3, [(1, 0, 0), (0, 1, 0), (2, 0, 0), (0, 0, 0), (1, 1, 1), (1, 2, 0),
                      (0, 1, 2), (1, 0, 1), (2, 2, 1), (0, 0, 1)])
    lin4 = linear(4, [(1, 2, 0, 0), (0, 0, 0, 0), (0, 1, 3, 1), (2, 3, 0, 0), (1, 1, 1, 1),
                      (0, 0, 1, 2), (1, 0, 0, 3), (3, 2, 1, 0), (0, 1, 0, 0), (1, 3, 2, 2),
                      (2, 0, 1, 1), (0, 2, 3, 0)])
    minor = lin3.contract(0b1).delete(0b100000)
    nested = minor.contract(0b10000).delete(0b1000000000)
    sums = [direct_sum([UniformMatroid(2, 3), minor, UniformMatroid(0, 0)]),
            direct_sum([lin2, UniformMatroid(0, 1), lin2.delete(lin2.ground)]),
            direct_sum([direct_sum([UniformMatroid(1, 2), nested]), UniformMatroid(3, 3)])]
    ext = parallel_extension(lin2, [0, 3, 6])
    out = [UniformMatroid(0, 5), UniformMatroid(3, 7), UniformMatroid(6, 6), UniformMatroid(4, 11),
           lin2, lin3, lin4, minor, nested, lin4.contract(0b100100).delete(0b1),
           ext, ext.contract(0b1000).delete(1 << ext.copy_index(1))]
    for m in sums:
        out += [m, m.contract(0b10).delete(1 << (m.n - 1))]
    return out


def test_closure_protocol_matches_rank_scan():
    """closure(x) is x plus what rank queries put in cl(x), and
    _spanned(x, mask) is closure(x) & mask & ~x: on every subset of a
    ground of at most 8 elements, and on seeded samples above that."""
    rng = random.Random(2013)
    corpus = closure_corpus()
    assert {type(m) for m in corpus} == {UniformMatroid, LinearMatroid, MinorMatroid,
                                        DirectSumMatroid, ParallelExtensionMatroid}
    assert max(m.size() for m in corpus) > 8
    for m in corpus:
        xs = list(submasks(m.ground)) if m.size() <= 8 else [
            rng.getrandbits(m.n) & m.ground for _ in range(300)]
        for x in xs:
            cl = rank_closure(m, x)
            assert m.closure(x) == cl, (m, x)
            for mask in (m.ground, m.ground & ~x, 0, rng.getrandbits(m.n) & m.ground):
                assert m._spanned(x, mask) == cl & mask & ~x, (m, x, mask)


def reference_simplify_mapping(m):
    """Reference for simplify's mapping, by its own scan of the points:
    each nonloop maps to the least element of its parallel class, each
    loop to None."""
    loops = m.loops()
    mapping = {e: None for e in bits(loops)}
    for p in m.flats_of_rank(1):
        nz = p & ~loops
        for e in bits(nz):
            mapping[e] = (nz & -nz).bit_length() - 1
    return mapping


def test_representatives_are_the_simplification():
    for m in closure_corpus():
        simp, mapping = m.simplify()
        keep = m.representatives()
        assert keep == simp.ground, m
        assert keep.bit_count() == m.epsilon() and keep & m.loops() == 0, m
        assert mapping == reference_simplify_mapping(m), m
        assert {e for e, rep in mapping.items() if rep == e} == set(bits(keep)), m


# -- axiom validation ------------------------------------------------------


def brute_axioms(m):
    """Direct check of all four axioms over all subset pairs."""
    live = list(m.elements())
    masks = list(submasks(m.ground))
    if m.rank(0) != 0:
        return False
    for x in masks:
        rx = m.rank(x)
        for e in live:
            if not (x >> e) & 1:
                re = m.rank(x | (1 << e))
                if not rx <= re <= rx + 1:
                    return False
        for y in masks:
            if x & y == x and rx > m.rank(y):
                return False
            if m.rank(x) + m.rank(y) < m.rank(x | y) + m.rank(x & y):
                return False
    return True


def test_validate_matches_brute_force():
    for m in [UniformMatroid(2, 5), random_linear(7, q=3, r=2, n=5),
              direct_sum([UniformMatroid(1, 2), UniformMatroid(2, 3)])]:
        assert validate_rank_axioms(m) == brute_axioms(m)


def test_validate_accepts_catalog():
    assert validate_rank_axioms(UniformMatroid(3, 6))
    assert validate_rank_axioms(catalog.gen("pg", (3, 2)))
    assert validate_rank_axioms(random_linear(1, q=2, r=4, n=10))


def test_validate_rejects_corrupted_oracle():
    class JumpRank(Matroid):
        kind = "corrupt"

        def __init__(self):
            super().__init__(4, 0b1111)

        def _rank_impl(self, x):
            # jumps by 2 between sizes 1 and 2: breaks unit increase
            return 0 if x.bit_count() <= 1 else 2

    class NonSubmodular(Matroid):
        kind = "corrupt"

        def __init__(self):
            super().__init__(4, 0b1111)

        def _rank_impl(self, x):
            return {0: 0, 1: 1, 2: 1, 3: 2, 4: 3}[x.bit_count()]

    assert not validate_rank_axioms(JumpRank())
    assert not validate_rank_axioms(NonSubmodular())


def test_validate_sampled_large():
    m = UniformMatroid(4, 20)
    assert validate_rank_axioms(m)


def test_ground_cap():
    with pytest.raises(ValueError):
        UniformMatroid(2, 200)


def test_flat_levels_are_capped_while_they_grow(monkeypatch):
    """A level of more than core.MAX_FLATS flats raises CapExceeded, and
    the cut-off level is never stored: the levels below it stay, and
    asking again raises again."""
    m = UniformMatroid(3, 6)  # 6 points, 15 lines
    monkeypatch.setattr(core, "MAX_FLATS", 15)
    assert len(m.flats_of_rank(2)) == 15
    m = UniformMatroid(3, 6)
    monkeypatch.setattr(core, "MAX_FLATS", 14)
    for _ in range(2):
        with pytest.raises(CapExceeded, match="flats of rank 2 exceed cap 14"):
            m.flats_of_rank(2)
        assert len(m._flat_levels) == 2
    assert len(m.flats_of_rank(1)) == 6
    monkeypatch.undo()
    assert core.MAX_FLATS >= 11_811  # PG(6,2)'s ranks 3 and 4
    big = UniformMatroid(14, 28)  # 20,475 flats of rank 4
    with pytest.raises(CapExceeded, match=f"flats of rank 4 exceed cap {core.MAX_FLATS}"):
        big.is_weakly_round()
    assert len(big._flat_levels) == 4
