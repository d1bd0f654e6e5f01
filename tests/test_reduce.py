"""Reduction procedures: exact postconditions and trivial branches."""

import math
import random
from fractions import Fraction

import pytest

from mdl import catalog, covers
from mdl import reduce as reductions
from mdl.bits import bits, mask_of, submasks
from mdl.core import UniformMatroid, direct_sum
from mdl.errors import PremiseError


# -- low-connectivity restriction (majority argument) -----------------------


def test_reduce_connectivity_trivial_branch():
    m = catalog.gen("pg", (3, 2))
    point = m.flats_of_rank(1)[0]
    assert reductions.reduce_connectivity(m, point, 1, 4) == m.ground


def test_reduce_connectivity_trivial_branch_computes_no_cover(monkeypatch):
    # r(Y) <= a returns E(M) before any covering number is needed
    def refuse(*args):
        raise AssertionError("tau called")

    monkeypatch.setattr(reductions, "tau", refuse)
    m = catalog.gen("pg", (4, 2))
    for y in (0, m.flats_of_rank(1)[0], m.flats_of_rank(2)[3]):
        assert reductions.reduce_connectivity(m, y, 2, 4) == m.ground


def test_reduce_connectivity_fano_line():
    m = catalog.gen("pg", (3, 2))
    line = m.flats_of_rank(2)[0]
    x = reductions.reduce_connectivity(m, line, 1, 4)
    assert m.local_conn(x, line) <= 1
    assert covers.tau(m.restrict(x), 1).value >= Fraction(7, 3)


def test_reduce_connectivity_direct_sum():
    m = direct_sum([UniformMatroid(2, 4), UniformMatroid(2, 4)])
    part1 = mask_of(range(4))
    x = reductions.reduce_connectivity(m, part1, 1, 5)
    assert m.local_conn(x, part1) <= 1
    target = Fraction(covers.tau(m, 1).value, 4)
    assert covers.tau(m.restrict(x), 1).value >= target


def test_reduce_connectivity_postconditions_many():
    for seed in range(6):
        m = catalog.gen("linear_random", (3, 8, 2), seed=seed)
        for y in m.flats_of_rank(2)[:2]:
            x = reductions.reduce_connectivity(m, y, 1, 4)
            assert m.local_conn(x, y) <= 1
            lhs = covers.tau(m.restrict(x), 1).value
            rhs = Fraction(covers.tau(m, 1).value,
                           3 ** max(m.rank(y) - 1, 0))
            assert lhs >= rhs


def test_reduce_connectivity_fallback():
    # the preimage of the most-covering member misses a postcondition
    # here, and the fallback member (largest tau of its preimage) meets both
    m = catalog.gen("linear_random", (3, 13, 3), seed=981702714)
    y, a, b = mask_of([0, 5]), 1, 5
    by = m.basis_of(y)
    extend = by
    for e in bits(m.ground & ~y):
        if m.rank(extend | (1 << e)) > m.rank(extend):
            extend |= 1 << e
    ind = extend & ~by
    cover = covers.tau(m.contract(ind), a).cover
    first = max(cover.sets, key=lambda f: (f.bit_count(), -f)) | ind
    target = Fraction(covers.tau(m, a).value, math.comb(b - 1, a) ** (m.rank(y) - a))

    def meets(x):
        return m.local_conn(x, y) <= a and covers.tau(m.restrict(x), a).value >= target

    assert not meets(first)
    x = reductions.reduce_connectivity(m, y, a, b)
    assert x == mask_of([0, 1, 6, 10, 11]) and meets(x)


# -- weakly round restriction ------------------------------------------------


def test_weakly_round_already_round():
    m = catalog.gen("pg", (3, 2))
    alpha = Fraction(covers.tau(m, 1).value, 2 ** m.rank())
    n = reductions.weakly_round_restriction(m, 1, 2, alpha)
    assert n is m


def test_weakly_round_low_rank():
    m = UniformMatroid(2, 6)
    alpha = Fraction(covers.tau(m, 1).value, 2 ** 2)
    n = reductions.weakly_round_restriction(m, 1, 2, alpha)
    assert n is m  # rank <= 2 is weakly round outright


def test_weakly_round_composite_descends():
    m = direct_sum([UniformMatroid(3, 3), UniformMatroid(2, 10)])
    alpha = Fraction(covers.tau(m, 1).value, 2 ** m.rank())
    n = reductions.weakly_round_restriction(m, 1, 2, alpha)
    ok, _ = n.is_weakly_round()
    assert ok
    assert covers.tau(n, 1).value >= alpha * 2 ** n.rank()
    assert n.rank() < m.rank()


def test_weakly_round_premise_error():
    m = UniformMatroid(3, 6)
    too_big = Fraction(covers.tau(m, 1).value + 1, 2 ** m.rank())
    with pytest.raises(PremiseError):
        reductions.weakly_round_restriction(m, 1, 2, too_big)


# -- spanning contraction -------------------------------------------------------


def test_span_into_already_spanning():
    m = catalog.gen("pg", (3, 2))
    x = 0b1
    y = m.basis_of(m.ground)
    n = reductions.span_into(m, x, y)
    assert n is m or n.ground == m.ground


def test_span_into_pg_point_plane():
    m = catalog.gen("pg", (4, 2))
    x = 0b1
    plane = m.flats_of_rank(3)[-1]
    n = reductions.span_into(m, x, plane)
    assert n.rank() == 3
    assert n.rank(plane) == 3
    for z in submasks(x):
        assert n.rank(z) == m.rank(z)
    for z in submasks(plane):
        assert n.rank(z) == m.rank(z)
    assert n.closure(x) | n.closure(plane) == n.ground


def test_span_into_requires_roundness():
    m = UniformMatroid(3, 3)
    with pytest.raises(PremiseError):
        reductions.span_into(m, 0b1, 0b110)


def test_span_into_requires_rank_gap():
    m = catalog.gen("pg", (3, 2))
    line = m.flats_of_rank(2)[0]
    with pytest.raises(PremiseError):
        reductions.span_into(m, line, line)


# -- the skew test against a submask reference --------------------------------


def restriction_preserved(m, c, x):
    """Reference: (M/C)|X = M|X compared on every subset of X."""
    mc = m.contract(c)
    return all(mc.rank(z) == m.rank(z) for z in submasks(x))


def skew_corpus():
    yield catalog.gen("pg", (3, 2))
    yield catalog.gen("pg", (4, 2))
    yield UniformMatroid(3, 7)
    yield direct_sum([UniformMatroid(2, 4), catalog.gen("pg", (3, 2))])
    for q in (2, 3, 4, 5, 7, 8, 9):
        yield catalog.gen("linear_random", (4, 10, q), seed=q)


def test_skew_test_matches_submask_reference():
    rng = random.Random(17)
    verdicts = []
    for m in skew_corpus():
        els = sorted(m.elements())
        for _ in range(12):
            rng.shuffle(els)
            cut = rng.randint(1, min(7, len(els) - 1))
            x = mask_of(els[:cut])
            c = mask_of(e for e in els[cut:] if rng.random() < 0.3)
            want = restriction_preserved(m, c, x)
            assert (m.local_conn(c, x) == 0) == want
            verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_span_into_matches_submask_reference():
    rng = random.Random(3)
    for m in [catalog.gen("pg", (4, 2)), catalog.gen("pg", (5, 2)), catalog.gen("pg", (3, 3)),
              UniformMatroid(3, 7)]:
        r = m.rank()
        for _ in range(6):
            kx = rng.randint(1, r - 2)
            x = rng.choice(m.flats_of_rank(kx))
            y = rng.choice(m.flats_of_rank(rng.randint(kx + 1, r - 1)))
            c = 0
            for e in bits(m.ground & ~(x | y)):
                trial = c | (1 << e)
                if restriction_preserved(m, trial, x) and restriction_preserved(m, trial, y):
                    c = trial
            assert reductions.span_into(m, x, y).ground == m.ground & ~c
