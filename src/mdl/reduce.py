"""Connectivity and roundness reductions.

Three procedures that trade ground set for structure: a dense restriction
with low connectivity to a given set, a weakly round restriction keeping
covering number alpha q^r, and a contraction making one restriction
spanning while preserving two others.  Every numeric postcondition is
re-verified in exact arithmetic before the result is returned.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bits import bits
from .core import Matroid
from .covers import tau
from .errors import InputError, PremiseError


def reduce_connectivity(m: Matroid, y: int, a: int, b: int) -> int:
    """Find X with tau_a(M|X) >= C(b-1,a)^(a - r(Y)) tau_a(M) and
    conn(X, Y) <= a; assumes M has no U_{a+1,b}-minor.

    Extends a basis of M|Y to a basis of M, contracts the complementary
    part, covers the contraction with rank-<=a sets and keeps the
    preimage of a best member: the cover has at most C(b-1,a)^(r(Y)-a)
    members, so a majority argument saves the stated density fraction.
    """
    if not 1 <= a < b:
        raise InputError("need 1 <= a < b")
    binom = math.comb(b - 1, a)
    ry = m.rank(y)
    if ry <= a:
        return m.ground
    tau_m = tau(m, a).value
    ind = m.contract(m.basis_of(y)).basis_of(m.ground & ~y)
    m1 = m.contract(ind)
    cover = tau(m1, a).cover
    # factor C(b-1,a)^(a-r(Y)) <= 1 here since r(Y) > a
    target = Fraction(tau_m, binom ** (ry - a))

    def verified(x: int) -> bool:
        if m.local_conn(x, y) > a:
            return False
        return tau(m.restrict(x), a).value >= target

    members = sorted(cover.sets, key=lambda f: (-f.bit_count(), f))
    best = members[0] | ind
    if verified(best):
        return best
    # the most-covering member can miss the density target; the member
    # maximizing tau of its preimage always meets it
    scored = sorted(
        cover.sets,
        key=lambda f: (-tau(m.restrict(f | ind), a).value, f))
    fallback = scored[0] | ind
    if not verified(fallback):
        raise RuntimeError("majority argument failed to verify; premise violated?")
    return fallback


def weakly_round_restriction(m: Matroid, a: int, q: int, alpha: Fraction) -> Matroid:
    """Weakly round restriction N with tau_a(N) >= alpha * q^r(N).

    Splits along a violating hyperplane pair; one side keeps at least
    half the covering number, which beats the q-fold drop of the rank
    bound.  Terminates because each split loses ground or rank.
    """
    alpha = Fraction(alpha)
    if q < 2:
        raise InputError("need q >= 2")
    if tau(m, a).value < alpha * q ** m.rank():
        raise PremiseError("premise tau_a(M) >= alpha q^r(M) fails")
    cur = m
    while True:
        ok, pair = cur.is_weakly_round()
        if ok:
            break
        comp, hyper = pair
        bound = alpha * q ** cur.rank()
        t_comp = tau(cur.restrict(comp), a).value
        if 2 * t_comp >= bound:
            cur = cur.restrict(comp)
            continue
        t_h = tau(cur.restrict(hyper), a).value
        if 2 * t_h < bound:
            raise RuntimeError("neither side of the split kept half the cover number")
        cur = cur.restrict(hyper)
    if tau(cur, a).value < alpha * q ** cur.rank():
        raise RuntimeError("returned restriction lost the density premise")
    return cur


def span_into(m: Matroid, x: int, y: int) -> Matroid:
    """Contract a maximal C avoiding X and Y so that both restrictions
    survive intact and Y spans the result; needs M weakly round and
    r(X) < r(Y)."""
    ok, _ = m.is_weakly_round()
    if not ok:
        raise PremiseError("matroid is not weakly round")
    if m.rank(x) >= m.rank(y):
        raise PremiseError("need r(X) < r(Y)")
    # (M/C)|X = M|X exactly when C is skew to X: local connectivity is
    # monotone, so skew to X means skew to every subset of X
    c = 0
    for e in bits(m.ground & ~(x | y)):
        trial = c | (1 << e)
        if m.local_conn(trial, x) == 0 and m.local_conn(trial, y) == 0:
            c = trial
    n = m.contract(c)
    if n.rank(y) != n.rank():
        raise RuntimeError("maximal contraction left Y non-spanning; premise violated?")
    if n.closure(x) | n.closure(y) != n.ground:
        raise RuntimeError("closures of X and Y fail to cover the minor")
    return n
