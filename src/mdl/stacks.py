"""Stack certificates and the stack procedures.

A (q,h,t)-stack witness is an ordered list of pairwise disjoint subsets
F_1..F_h; layer i is the restriction of M/(F_1 u ... u F_{i-1}) to F_i
and must have rank between 2 and t and fail GF(q)-representability.
Certificates are verified against the matroid they claim to live in, and
every procedure here re-verifies its own output before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import rep
from .bits import indices_of, union
from .core import Matroid
from .errors import CapExceeded, InputError, PremiseError, cap_override

if TYPE_CHECKING:
    from .covers import DensityParams

LAYER_BUDGET = 1_000_000


@dataclass(frozen=True)
class StackCert:
    """Ordered disjoint layer sets with the field order and rank cap."""

    parts: tuple[int, ...]
    q: int
    t: int

    @property
    def height(self) -> int:
        return len(self.parts)

    def union(self) -> int:
        return union(self.parts)


@dataclass(frozen=True)
class StackCheck:
    ok: bool
    reason: str | None = None


def verify_stack(m: Matroid, cert: StackCert) -> StackCheck:
    """Check every certificate clause; report the first violated one.

    The layer union always spans the stack restriction it induces, so no
    spanning clause can fail (this keeps initial segments of valid
    certificates valid).
    """
    seen = 0
    for i, f in enumerate(cert.parts, 1):
        if f == 0:
            return StackCheck(False, f"part {i} is empty")
        if f & ~m.ground:
            return StackCheck(False, f"part {i} contains dead elements")
        if f & seen:
            return StackCheck(False, f"part {i} overlaps an earlier part")
        seen |= f
    cur = m
    for i, f in enumerate(cert.parts, 1):
        rk = cur.rank(f)
        if rk < 2:
            return StackCheck(False, f"layer {i} has rank {rk} < 2")
        if rk > cert.t:
            return StackCheck(False, f"layer {i} has rank {rk} > t={cert.t}")
        if rep.representable(cur.restrict(f), cert.q):
            return StackCheck(False, f"layer {i} is GF({cert.q})-representable")
        cur = cur.contract(f)
    return StackCheck(True)


def certify(m: Matroid, parts: tuple[int, ...], q: int, t: int | None = None) -> StackCert:
    """Build a certificate (t defaults to the max layer rank) and verify it."""
    if parts and t is None:
        t, cur = 0, m
        for f in parts:
            t = max(t, cur.rank(f))
            cur = cur.contract(f)
    cert = StackCert(tuple(parts), q, t if t is not None else 2)
    check = verify_stack(m, cert)
    if not check.ok:
        raise RuntimeError(f"procedure produced an invalid certificate: {check.reason}")
    return cert


def serialize_cert(cert: StackCert) -> str:
    lines = [f"stack q={cert.q} t={cert.t}"]
    for p in cert.parts:
        lines.append("part " + " ".join(str(i) for i in indices_of(p)))
    return "\n".join(lines) + "\n"


def find_stack(m: Matroid, q: int, h: int, t: int) -> StackCert | None:
    """Search for a (q,h,t)-stack witness among flats of rank 2..t.

    Layer-by-layer closure replacement keeps this universe lossless:
    a non-representable restriction of rank k sits inside a flat of the
    same rank whose restriction is again non-representable.  "None" is
    exhaustive relative to this universe.
    """
    if t < 2 or h < 0:
        raise InputError("need t >= 2 and h >= 0")
    budget = [cap_override(LAYER_BUDGET)]

    def recurse(cur: Matroid, chosen: list[int], depth: int):
        if depth == h:
            return tuple(chosen)
        if cur.rank() < 2 * (h - depth):
            return None
        for k in range(2, t + 1):
            for fl in cur.flats_of_rank(k):
                budget[0] -= 1
                if budget[0] < 0:
                    raise CapExceeded("find_stack exceeded its layer evaluation budget")
                if rep.representable(cur.restrict(fl), q):
                    continue
                chosen.append(fl)
                out = recurse(cur.contract(fl), chosen, depth + 1)
                if out is not None:
                    return out
                chosen.pop()
        return None

    parts = recurse(m, [], 0)
    if parts is None:
        return None
    return certify(m, parts, q, t)


def project_stack(m: Matroid, cert: StackCert, c: int, k: int) -> StackCert:
    """Survive a projection: a k(r(C)+1)-layer stack yields a k-layer
    stack of (M/C)|E(S) inside the original stack's ground.

    Recursion from the robustness proof: if C is skew to the first k
    layers they survive verbatim; otherwise contract those layers, which
    strictly drops r(C), recurse, and fold the contracted layers into the
    first returned one.  C may meet E(S): below a contracted step F the
    recursion carries C - F, and r_{M/F}(C - F) = r(C u F) - r(F) is the
    rank a parallel copy of C would have.  C is stripped from the result.
    """
    check = verify_stack(m, cert)
    if not check.ok:
        raise PremiseError(f"supplied certificate invalid: {check.reason}")
    rc = m.rank(c)
    if cert.height < k * (rc + 1):
        raise PremiseError(
            f"need at least k(r(C)+1) = {k * (rc + 1)} layers, have {cert.height}")

    def recurse(cur: Matroid, parts: tuple[int, ...], cset: int) -> tuple[int, ...]:
        first = union(parts[:k])
        if cur.local_conn(cset, first) == 0:
            return parts[:k]
        nxt, rest = cur.contract(first), cset & ~first
        if nxt.rank(rest) >= cur.rank(cset):
            raise RuntimeError("projection recursion failed to reduce r(C)")
        sub = recurse(nxt, parts[k:], rest)
        return (first | sub[0],) + tuple(sub[1:])

    parts = tuple(p & ~c for p in recurse(m, cert.parts, c))
    return certify(m.contract(c), parts, cert.q)


def skew_stack(m: Matroid, cert: StackCert, x: int, a: int) -> tuple[int, StackCert]:
    """Contract C inside the stack so that h layers survive skew to X.

    Needs an ((a+1)h, q, t)-stack and local connectivity between X and
    the stack at most a; h is read off the certificate height.  Each
    non-skew step contracts the first h layers, which strictly drops the
    connectivity, so induction is on a.
    """
    if a < 0:
        raise PremiseError("need a >= 0")
    check = verify_stack(m, cert)
    if not check.ok:
        raise PremiseError(f"supplied certificate invalid: {check.reason}")
    h = cert.height // (a + 1)
    if h < 1:
        raise PremiseError(f"certificate height {cert.height} below a+1 = {a + 1}")
    conn = m.local_conn(x, cert.union())
    if conn > a:
        raise PremiseError(f"local connectivity {conn} exceeds a = {a}")

    def recurse(cur: Matroid, parts: tuple[int, ...], xcur: int, acur: int):
        first = union(parts[:h])
        if cur.local_conn(xcur, first) == 0:
            return 0, parts[:h]
        if acur == 0:
            raise RuntimeError("skewing recursion ran out of connectivity budget")
        nxt = cur.contract(first)
        xnxt = xcur & ~first
        rest = parts[h:h + acur * h]
        if nxt.local_conn(xnxt, union(rest)) > acur - 1:
            raise RuntimeError("connectivity failed to decrease after contraction")
        c0, res = recurse(nxt, rest, xnxt, acur - 1)
        return first | c0, res

    c, res = recurse(m, cert.parts[:(a + 1) * h], x, a)
    out = certify(m.contract(c), res, cert.q, t=cert.t)
    final_conn = m.contract(c).local_conn(x & ~c, out.union())
    if final_conn != 0:
        raise RuntimeError(f"skewing postcondition failed: local connectivity {final_conn}")
    return c, out


def alpha_getstack(params: DensityParams) -> Fraction:
    """Density threshold recursion: alpha(0) = lam and
    alpha(h) = d^(a+1) * alpha(h-1) taken at lam * q^(a+1), so
    alpha(h) = lam * (dq)^((a+1)h).

    Only the threshold is implemented.  The density stack recursion on
    it (d > max(q+1, C(b-1,a)), lam >= 1) returns its input at h = 0,
    and at h >= 1 no matroid within core.MAX_GROUND = 128 elements
    meets its premise tau^d(M) >= alpha * q^r(M):

    - h >= 1 and lam >= 1 give alpha >= (dq)^(a+1).
    - tau_weighted always has the cover {E}, of weight d^r, and for
      r >= 1 the cover by the points, of weight d * eps(M) <= d|E|.  So
      tau^d(M) <= min(d^r, d|E|), and r = 0 has tau^d(M) <= 1 < alpha.
    - The premise so needs d^a q^(a+1+r) <= 128 and d^(r-a-1) >= q^(r+a+1).
    - d > q+1 gives d >= 4, so the first needs 2^(3a+1+r) <= 2^7:
      only a = 1 with r <= 3 is left.
    - For a = 1 the second fails for r <= 2.  For r = 3 it needs
      d >= q^5 >= 32, but the first then gives d <= 128 / q^5 <= 4.
    """
    a, d, q = params.a, params.d, params.q

    def recur(h: int, lam: Fraction) -> Fraction:
        if h == 0:
            return lam
        return d ** (a + 1) * recur(h - 1, lam * q ** (a + 1))

    return recur(params.h, Fraction(params.lam))


@dataclass(frozen=True)
class NoStackReport:
    h: int
    results: dict[int, StackCert | None]

    @property
    def ok(self) -> bool:
        return all(v is None for v in self.results.values())


def check_no_stack_in_projection(m: Matroid, x: int, q: int, h: int,
                                 t_max: int) -> NoStackReport:
    """Premise-checked search: M \\ X a projective geometry (up to
    simplification), r(X) <= h; then M/X must carry no (q,h+1)-stack.

    "No stack" is relative to the flat candidate universe and the
    bounded t range.  Every (q,h+1,t)-stack is a (q,h+1,t_max)-stack and
    find_stack's None is exhaustive, so one search at t_max answers
    every t unless it finds a stack; only then are the smaller t searched.
    """
    if m.rank(x) > h:
        raise PremiseError(f"rank of X is {m.rank(x)} > h = {h}")
    if not rep.is_pg(m.delete(x), m.rank(), q):
        raise PremiseError("M \\ X does not simplify to the projective geometry")
    mx = m.contract(x)
    results: dict[int, StackCert | None] = {}
    if t_max >= 2:
        top = find_stack(mx, q, h + 1, t_max)
        for t in range(2, t_max):
            results[t] = None if top is None else find_stack(mx, q, h + 1, t)
        results[t_max] = top
    return NoStackReport(h, results)
