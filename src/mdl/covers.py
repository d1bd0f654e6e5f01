"""Exact covering numbers, weighted covers, thickness, density bounds.

tau(M, a) and tau_weighted(M, d) are exact minimum set covers solved by
branch and bound over candidate flats.  Restricting candidates to flats
is lossless: replacing a cover member by its closure changes neither its
rank nor what it covers, and every flat of rank below the target extends
to one of target rank.  Everything that feeds an inequality check is
computed in exact integer or rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bits import bits, ksubsets, union
from .core import Matroid
from .errors import CapExceeded, InputError, PremiseError, UniformMinorDetected

INF = math.inf

# honest desk-scale boundaries for the exact cover search: candidate
# sets, and nodes the branch and bound expands, each node's evaluation
# of its fractional bound charged as the nodes it costs (fixed; over
# 800x above tau(pg(5,2), 2) at 6,025 of them)
CANDIDATE_CAP = 5000
COVER_NODE_CAP = 5_000_000


@dataclass(frozen=True)
class Cover:
    """A multiset of ground subsets whose union is E(M)."""

    sets: tuple[int, ...]


@dataclass(frozen=True)
class CoverResult:
    value: int | float
    cover: Cover | None


def _bound_scale(s: int) -> list[int]:
    """[0, L, L/2, ..., L/s] with L = lcm(1..s): the common denominator
    of every share w_S / |S & U| that `_fractional_bound` adds up."""
    top = math.lcm(*range(1, s + 1))
    return [0] + [top // k for k in range(1, s + 1)]


def _fractional_bound(uncovered: int, cands: list[int], weights: list[int],
                      scale: list[int], levels: list[tuple[int, int]]) -> int:
    """Least weight that any cover of `uncovered` by `cands` still needs.

    y_e = min over candidates S through e of w_S / |S & uncovered| is a
    feasible packing of the covering LP's dual (every S collects at most
    w_S), so the ceiling of sum y_e bounds every cover from below
    (Lovasz 1975, Chvatal 1979).  Candidates meeting `uncovered` are
    bucketed by their share in units of 1/L, L = scale[1], and each
    element takes the least bucket it lies in.  `scale` is
    _bound_scale(s) for an s no smaller than any |S & uncovered|.
    The packing is appended to `levels` as pairs (share v, elements
    with y_e = v / L), one per share in use.
    """
    buckets: dict[int, int] = {}
    for c, w in zip(cands, weights):
        k = (c & uncovered).bit_count()
        if k:
            v = w * scale[k]
            buckets[v] = buckets.get(v, 0) | c
    total = 0
    for v in sorted(buckets):
        hit = buckets[v] & uncovered
        if hit:
            total += v * hit.bit_count()
            uncovered &= ~hit
            levels.append((v, hit))
            if not uncovered:
                break
    return -(-total // scale[1])


def _min_cover(universe: int, cands: list[int], weights: list[int]):
    """Deterministic branch-and-bound exact weighted set cover.

    Each node branches on the uncovered element hitting the fewest
    candidates, ties by element (one order, sorted once), and tries its
    candidates by descending fresh coverage, then ascending weight, mask
    and index.  With s the most universe elements in one candidate,
    lb(k) = ceil(k / s) * min weight bounds from below the weight still
    needed for k uncovered elements.  Pruning rules:

    1. the greedy incumbent is returned at once when it meets the root
       bound lb(|universe|);
    2. a child whose weight plus lb of what it leaves uncovered reaches
       the incumbent is neither entered nor recorded;
    3. a node stops at the first option for which its own weight plus
       the min weight plus lb of what that option leaves reaches the
       incumbent: later options cover no more and weigh no less;
    4. an incumbent meeting the root bound ends the search: a node with
       k sets chosen weighs at least k min weights and has covered at
       most k * s elements, so rule 3 stops every open node;
    5. every node evaluates `_fractional_bound` of its uncovered set U
       once, on entry, and returns when its weight plus that bound
       reaches the incumbent.  The bound is not monotone in what a child
       covers, so rules 2 to 4 keep lb.  It costs a scan of every
       candidate, so each evaluation counts as
       ceil(len(cands) / options at the node) nodes against the cap;
    6. a child entered with option S is skipped when its weight plus
       ceil(sum of y_e over U - S) reaches the incumbent, y being the
       packing of rule 5's evaluation.  y_e is the least share
       w_T / |T & U| over the candidates T through e, so every T
       collects at most w_T from U; restricted to U - S, y collects no
       more, so it is still feasible for the dual of covering U - S,
       and its sum bounds every cover of what the child leaves.

    Each rule cuts only subtrees holding no cover strictly lighter than
    the incumbent, and the branching order is that of the plain DFS, so
    the incumbents come in the same sequence as in the plain DFS and the
    certificate is the first optimum in DFS order.  Raises CapExceeded
    at the first node past COVER_NODE_CAP, nodes and charged bound
    evaluations counted together.

    A universe element that no candidate meets answers +inf at once.
    The branch tables (each element's candidates, the branching order)
    are built only when rule 1 does not return: most calls stop there.
    """
    if universe == 0:
        return 0, []
    if universe & ~union(cands):
        return INF, None
    max_size = max((c & universe).bit_count() for c in cands)
    min_weight = min(weights)

    # greedy incumbent: most fresh elements per weight (fresh * w' against
    # fresh' * w in integers), then lightest, then smallest mask
    uncovered = universe
    greedy: list[int] = []
    greedy_w = 0
    while uncovered:
        top_f, top_w, top_c, top_i = 0, 1, 0, -1
        for ci, c in enumerate(cands):
            fresh = (c & uncovered).bit_count()
            if fresh:
                w = weights[ci]
                gain = fresh * top_w - top_f * w
                if gain > 0 or gain == 0 and (w, c) < (top_w, top_c):
                    top_f, top_w, top_c, top_i = fresh, w, c, ci
        greedy.append(top_i)
        greedy_w += top_w
        uncovered &= ~top_c

    n = universe.bit_count()
    lb = [-(-k // max_size) * min_weight for k in range(n + 1)]
    if greedy_w <= lb[n]:
        return greedy_w, greedy

    by_elem: dict[int, list[int]] = {e: [] for e in bits(universe)}
    for ci, c in enumerate(cands):
        for e in bits(c & universe):
            by_elem[e].append(ci)
    # per element in branching order, its candidates sorted by (weight,
    # mask), stable over index, as complement masks, weights and indices:
    # a node's stable sort on what each leaves uncovered then gives the
    # order (-fresh, weight, mask, index)
    order = sorted(by_elem, key=lambda e: (len(by_elem[e]), e))
    elem_bits = [1 << e for e in order]
    options = []
    for e in order:
        cis = sorted(by_elem[e], key=lambda ci: (weights[ci], cands[ci]))
        options.append(([~cands[ci] for ci in cis], [weights[ci] for ci in cis], cis))

    best_w = greedy_w
    best_sel = greedy
    chosen: list[int] = []
    nodes = 0
    scale = _bound_scale(max_size)
    top = scale[1]

    def dfs(uncovered: int, cur_w: int, i: int):
        nonlocal best_w, best_sel, nodes
        nodes += 1
        if nodes > COVER_NODE_CAP:
            raise CapExceeded(f"cover search exceeded its node budget {COVER_NODE_CAP}")
        while not uncovered & elem_bits[i]:
            i += 1
        keeps, ws, cis = options[i]
        levels: list[tuple[int, int]] = []
        floor = _fractional_bound(uncovered, cands, weights, scale, levels)
        nodes += -(-len(cands) // len(keeps))
        if cur_w + floor >= best_w:
            return
        rests = [(uncovered & k).bit_count() for k in keeps]
        for r in sorted(range(len(rests)), key=rests.__getitem__):
            rest = rests[r]
            bound = lb[rest]
            if cur_w + min_weight + bound >= best_w:
                break
            w = cur_w + ws[r]
            if w + bound >= best_w:
                continue
            if not rest:
                best_w = w
                best_sel = chosen + [cis[r]]
                continue
            k = keeps[r]
            rest_y = sum(v * (hit & k).bit_count() for v, hit in levels)
            if w - (-rest_y // top) >= best_w:
                continue
            chosen.append(cis[r])
            dfs(uncovered & k, w, i + 1)
            chosen.pop()

    dfs(universe, 0, 0)
    return best_w, best_sel


def tau(m: Matroid, a: int) -> CoverResult:
    """Exact a-covering number with an optimal cover certificate.

    Convention: the empty matroid has tau = 0; a = 0 with a nonloop
    present yields the +inf sentinel rather than an error.

    At a = 1 a cover is a set of points, so tau_1 = epsilon and the
    points are the certificate, with no search.  The search would find
    the same: each representative lies in exactly one point, so its
    greedy pass takes every point, ascending, and meets rule 1's bound.

    For 1 < a < r the search always finds a cover: every representative
    point lies in its own rank-1 flat, and every rank-1 flat lies in a
    rank-a flat, which is a candidate.
    """
    if m.ground == 0:
        return CoverResult(0, Cover(()))
    if a < 0:
        return CoverResult(INF, None)
    r = m.rank()
    if a == 0 and r > 0:
        # a nonloop exists iff the rank is positive, and lies in no rank-0 set
        return CoverResult(INF, None)
    if a >= r:
        return CoverResult(1, Cover((m.ground,)))
    if a == 1:
        pts = m.flats_of_rank(1)
        return CoverResult(len(pts), Cover(tuple(pts)))
    cands = m.flats_of_rank(a)
    return _exact_cover("tau", m.representatives(), cands, [1] * len(cands))


def tau_weighted(m: Matroid, d: int) -> CoverResult:
    """Exact minimum d-weight of a cover, with a d-minimal certificate.

    The search always finds a cover: every representative point lies in
    its own rank-1 flat, and no rank-1 flat is dropped from the
    candidates (only flats of rank 0, or of rank above 1, can be).

    A rank-k flat holds at most eps - (r - k) of the eps points (a basis
    of it extends to one of M by r - k points outside it), so once
    d^k >= d * (eps - (r - k)) at a k > 1, the rule d^k >= d * p drops
    the whole level, and for d >= 2 every higher one: the loop stops
    there, with the same candidates.

    At d = 1 every flat weighs 1 and the only flat holding every point
    is E, so the answer is 1 by (E), the search's own, with no level
    built.
    """
    if d < 1:
        raise InputError("need d >= 1")
    if m.ground == 0:
        return CoverResult(0, Cover(()))
    if d == 1:
        return CoverResult(1, Cover((m.ground,)))
    r = m.rank()
    universe = m.representatives()
    if universe == 0:
        # all loops: the single rank-0 set E(M)
        return CoverResult(1, Cover((m.ground,)))
    eps = universe.bit_count()
    cands: list[int] = []
    weights: list[int] = []
    for k in range(0, r + 1):
        w = d ** k
        if k > 1 and w >= d * (eps - (r - k)):
            break
        for f in m.flats_of_rank(k):
            if f == 0:
                continue
            p = (f & universe).bit_count()
            if p == 0:
                continue
            # a flat never cheaper than covering its points one by one
            # can be dropped (points themselves are candidates)
            if k > 1 and w >= d * p:
                continue
            cands.append(f)
            weights.append(w)
    return _exact_cover("tau_weighted", universe, cands, weights)


def _exact_cover(who: str, universe: int, cands: list[int], weights: list[int]) -> CoverResult:
    """The capped search tau and tau_weighted share, certificate sorted; who names the caller."""
    if len(cands) > CANDIDATE_CAP:
        raise CapExceeded(f"{who}: {len(cands)} candidate flats exceed cap {CANDIDATE_CAP}")
    value, sel = _min_cover(universe, cands, weights)
    return CoverResult(value, Cover(tuple(sorted(cands[i] for i in sel))))


def is_d_thick(m: Matroid, x: int, d: int) -> bool:
    """True iff the restriction to x cannot be covered by fewer than d
    sets of rank below its own rank (tau with a negative index is +inf)."""
    if x == 0:
        raise InputError("thickness of the empty set is undefined")
    sub = m.restrict(x)
    return tau(sub, sub.rank() - 1).value >= d


def _max_uniform_restriction(m: Matroid, k: int, cap: int | None) -> int:
    """Greedy inclusion-maximal X with M|X uniform of rank min(|X|, k).

    Elements are scanned in ascending order; adding e keeps uniformity
    iff every (k-1)-subset of X spans rank k with e.  Rejections stay
    valid as X grows, so one pass is maximal.  Raises when |X| hits cap.

    k >= 2 (callers pass a + 1), so only `representatives` are
    scanned, and X is the one a scan of every element finds.  A loop is
    always rejected.  So is an element e parallel to an earlier p:
    either p is in X, and a set holding p spans e, or p was rejected
    for lying in the closure of a set that is still inside X, and that
    set spans e too.  So X, the point where the cap raises and its
    witness do not change.  At k = 2 every check passes without a rank
    query: any two distinct points span rank 2, so X is every
    representative, up to the cap.
    """
    x_list: list[int] = []
    x_mask = 0
    for e in bits(m.representatives()):
        be = 1 << e
        if k == 2:
            ok = True
        elif len(x_list) < k:
            ok = m.rank(x_mask | be) == len(x_list) + 1
        else:
            ok = all(m.rank(s | be) == k for s in ksubsets(x_mask, k - 1))
        if ok:
            x_list.append(e)
            x_mask |= be
            if cap is not None and len(x_list) >= cap:
                raise UniformMinorDetected(
                    f"found a U_{{{k},{cap}}} restriction", x_mask)
    return x_mask


def kdensity_cover(m: Matroid, a: int, b: int) -> Cover:
    """Constructive cover by rank-<=a sets of size <= C(b-1,a)^(r-a).

    Base case (rank a+1): grow a maximal uniform restriction X and take
    the closures of its a-subsets, read off the rank-a flats: they are
    the flats meeting X in at least a elements.  X is uniform of rank
    a+1 with at least a+1 elements, so every a-subset s of X is
    independent and cl(s) is a rank-a flat meeting X in s at least;
    conversely such a flat is the closure of any a of those elements.
    The level is ascending, so the cover keeps its order.

    Inductive case: contract a nonloop, cover the contraction, then
    refine each lifted class by the base case: above rank a every member
    has rank exactly a, so a lifted class has rank a+1.  Requires no
    U_{a+1,b} restriction of a contraction to surface; if one does,
    UniformMinorDetected carries the witness and the contracted set.
    """
    if not 1 <= a < b:
        raise InputError("need 1 <= a < b")
    if m.ground == 0:
        return Cover(())
    r = m.rank()
    if r <= a:
        return Cover((m.ground,))
    if r == a + 1:
        x = _max_uniform_restriction(m, a + 1, cap=b)
        return Cover(tuple(f for f in m.flats_of_rank(a) if (f & x).bit_count() >= a))
    nl = m.nonloops()
    e = (nl & -nl).bit_length() - 1
    try:
        sub = kdensity_cover(m.contract(1 << e), a, b)
    except UniformMinorDetected as exc:
        raise UniformMinorDetected(exc.message, exc.witness, exc.contracted | 1 << e) from None
    out: set[int] = set()
    for f in sub.sets:
        out.update(kdensity_cover(m.restrict(f | (1 << e)), a, b).sets)
    return Cover(tuple(sorted(out)))


def thick_uniform_minor(m: Matroid, a: int, b: int, d: int) -> tuple[int, int]:
    """Find a U_{a+1,b}-minor in a d-thick matroid with d > C(b-1,a).

    Thickness survives contracting any nonloop, so contract down to rank
    a+1; there a maximal uniform restriction of size < b would cover the
    matroid with at most C(b-1,a) < d rank-a sets, beating thickness.
    Returns (contract mask, restriction mask with >= b elements).
    """
    if not 1 <= a < b:
        raise InputError("need 1 <= a < b")
    if d <= math.comb(b - 1, a):
        raise PremiseError("need d > C(b-1, a)")
    if m.rank() <= a:
        raise PremiseError("need rank greater than a")
    if not is_d_thick(m, m.ground, d):
        raise PremiseError("matroid is not d-thick")
    cur = m
    contracted = 0
    while cur.rank() > a + 1:
        nl = cur.nonloops()
        e = nl & -nl
        contracted |= e
        cur = m.contract(contracted)
    x = _max_uniform_restriction(cur, a + 1, cap=None)
    if x.bit_count() < b:
        raise RuntimeError("thickness argument failed to produce b uniform elements")
    return contracted, x


@dataclass(frozen=True)
class ContractionReport:
    """Exact two-sided check of the contraction inequalities."""

    tau_a_m: int | float
    tau_a_mc: int | float
    cover_bound: Fraction
    cover_ok: bool
    tau_d_m: int | float
    tau_d_mc: int | float
    weighted_bound: Fraction
    weighted_ok: bool

    @property
    def ok(self) -> bool:
        return self.cover_ok and self.weighted_ok


def check_contraction_inequalities(m: Matroid, c: int, a: int, b: int, d: int) -> ContractionReport:
    """tau_a(M/C) >= C(b-1,a)^(-r(C)) tau_a(M) (valid for M in U(a,b))
    and tau^d(M/C) >= d^(-r(C)) tau^d(M), both in exact rationals."""
    rc = m.rank(c)
    mc = m.contract(c)
    ta_m = tau(m, a).value
    ta_mc = tau(mc, a).value
    td_m = tau_weighted(m, d).value
    td_mc = tau_weighted(mc, d).value
    cb = Fraction(ta_m, math.comb(b - 1, a) ** rc)
    wb = Fraction(td_m, d ** rc)
    return ContractionReport(
        tau_a_m=ta_m, tau_a_mc=ta_mc, cover_bound=cb, cover_ok=ta_mc >= cb,
        tau_d_m=td_m, tau_d_mc=td_mc, weighted_bound=wb, weighted_ok=td_mc >= wb)
