"""Kernels as they were before they read what they already held: `tau`
running the exact cover search on the points at a = 1, `tau_weighted`
reading every level of the flat lattice, the cover branch and bound
building its branch tables before rule 1, the Theorem 4 base case
taking one closure per a-subset of X, the uniform restriction scanning
every element, the representability re-check walking every level of
the flat lattice, `gf.Matrix` checking and transposing entry by entry,
the stack projection making C disjoint from the stack in a parallel
extension (`ParallelExtensionMatroid`, kept here with it), and
`catalog._random_columns` drawing each entry with `randrange`.  Kept as
the reference that tests/test_kernel_reference.py compares
`mdl.covers`, `mdl.rep`, `mdl.gf`, `mdl.stacks` and `mdl.catalog` with:
the same values, covers, witnesses, verdicts, entries, parts, columns
and error text.  The copies are verbatim; recursive calls and
`thick_uniform_minor` reach the copies here."""

from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

from mdl import gf
from mdl.bits import bits, indices_of, ksubsets, mask_of, union
from mdl.core import Matroid
from mdl.covers import (COVER_NODE_CAP, INF, Cover, CoverResult, _bound_scale, _exact_cover,
                        _fractional_bound, is_d_thick)
from mdl.errors import CapExceeded, InputError, PremiseError, UniformMinorDetected
from mdl.gf import FiniteField
from mdl.stacks import StackCert, certify, verify_stack


def tau(m: Matroid, a: int) -> CoverResult:
    """Exact a-covering number with an optimal cover certificate.

    Convention: the empty matroid has tau = 0; a = 0 with a nonloop
    present yields the +inf sentinel rather than an error.

    The search always finds a cover: for 1 <= a < r every representative
    point lies in its own rank-1 flat, and every rank-1 flat lies in a
    rank-a flat, which is a candidate.
    """
    if m.ground == 0:
        return CoverResult(0, Cover(()))
    if a < 0:
        return CoverResult(INF, None)
    if a == 0:
        if m.ground & ~m.loops():
            return CoverResult(INF, None)
        return CoverResult(1, Cover((m.ground,)))
    r = m.rank()
    if a >= r:
        return CoverResult(1, Cover((m.ground,)))
    cands = m.flats_of_rank(a)
    return _exact_cover("tau", m.representatives(), cands, [1] * len(cands))


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
    """
    if universe == 0:
        return 0, []
    by_elem: dict[int, list[int]] = {e: [] for e in bits(universe)}
    for ci, c in enumerate(cands):
        for e in bits(c & universe):
            by_elem[e].append(ci)
    if any(not lst for lst in by_elem.values()):
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


def tau_weighted(m: Matroid, d: int) -> CoverResult:
    """Exact minimum d-weight of a cover, with a d-minimal certificate.

    The search always finds a cover: every representative point lies in
    its own rank-1 flat, and no rank-1 flat is dropped from the
    candidates (only flats of rank 0, or of rank above 1, can be).
    """
    if d < 1:
        raise InputError("need d >= 1")
    if m.ground == 0:
        return CoverResult(0, Cover(()))
    r = m.rank()
    universe = m.representatives()
    if universe == 0:
        # all loops: the single rank-0 set E(M)
        return CoverResult(1, Cover((m.ground,)))
    cands: list[int] = []
    weights: list[int] = []
    for k in range(0, r + 1):
        w = d ** k
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


def _max_uniform_restriction(m: Matroid, k: int, cap: int | None) -> int:
    """Greedy inclusion-maximal X with M|X uniform of rank min(|X|, k).

    Elements are scanned in ascending order; adding e keeps uniformity
    iff every (k-1)-subset of X spans rank k with e.  Rejections stay
    valid as X grows, so one pass is maximal.  Raises when |X| hits cap.
    """
    x_list: list[int] = []
    x_mask = 0
    for e in m.elements():
        be = 1 << e
        if len(x_list) < k:
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
    the closures of its a-subsets.  Inductive case: contract a nonloop,
    cover the contraction, then refine each lifted class by the base
    case: above rank a every member has rank exactly a, so a lifted
    class has rank a+1.  Requires no U_{a+1,b} restriction to surface; if one
    does, UniformMinorDetected carries the witness.
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
        sets = sorted({m.closure(s) for s in ksubsets(x, a)})
        return Cover(tuple(sets))
    nl = m.nonloops()
    e = (nl & -nl).bit_length() - 1
    sub = kdensity_cover(m.contract(1 << e), a, b)
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


def _rank_functions_match(simp: Matroid, f: gf.FiniteField,
                          assign: dict[int, tuple[int, ...]]) -> bool:
    """Exact equality of simp's rank function and that of its assigned columns.

    Checks that every flat F of simp, at every rank k, spans a column
    space of rank k containing no column outside F.  Then each flat of
    simp is a flat of the same rank of the columns, and by induction
    each independent set I stays independent (b lies outside cl(I - b),
    a flat), so the two rank functions agree on every subset.
    """
    vecs = {e: gf.vector(f, v) for e, v in assign.items()}
    for k in range(simp.rank() + 1):
        for fl in simp.flats_of_rank(k):
            pivots = gf.echelon(f, vecs, fl)
            if len(pivots) != k or gf.spanned(f, pivots, vecs, simp.ground & ~fl):
                return False
    return True


class Matrix:
    """Dense matrix over a FiniteField; entries stored row-major."""

    __slots__ = ("field", "rows", "cols", "entries", "_columns")

    def __init__(self, f: FiniteField, rows: int, cols: int, entries: Iterable[Iterable[int]]):
        self.field = f
        self.rows = rows
        self.cols = cols
        rows_t = tuple(tuple(row) for row in entries)
        if len(rows_t) != rows or any(len(r) != cols for r in rows_t):
            raise InputError("entry grid does not match declared shape")
        for r in rows_t:
            for e in r:
                if not 0 <= e < f.q:
                    raise InputError(f"entry {e} is not a GF({f.q}) element")
        self.entries = rows_t
        self._columns = tuple(tuple(rows_t[i][j] for i in range(rows)) for j in range(cols))

    def column(self, j: int) -> tuple[int, ...]:
        return self._columns[j]

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return self._columns

    @classmethod
    def from_columns(cls, f: FiniteField, columns: Sequence[Sequence[int]], rows: int) -> "Matrix":
        cols = len(columns)
        entries = [[columns[j][i] for j in range(cols)] for i in range(rows)]
        return cls(f, rows, cols, entries)

    def __repr__(self):
        return f"Matrix(GF({self.field.q}), {self.rows}x{self.cols})"


class ParallelExtensionMatroid(Matroid):
    """Base matroid plus fresh elements, each parallel to an existing one.

    The host of the old `project_stack` below, and the test corpora's
    only non-linear parallel class; `stacks` no longer needs it, as a
    contraction set may meet the stack.  Not part of the file format.
    """

    kind = "parallel_extension"

    def __init__(self, base: Matroid, originals: Sequence[int]):
        for e in originals:
            if not (base.ground >> e) & 1:
                raise IndexError("parallel extension of a dead element")
        super().__init__(base.n + len(originals), base.ground |
                         (((1 << len(originals)) - 1) << base.n))
        self.base = base
        self.originals = tuple(originals)

    def copy_index(self, i: int) -> int:
        return self.base.n + i

    def _project(self, x: int) -> int:
        lo = x & ((1 << self.base.n) - 1)
        hi = x >> self.base.n
        for i in bits(hi):
            lo |= 1 << self.originals[i]
        return lo

    def _rank_impl(self, x: int) -> int:
        return self.base.rank(self._project(x))


def parallel_extension(base: Matroid, originals: Sequence[int]) -> ParallelExtensionMatroid:
    return ParallelExtensionMatroid(base, originals)


def project_stack(m: Matroid, cert: StackCert, c: int, k: int) -> StackCert:
    """Survive a projection: a k(r(C)+1)-layer stack yields a k-layer
    stack of (M/C)|E(S) inside the original stack's ground.

    Recursion from the robustness proof: if C is skew to the first k
    layers they survive verbatim; otherwise contract those layers, which
    strictly drops r(C), recurse, and fold the contracted layers into the
    first returned one.  When C meets E(S), work in a parallel extension
    so the two are disjoint, then strip C from the result.
    """
    check = verify_stack(m, cert)
    if not check.ok:
        raise PremiseError(f"supplied certificate invalid: {check.reason}")
    rc = m.rank(c)
    if cert.height < k * (rc + 1):
        raise PremiseError(
            f"need at least k(r(C)+1) = {k * (rc + 1)} layers, have {cert.height}")
    layers = cert.union()
    overlap = c & layers
    if overlap:
        originals = indices_of(overlap)
        pe = parallel_extension(m, originals)
        c_work = (c & ~layers) | mask_of(pe.copy_index(i) for i in range(len(originals)))
        host: Matroid = pe
    else:
        c_work = c
        host = m

    def recurse(cur: Matroid, parts: tuple[int, ...], cset: int) -> tuple[int, ...]:
        if cur.rank(cset) == 0:
            return parts[:k]
        first = union(parts[:k])
        if cur.local_conn(cset, first) == 0:
            return parts[:k]
        nxt = cur.contract(first)
        if nxt.rank(cset) >= cur.rank(cset):
            raise RuntimeError("projection recursion failed to reduce r(C)")
        sub = recurse(nxt, parts[k:], cset)
        return (first | sub[0],) + tuple(sub[1:])

    parts = recurse(host, cert.parts, c_work)
    stripped = tuple(p & ~c for p in parts)
    return certify(m.contract(c), stripped, cert.q)


def _random_columns(rng: random.Random, count: int, rows: int, q: int) -> list[tuple[int, ...]]:
    """`count` nonzero GF(q) columns of length `rows`, each drawn from rng
    entry by entry, top row first, and drawn again while it is zero."""
    columns = []
    for _ in range(count):
        while True:
            col = tuple(rng.randrange(q) for _ in range(rows))
            if any(col):
                break
        columns.append(col)
    return columns
