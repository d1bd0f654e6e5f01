"""GF(q)-representability: a verdict from the input's own field or its
rank, else a search.

`representable` answers True at once for a matrix over a subfield of
GF(q), or a minor of one (the class is minor-closed), and so decides
`is_pg` on such an input by its rank and point count alone.  It answers
every input of rank at most 2 by its point count: U_{2,q+2} is the only
obstruction there.  Every other verdict, and every matrix, comes from
`is_representable`'s backtracking coordinatization, described below.

The searcher works on the simplification: loops map to the zero vector
and parallel elements share a column, so representability of the input
is representability of its simple quotient.  A basis of the matroid is
pinned to identity columns and every other column is normalized to
leading coordinate 1, removing basis-change and column-scaling freedom:
the columns are points of PG(r-1, q).  The search names a point by its
index, its rank in lex order among the normalized vectors.  The index
is computed, not looked up (`gf.point_index`, `gf.point_vector`), so no
list of the θ(r, q) = (q^r - 1)/(q - 1) points is built.  Candidates
are tried in increasing index, which is lex order.
Remaining elements are assigned in order of decreasing constraint
(membership count in lines).

One span rule filters the candidates for every flat F of rank k,
1 <= k < r.  Let A be the assigned elements.  Once F & A has rank k, F
has an image, the span of the points of F & A, and an element e must
lie in that image if e is in F and outside it otherwise.  For k = 1
this says no two elements share a point; a line's image is the line
through its first two points, and every later element of the line
stays on it.  Both halves are sound.  When e is not in F, a point in
the image puts e into the closure of F & A among the columns, but e is
not in cl(F & A) = F; when e is in F, a point outside the image gives
the columns of F & A + e rank k + 1 where the matroid has k.  Either
way the final re-check rejects every completion.  So the rule removes
only subtrees that contain no accepted leaf, and as the order of the
candidates is kept, the first accepted leaf, and with it the matrix, is
the one the search finds without the rule.  By induction on A the rule
also keeps the rank function of the assigned columns equal to the
matroid's on A (for X within A and e, the image of cl(X) is the span of
X's columns), so the re-check rejects no leaf that the rule lets
through.

A completed assignment is still re-checked: the columns must have rank
r, and every hyperplane of the input must span rank r - 1 among them
and no column outside itself.  Every flat is an intersection of
hyperplanes, so every flat is then a flat of the same rank among the
columns, which forces equal rank functions (`_rank_functions_match`).

"False" is answered before any candidate is tried when the
simplification has more points than PG(r-1, q), or a line with more
than q+1 points: such a line is a U_{2,q+2} restriction, and PG(1, q)
has only q+1 points.  Otherwise it means the search was exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import gf
from .bits import bits
from .core import LinearMatroid, Matroid, MinorMatroid, UniformMatroid
from .errors import CapExceeded

MAX_RANK = 5
MAX_POINTS = 40

# backtracking node budget before giving up honestly
NODE_CAP = 2_000_000


@dataclass(frozen=True)
class RepResult:
    representable: bool
    matrix: gf.Matrix | None


def _rank_functions_match(simp: Matroid, f: gf.FiniteField,
                          assign: dict[int, tuple[int, ...]]) -> bool:
    """Exact equality of simp's rank function and that of its assigned columns.

    With r = r(simp), checks that the columns have rank r and that every
    hyperplane H of simp spans a column space of rank r - 1 containing
    no column outside H.  That is enough.  Every flat other than E is an
    intersection of hyperplanes, so every flat of simp is closed among
    the columns.  Along a maximal chain of flats, from cl(∅) = ∅ (simp
    is simple) to E, these closed sets are distinct, so their column
    ranks rise strictly from 0 to r, one per step: each flat has its own
    rank among the columns.  By induction each independent set I stays
    independent (b lies outside cl(I - b), a flat), so the two rank
    functions agree on every subset.
    """
    vecs = {e: gf.vector(f, v) for e, v in assign.items()}
    r = simp.rank()
    if len(gf.echelon(f, vecs, simp.ground)) != r:
        return False
    for h in simp.flats_of_rank(r - 1):
        pivots = gf.echelon(f, vecs, h)
        if len(pivots) != r - 1 or gf.spanned(f, pivots, vecs, simp.ground & ~h):
            return False
    return True


def _span(f: gf.FiniteField, r: int, pts) -> frozenset[int]:
    """The indices of the points in the span of the points pts.

    Each point p outside the span so far adds itself and the point of
    u + c p for every vector u found so far and every nonzero c: a point
    of the larger span outside the smaller one lies on one line through
    p, which meets the smaller span in one point.  So every point is
    found once, θ(k, q) in all for a span of rank k.
    """
    add_t, mul_t = f.add_table, f.mul_table
    vecs: list = []
    out: set[int] = set()
    for p in pts:
        if p in out:
            continue
        b = gf.point_vector(p, f.q, r)
        multiples = [[mul_t[c][y] for y in b] for c in range(1, f.q)]
        found = [b]
        for u in vecs:
            for cb in multiples:
                found.append([add_t[x][y] for x, y in zip(u, cb)])
        vecs += found
        out.add(p)
        out.update(gf.point_index(f, w) for w in found[1:])
    return frozenset(out)


@lru_cache(maxsize=1 << 13)
def _line(q: int, r: int, a: int, b: int) -> frozenset[int]:
    """The points of the line through points a < b of PG(r-1, q).

    Kept across calls: searches on the same geometry ask the same
    lines.  In the verify workload's round these are lem14's `is_pg`
    premise checks, on M \\ X for the same few shapes, which find 35 of
    their 77 lines here.
    """
    return _span(gf.field(q), r, (a, b))


def is_representable(m: Matroid, q: int) -> RepResult:
    """Decide GF(q)-representability; on success return a full matrix.

    Caps: rank <= 5 and at most 40 points.  The returned matrix assigns
    the zero vector to loops and equal columns to parallel elements.
    """
    f = gf.field(q)
    r = m.rank()
    simp, mapping = m.simplify()
    els = sorted(simp.elements())
    npts = len(els)
    if r > MAX_RANK:
        raise CapExceeded(f"representability cap: rank {r} > {MAX_RANK}")
    if npts > MAX_POINTS:
        raise CapExceeded(f"representability cap: {npts} points > {MAX_POINTS}")
    rows = max(r, 1)

    def full_matrix(assign: dict[int, tuple[int, ...]]) -> gf.Matrix:
        zero = (0,) * rows
        cols = []
        for e in range(m.n):
            rep = mapping.get(e) if (m.ground >> e) & 1 else None
            cols.append(assign[rep] if rep is not None else zero)
        return gf.Matrix.from_columns(f, cols, rows)

    theta = (q ** r - 1) // (q - 1)  # the points of PG(r-1, q)
    if npts > theta:
        return RepResult(False, None)
    lines = simp.flats_of_rank(2)
    if any(ln.bit_count() > q + 1 for ln in lines):
        return RepResult(False, None)  # a U_{2,q+2} restriction

    basis = simp.basis_of(simp.ground)
    basis_els = sorted(bits(basis))
    line_count = {e: 0 for e in els}
    for ln in lines:
        for e in bits(ln):
            line_count[e] += 1
    rest = [e for e in els if e not in basis_els]
    rest.sort(key=lambda e: (-line_count[e], e))
    order = basis_els + rest
    units = [gf.point_index(f, [int(i == j) for i in range(r)]) for j in range(r)]

    # the flats of rank 2 to r - 1 through each element, with their ranks
    through: dict[int, list[tuple[int, int]]] = {e: [] for e in els}
    for k in range(2, r):
        for fl in lines if k == 2 else simp.flats_of_rank(k):
            for e in bits(fl):
                through[e].append((fl, k))

    point: dict[int, int] = {}  # assigned element -> index of its point
    image: dict[int, frozenset[int]] = {}  # flat -> its image, once it has one
    nodes = 0

    def candidates(e: int):
        allowed: frozenset[int] | None = None
        forbidden = set(point.values())
        for fl, img in image.items():
            if (fl >> e) & 1:
                allowed = img if allowed is None else allowed & img
            else:
                forbidden.update(img)
        if allowed is not None:
            return sorted(allowed - forbidden)
        return (p for p in range(theta) if p not in forbidden)

    def search(idx: int, assigned_mask: int):
        nonlocal nodes
        if idx == len(order):
            assign = {e: gf.point_vector(p, q, r) for e, p in point.items()}
            return assign if _rank_functions_match(simp, f, assign) else None
        nodes += 1
        if nodes > NODE_CAP:
            raise CapExceeded("representability search exceeded its node budget")
        e = order[idx]
        assigned_mask |= 1 << e
        cand = [units[idx]] if idx < len(basis_els) else candidates(e)
        # flats that get their image with e, each with the points it has
        # without e; the last element's images would bound nothing
        ready = [] if idx + 1 == len(order) else [
            (fl, [point[x] for x in bits(fl & ~(1 << e) & assigned_mask)])
            for fl, k in through[e]
            if fl not in image and simp.rank(fl & assigned_mask) == k]
        for p in cand:
            point[e] = p
            for fl, pts in ready:
                if len(pts) > 1:
                    image[fl] = _span(f, r, pts + [p])
                else:
                    image[fl] = _line(q, r, pts[0], p) if pts[0] < p else _line(q, r, p, pts[0])
            out = search(idx + 1, assigned_mask)
            if out is not None:
                return out
        for fl, _ in ready:
            image.pop(fl, None)
        point.pop(e, None)
        return None

    solution = search(0, 0)
    if solution is None:
        return RepResult(False, None)
    return RepResult(True, full_matrix(solution))


def representable(m: Matroid, q: int) -> bool:
    """The GF(q)-representability verdict of m, without a matrix.

    A LinearMatroid over GF(p^a), or a minor of one, with q = p^b and
    a | b, is answered True before any cap or search:
    - a deletion keeps a subset of the columns;
    - a contraction by C maps the columns modulo span(C), a GF(p^a)-linear
      map, and M/C is the column matroid of their images;
    - GF(p^a) embeds in GF(p^b) iff a | b, and the rank of a set of
      vectors does not change under field extension.
    Every input of rank at most 1 is representable: all its nonloops
    share one point.  A rank-2 input is representable iff it has at most
    q + 1 points: si(M) is U_{2,ε}, since every two of its points span
    it, and PG(1, q) has q + 1 points.  Neither needs a search, so
    neither meets its caps.  No matrix is produced, so there is nothing
    to re-check.  Every other input, of rank 3 or more, gets
    `is_representable`'s verdict, with its caps.
    """
    f = gf.field(q)  # refuses a q that is not a field order
    base = m.base if isinstance(m, MinorMatroid) else m
    if isinstance(base, LinearMatroid) and base.field.p == f.p and f.k % base.field.k == 0:
        return True
    if m.rank() <= 2:
        return m.rank() < 2 or m.epsilon() <= q + 1
    return is_representable(m, q).representable


def is_pg(m: Matroid, n: int, q: int) -> bool:
    """Is si(M) the rank-n projective geometry over GF(q)?

    A simple rank-n GF(q)-representable matroid has at most
    (q^n - 1)/(q - 1) points, with equality exactly for the full
    geometry, so point count plus representability decides isomorphism.
    For a matrix over a subfield of GF(q), or a minor of one, rank and
    point count decide alone (see `representable`).
    """
    gf.field(q)  # refuses a q that is not a field order
    if m.rank() != n:
        return False
    if m.epsilon() != (q ** n - 1) // (q - 1):
        return False
    return representable(m, q)


def uniform_representability_fact(a: int, b: int, q: int) -> bool:
    """Oracle verdict for U_{a+1,b} over GF(q) at tiny scale.

    Sanity harness for the classical fact that U_{a+1,b} is
    GF(q)-representable whenever q >= b.
    """
    if a + 1 > 3 or b > 7 or q > 8:
        raise CapExceeded("uniform representability fact is capped at "
                          "a+1 <= 3, b <= 7, q <= 8")
    return is_representable(UniformMatroid(a + 1, b), q).representable
