"""GF(q)-representability by backtracking coordinatization.

The searcher works on the simplification: loops map to the zero vector
and parallel elements share a column, so representability of the input
is representability of its simple quotient.  A basis of the matroid is
pinned to identity columns and every other column is normalized to
leading coordinate 1, removing basis-change and column-scaling freedom.
Remaining elements are assigned in order of decreasing constraint
(membership count in lines), with candidate vectors filtered by the
lines and higher flats through already-assigned elements.  Those filters
are necessary conditions only, so a completed assignment counts solely
after every flat of the input is re-checked to be a flat of the same
rank among the assigned columns, which forces equal rank functions.

"False" is answered before any candidate is tried when the
simplification has more points than PG(r-1, q), or a line with more
than q+1 points: such a line is a U_{2,q+2} restriction, and PG(1, q)
has only q+1 points.  Otherwise it means the normalized search space
was exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf
from .bits import bits
from .core import Matroid, UniformMatroid
from .errors import CapExceeded

MAX_RANK = 5
MAX_POINTS = 40

# backtracking node budget before giving up honestly
NODE_CAP = 2_000_000

Vec = tuple[int, ...]


@dataclass(frozen=True)
class RepResult:
    representable: bool
    matrix: gf.Matrix | None

    def __bool__(self):
        return self.representable


def _rank_functions_match(simp: Matroid, f: gf.FiniteField, assign: dict[int, Vec]) -> bool:
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

    def full_matrix(assign: dict[int, Vec]) -> gf.Matrix:
        zero = (0,) * rows
        cols = []
        for e in range(m.n):
            rep = mapping.get(e) if (m.ground >> e) & 1 else None
            cols.append(assign[rep] if rep is not None else zero)
        return gf.Matrix.from_columns(f, cols, rows)

    if npts == 0:
        return RepResult(True, full_matrix({}))
    if r == 1:
        one = (1,) + (0,) * (rows - 1)
        return RepResult(True, full_matrix({e: one for e in els}))

    points = gf.normalized_vectors(f, r)
    if npts > len(points):
        return RepResult(False, None)
    lines = simp.flats_of_rank(2)
    if any(ln.bit_count() > f.q + 1 for ln in lines):
        return RepResult(False, None)  # a U_{2,q+2} restriction

    add_t, mul_t = f.add_table, f.mul_table

    def vadd(u: Vec, v: Vec) -> Vec:
        return tuple(add_t[a][b] for a, b in zip(u, v))

    def smul(c: int, u: Vec) -> Vec:
        row = mul_t[c]
        return tuple(row[a] for a in u)

    def normalize(v: Vec) -> Vec:
        for c in v:
            if c:
                return v if c == 1 else smul(f.inv_table[c], v)
        return v

    line_cache: dict[tuple[Vec, Vec], frozenset[Vec]] = {}

    def image_line(u: Vec, v: Vec) -> frozenset[Vec]:
        key = (u, v) if u < v else (v, u)
        got = line_cache.get(key)
        if got is None:
            pts = {normalize(v)}
            for c in range(f.q):
                pts.add(normalize(vadd(u, smul(c, v))))
            got = frozenset(pts)
            line_cache[key] = got
        return got

    basis = simp.basis_of(simp.ground)
    basis_els = sorted(bits(basis))
    line_count = {e: 0 for e in els}
    lines_through = {e: [] for e in els}
    for ln in lines:
        for e in bits(ln):
            line_count[e] += 1
            lines_through[e].append(ln)
    rest = [e for e in els if e not in basis_els]
    rest.sort(key=lambda e: (-line_count[e], e))
    order = basis_els + rest

    # higher flats (planes and up) give span constraints once their
    # assigned part reaches full rank
    flats_through: dict[int, list[tuple[int, int]]] = {e: [] for e in els}
    for k in range(3, r):
        for fl in simp.flats_of_rank(k):
            for e in bits(fl):
                flats_through[e].append((fl, k))

    unit: list[Vec] = [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]

    nodes = 0

    def candidates_for(e: int, assign: dict[int, Vec], assigned_mask: int):
        be = 1 << e
        allowed: set[Vec] | None = None
        collinear_pairs: set[tuple[int, int]] = set()
        for ln in lines_through[e]:
            part = ln & assigned_mask
            hit = list(bits(part))
            for i in range(len(hit)):
                for j in range(i + 1, len(hit)):
                    collinear_pairs.add((hit[i], hit[j]))
            if len(hit) >= 2:
                img = image_line(assign[hit[0]], assign[hit[1]])
                allowed = img if allowed is None else (allowed & img)
        forbidden: set[Vec] = set(assign.values())
        items = sorted(assign)
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                if (items[i], items[j]) not in collinear_pairs:
                    forbidden |= image_line(assign[items[i]], assign[items[j]])
        pool = [v for v in (sorted(allowed) if allowed is not None else points)
                if v not in forbidden]
        parts = [fl & assigned_mask for fl, k in flats_through[e]
                 if simp.rank(fl & assigned_mask) == k]
        if not parts:
            return pool
        pool_vecs = [gf.vector(f, v) for v in pool]
        assigned_vecs = {x: gf.vector(f, v) for x, v in assign.items()}
        keep = (1 << len(pool)) - 1
        for part in parts:
            keep = gf.spanned(f, gf.echelon(f, assigned_vecs, part), pool_vecs, keep)
        return [pool[i] for i in bits(keep)]

    def search(idx: int, assign: dict[int, Vec], assigned_mask: int):
        nonlocal nodes
        if idx == len(order):
            if _rank_functions_match(simp, f, assign):
                return dict(assign)
            return None
        nodes += 1
        if nodes > NODE_CAP:
            raise CapExceeded("representability search exceeded its node budget")
        e = order[idx]
        be = 1 << e
        if idx < len(basis_els):
            cand = [unit[idx]]
        else:
            cand = candidates_for(e, assign, assigned_mask)
        for v in cand:
            assign[e] = v
            out = search(idx + 1, assign, assigned_mask | be)
            if out is not None:
                return out
            del assign[e]
        return None

    solution = search(0, {}, 0)
    if solution is None:
        return RepResult(False, None)
    return RepResult(True, full_matrix(solution))


def is_pg(m: Matroid, n: int, q: int) -> bool:
    """Is si(M) the rank-n projective geometry over GF(q)?

    A simple rank-n GF(q)-representable matroid has at most
    (q^n - 1)/(q - 1) points, with equality exactly for the full
    geometry, so point count plus representability decides isomorphism.
    """
    gf.field(q)  # refuses a q that is not a field order
    if m.rank() != n:
        return False
    if m.epsilon() != (q ** n - 1) // (q - 1):
        return False
    return is_representable(m, q).representable


def uniform_representability_fact(a: int, b: int, q: int) -> bool:
    """Oracle verdict for U_{a+1,b} over GF(q) at tiny scale.

    Sanity harness for the classical fact that U_{a+1,b} is
    GF(q)-representable whenever q >= b.
    """
    if a + 1 > 3 or b > 7 or q > 8:
        raise CapExceeded("uniform representability fact is capped at "
                          "a+1 <= 3, b <= 7, q <= 8")
    return is_representable(UniformMatroid(a + 1, b), q).representable
