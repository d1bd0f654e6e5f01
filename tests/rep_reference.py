"""The representability search as it was before it worked over point
indices: candidates are coordinate tuples, the forbidden set is rebuilt
at every node from the image lines of all pairs of assigned elements,
and only lines exclude points; planes and higher flats only include.
Kept as the reference that tests/test_rep.py compares the search in
`mdl.rep` with: the same verdict and matrix, and never more nodes.  The
only edits to the copy: it returns the node count with its result, and
reads the node budget as `rep.NODE_CAP`."""

from __future__ import annotations

from mdl import gf, rep
from mdl.bits import bits
from mdl.core import Matroid
from mdl.errors import CapExceeded
from mdl.rep import MAX_POINTS, MAX_RANK, RepResult, _rank_functions_match

Vec = tuple[int, ...]


def reference_is_representable(m: Matroid, q: int) -> tuple[RepResult, int]:
    """Decide GF(q)-representability; on success return a full matrix.

    Returns the result and the number of search nodes.  Caps: rank <= 5
    and at most 40 points.  The returned matrix assigns the zero vector
    to loops and equal columns to parallel elements.
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
        return RepResult(True, full_matrix({})), 0
    if r == 1:
        one = (1,) + (0,) * (rows - 1)
        return RepResult(True, full_matrix({e: one for e in els})), 0

    points = gf.normalized_vectors(f, r)
    if npts > len(points):
        return RepResult(False, None), 0
    lines = simp.flats_of_rank(2)
    if any(ln.bit_count() > f.q + 1 for ln in lines):
        return RepResult(False, None), 0  # a U_{2,q+2} restriction

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
        if nodes > rep.NODE_CAP:
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
        return RepResult(False, None), nodes
    return RepResult(True, full_matrix(solution)), nodes
