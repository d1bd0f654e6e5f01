"""Arithmetic tables for small finite fields GF(q), q a prime power <= 32.

Every order q = p^k is built the same way, as the polynomials over
GF(p) modulo one fixed monic modulus of degree k, so the element
encoding is reproducible across runs and machines.  A prime field takes
the modulus x, so its elements are the constants; each extension field
takes a fixed irreducible one:

    GF(4):  x^2 + x + 1
    GF(8):  x^3 + x + 1
    GF(9):  x^2 + 1
    GF(16): x^4 + x + 1
    GF(25): x^2 + x + 2
    GF(27): x^3 + 2x + 1
    GF(32): x^5 + x^2 + 1

An element is the integer whose base-p digits are the coefficients of
its polynomial representative, constant term first.  For prime q this is
just the integer mod p; in every case the integers 0..p-1 form the prime
subfield.

Gaussian elimination lives here and nowhere else: `vector` encodes a
column, `echelon` reduces the columns of a subset to pivots, `spanned`
tests further columns against them, and `classes` splits further
columns into those in the pivots' span and groups of the others by the
span they add; the last two share one reduction step, `_residuals`.
Linear matroid ranks, closures and flats and the representability
search's span checks all use them.

`point_index` and `point_vector` are the one numbering of the points of
PG(r-1, q), which catalog `pg` and the representability search share;
`normalized_vectors` lists the points in that order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InputError

MAX_ORDER = 32

# irreducible modulus per extension order, coefficients ascending
_IRREDUCIBLE = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 1, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
}


def _prime_power(q: int):
    """Return (p, k) with q = p^k and p prime, or None."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return (q, 1)
    m, k = q, 0
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


def _digits(x: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(x % p)
        x //= p
    return out


def _undigits(cs: Sequence[int], p: int) -> int:
    x = 0
    for c in reversed(cs):
        x = x * p + c
    return x


def _poly_mul_mod(u: Sequence[int], v: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    k = len(mod) - 1
    prod = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                prod[i + j] = (prod[i + j] + a * b) % p
    # reduce by the monic modulus
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
    return prod[:k]


class FiniteField:
    """GF(q) with dense addition/multiplication tables.

    Immutable after construction; every operation is a pure table lookup
    and safe to call from any number of threads.
    """

    __slots__ = ("q", "p", "k", "irreducible_poly", "add_table", "mul_table",
                 "neg_table", "inv_table")

    def __init__(self, q: int):
        pp = _prime_power(q) if 2 <= q <= MAX_ORDER else None
        if pp is None:
            raise InputError(f"q={q} is not a prime power in [2, {MAX_ORDER}]")
        self.q = q
        self.p, self.k = pp
        self.irreducible_poly = _IRREDUCIBLE.get(q)
        mod = self.irreducible_poly or (0, 1)  # GF(p): the polynomials mod x
        polys = [_digits(x, self.p, self.k) for x in range(q)]
        add = []
        mul = []
        for x in range(q):
            add.append(tuple(
                _undigits([(a + b) % self.p for a, b in zip(polys[x], polys[y])], self.p)
                for y in range(q)))
            mul.append(tuple(
                _undigits(_poly_mul_mod(polys[x], polys[y], mod, self.p), self.p)
                for y in range(q)))
        self.add_table = tuple(add)
        self.mul_table = tuple(mul)
        neg = [0] * q
        for x in range(q):
            neg[x] = self.add_table[x].index(0)
        self.neg_table = tuple(neg)
        inv = [None] * q
        for x in range(1, q):
            inv[x] = self.mul_table[x].index(1)
        self.inv_table = tuple(inv)

    def add(self, x: int, y: int) -> int:
        return self.add_table[x][y]

    def mul(self, x: int, y: int) -> int:
        return self.mul_table[x][y]

    def neg(self, x: int) -> int:
        return self.neg_table[x]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        return self.inv_table[x]

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> FiniteField:
    """Shared immutable field instance for order q."""
    return FiniteField(q)


class Matrix:
    """Dense matrix over a FiniteField, entries row-major, each row range-checked
    by its min and max (a failure names the first bad entry); columns by one zip."""

    __slots__ = ("field", "rows", "cols", "entries", "_columns")

    def __init__(self, f: FiniteField, rows: int, cols: int, entries: Iterable[Iterable[int]]):
        self.field = f
        self.rows = rows
        self.cols = cols
        rows_t = tuple(tuple(row) for row in entries)
        if len(rows_t) != rows or any(len(r) != cols for r in rows_t):
            raise InputError("entry grid does not match declared shape")
        q = f.q
        for r in rows_t:
            if r and (min(r) < 0 or max(r) >= q):
                bad = next(e for e in r if not 0 <= e < q)
                raise InputError(f"entry {bad} is not a GF({q}) element")
        self.entries = rows_t
        self._columns = tuple(zip(*rows_t)) if rows else ((),) * cols

    def column(self, j: int) -> tuple[int, ...]:
        return self._columns[j]

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return self._columns

    @classmethod
    def from_columns(cls, f: FiniteField, columns: Sequence[Sequence[int]], rows: int) -> "Matrix":
        entries = zip(*columns) if columns else [()] * rows
        return cls(f, rows, len(columns), entries)

    def __repr__(self):
        return f"Matrix(GF({self.field.q}), {self.rows}x{self.cols})"


def vector(f: FiniteField, coords: Sequence[int]):
    """The echelon kernel's encoding of a coordinate vector.

    Over GF(2) an int with bit i set when coordinate i is 1, reduced by
    xor; over larger fields the coordinates as a tuple, reduced through
    the field tables.  Only this module looks inside an encoded vector.
    """
    if f.q == 2:
        x = 0
        for i, c in enumerate(coords):
            if c:
                x |= 1 << i
        return x
    return tuple(coords)


def _residuals(f: FiniteField, pivots: list, vecs, mask: int):
    """Yield (bit, w) for each e of mask: vecs[e] minus its pivot components.

    This is the reduction step of `echelon`, against a finished basis.
    w is zero at every pivot's lead, so it is the one such vector that
    differs from vecs[e] by an element of the pivots' span; it is zero
    exactly when vecs[e] lies in that span.  Over GF(q) w is a list.
    """
    if f.q == 2:
        while mask:
            low = mask & -mask
            v = vecs[low.bit_length() - 1]
            mask ^= low
            for p in pivots:
                if v & (p & -p):
                    v ^= p
            yield low, v
        return
    add_t, mul_t = f.add_table, f.mul_table
    while mask:
        low = mask & -mask
        w = list(vecs[low.bit_length() - 1])
        mask ^= low
        for lead, nz in pivots:
            c = w[lead]
            if c:
                row = mul_t[c]
                for i, p in nz:
                    w[i] = add_t[w[i]][row[p]]
        yield low, w


def echelon(f: FiniteField, vecs, mask: int) -> list:
    """Echelon basis of vecs[e] for e in mask (vecs holds `vector`s).

    len() of the result is the rank of those vectors; pass it to
    `spanned` or `classes`.  Over GF(2) a pivot is an int whose lowest
    set bit is its lead; no pivot has the lead of an earlier one.  Over
    GF(q) a pivot is (lead, [(i, -a_i) for each nonzero a_i]) where a is
    the reduced vector scaled to a_lead = 1, zero at every earlier
    pivot's lead.
    """
    # reduction inline, not via _residuals: that was 13-30% slower over GF(2), 10-18% over GF(q)
    pivots: list = []
    if f.q == 2:
        while mask:
            low = mask & -mask
            v = vecs[low.bit_length() - 1]
            mask ^= low
            for p in pivots:
                if v & (p & -p):
                    v ^= p
            if v:
                pivots.append(v)
        return pivots
    add_t, mul_t, neg_t, inv_t = f.add_table, f.mul_table, f.neg_table, f.inv_table
    while mask:
        low = mask & -mask
        w = list(vecs[low.bit_length() - 1])
        mask ^= low
        for lead, nz in pivots:
            c = w[lead]
            if c:
                row = mul_t[c]
                for i, p in nz:
                    w[i] = add_t[w[i]][row[p]]
        for lead, c in enumerate(w):
            if c:
                break
        else:
            continue
        row = mul_t[inv_t[c]]
        pivots.append((lead, [(i, neg_t[row[wi]]) for i, wi in enumerate(w) if wi]))
        if len(pivots) == len(w):
            break
    return pivots


def spanned(f: FiniteField, pivots: list, vecs, mask: int) -> int:
    """The elements e of mask whose vecs[e] lies in the span of pivots."""
    out = 0
    binary = f.q == 2
    for low, w in _residuals(f, pivots, vecs, mask):
        if not (w if binary else any(w)):
            out |= low
    return out


def classes(f: FiniteField, pivots: list, vecs, mask: int) -> list[int]:
    """The elements of mask in the span of pivots, then the others grouped
    by the span of pivots plus their vector.

    An element is in the span exactly when its residual (`_residuals`)
    is zero; two others share a group exactly when their residuals span
    one point, whose `point_index` keys the group (over GF(2), the
    residual itself), so scaling to a leading 1 is written once, there.
    The zero residual's key, 0 over GF(2) and -1 over GF(q), is seeded
    first, so the spanned mask comes first, maybe 0, and the groups
    follow in the order of their least elements.
    """
    binary = f.q == 2
    groups: dict = {0 if binary else -1: 0}
    for low, w in _residuals(f, pivots, vecs, mask):
        key = w if binary else point_index(f, w)
        groups[key] = groups.get(key, 0) | low
    return list(groups.values())


def rank_of_vectors(f: FiniteField, vectors: Iterable[Sequence[int]]) -> int:
    """Rank of a family of coordinate vectors."""
    vecs = [vector(f, v) for v in vectors]
    return len(echelon(f, vecs, (1 << len(vecs)) - 1))


def point_index(f: FiniteField, w) -> int:
    """The index of the point of PG(r-1, q) through the vector w; -1 when
    w is zero, as it spans no point.

    Points are numbered in lex order of their vectors scaled to leading
    coordinate 1.  The index is the tail after that 1 read as a numeral
    in bijective base q, digit c counting as c + 1.
    """
    for i, a in enumerate(w):
        if a:
            break
    else:
        return -1
    row, q, x = f.mul_table[f.inv_table[a]], f.q, 0
    for c in w[i + 1:]:
        x = x * q + row[c] + 1
    return x


def point_vector(p: int, q: int, r: int) -> tuple[int, ...]:
    """The vector of length r, leading coordinate 1, of the point with index p."""
    tail = []
    while p:
        p -= 1
        tail.append(p % q)
        p //= q
    return (0,) * (r - 1 - len(tail)) + (1,) + tuple(reversed(tail))


def normalized_vectors(f: FiniteField, r: int) -> list[tuple[int, ...]]:
    """All vectors of GF(q)^r with leading nonzero coordinate 1, lex order.

    One representative per 1-dimensional subspace: the points of the
    rank-r projective geometry over GF(q), in `point_index` order.
    """
    return [point_vector(p, f.q, r) for p in range((f.q ** r - 1) // (f.q - 1))]


def matrix_rank(m: Matrix, column_subset: Iterable[int] | None = None) -> int:
    """Rank of the selected columns of m (all columns when None)."""
    if column_subset is None:
        sel = m._columns
    else:
        idx = sorted(column_subset)
        if idx and (idx[0] < 0 or idx[-1] >= m.cols):
            raise IndexError("column index out of range")
        sel = [m._columns[j] for j in idx]
    return rank_of_vectors(m.field, sel)
