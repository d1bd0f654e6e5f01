"""Correctness checks for the benchmark's jobs, made apart from mdl.

Nothing here imports mdl.  The checker holds its own GF(q) arithmetic
and Gaussian elimination, reads the columns back from the generated
.mtd files with its own parser, and recomputes every rank it needs.
No check compares against a stored copy of an earlier output: each one
tests a property that a right answer must have.

Element encoding follows the .mtd format: an element of GF(p^k) is the
integer whose base-p digits are its polynomial coefficients, constant
term first, reduced by the fixed monic modulus below.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

# (p, modulus with ascending coefficients) per supported order
_FIELDS = {2: (2, None), 3: (3, None), 5: (5, None), 7: (7, None),
           4: (2, (1, 1, 1)), 8: (2, (1, 1, 0, 1)), 9: (3, (1, 0, 1))}


class Field:
    """GF(q) as dense tables, for the orders the benchmark generates."""

    def __init__(self, q: int):
        if q not in _FIELDS:
            raise ValueError(f"checker has no GF({q})")
        p, mod = _FIELDS[q]
        k = 1 if mod is None else len(mod) - 1
        self.q = q
        digits = [[(x // p ** i) % p for i in range(k)] for x in range(q)]

        def enc(cs):
            return sum(c * p ** i for i, c in enumerate(cs))

        def pmul(u, v):
            prod = [0] * (2 * k - 1)
            for i, a in enumerate(u):
                for j, b in enumerate(v):
                    prod[i + j] = (prod[i + j] + a * b) % p
            for d in range(len(prod) - 1, k - 1, -1):
                c = prod[d]
                if c:
                    for j in range(k + 1):
                        prod[d - k + j] = (prod[d - k + j] - c * mod[j]) % p
            return prod[:k]

        self.add = [[enc([(a + b) % p for a, b in zip(digits[x], digits[y])])
                     for y in range(q)] for x in range(q)]
        self.mul = [[enc(pmul(digits[x], digits[y])) for y in range(q)] for x in range(q)]
        self.neg = [self.add[x].index(0) for x in range(q)]
        self.inv = [None] + [self.mul[x].index(1) for x in range(1, q)]

    def normalized(self, v):
        """v scaled so its first nonzero entry is 1; None for the zero vector."""
        for c in v:
            if c:
                row = self.mul[self.inv[c]]
                return tuple(row[x] for x in v)
        return None


class Span:
    """Echelon basis of a growing family of vectors over one field."""

    def __init__(self, f: Field, vectors=()):
        self.f = f
        self.rows: list[tuple[int, list[int]]] = []
        for v in vectors:
            self.add(v)

    def reduce(self, v) -> list[int]:
        f = self.f
        w = list(v)
        for lead, row in self.rows:
            c = w[lead]
            if c:
                m = f.mul[f.neg[c]]
                w = [f.add[wi][m[ri]] for wi, ri in zip(w, row)]
        return w

    def copy(self) -> "Span":
        out = Span(self.f)
        out.rows = list(self.rows)
        return out

    def add(self, v) -> bool:
        """Add v; return False when it was already in the span."""
        w = self.reduce(v)
        for lead, c in enumerate(w):
            if c:
                self.rows.append((lead, list(self.f.normalized(w))))
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class LinearInput:
    """A single-block linear .mtd file as the checker reads it."""

    path: str
    field: Field
    cols: tuple[tuple[int, ...], ...]
    pg_rank: int | None = None  # n when the file holds PG(n-1, q)

    @property
    def q(self) -> int:
        return self.field.q

    def rank(self, elements) -> int:
        return Span(self.field, (self.cols[e] for e in elements)).rank

    def points(self) -> int:
        """Number of parallel classes of nonloops."""
        return len({self.field.normalized(c) for c in self.cols} - {None})

    def is_flat(self, elements) -> bool:
        inside = set(elements)
        span = Span(self.field, (self.cols[e] for e in inside))
        return all(any(span.reduce(c)) for e, c in enumerate(self.cols) if e not in inside)


def read_linear(path: str, pg_rank: int | None = None) -> LinearInput:
    q = rows = None
    cols = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split("#", 1)[0].split()
            if not tokens:
                continue
            if tokens[0] == "field":
                q = int(tokens[1])
            elif tokens[0] == "rank":
                rows = int(tokens[1])
            elif tokens[0] == "col":
                cols.append(tuple(int(t) for t in tokens[1:]))
            elif tokens[0] == "kind" and tokens[1] != "linear":
                raise ValueError(f"{path}: checker reads linear blocks only")
    if q is None or rows is None or any(len(c) != rows for c in cols):
        raise ValueError(f"{path}: malformed linear block")
    return LinearInput(path, Field(q), tuple(cols), pg_rank)


def theta(q: int, k: int) -> int:
    """Points of a rank-k flat of PG(n-1, q): the most a GF(q) rank-k flat holds."""
    return (q ** k - 1) // (q - 1)


# -- per-command checks: each returns None when the output is right,
# -- otherwise the reason it is wrong


def _covers_ground(inp: LinearInput, members) -> bool:
    union = set()
    for s in members:
        union.update(s)
    return union == set(range(len(inp.cols)))


def tau(inp: LinearInput, a: int, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    data = json.loads(out)
    value, cover = int(data["tau"]), data["cover"]
    if len(cover) != value:
        return f"certificate has {len(cover)} members, value {value}"
    for s in cover:
        if inp.rank(s) > a:
            return f"member {s} has rank above {a}"
        if not inp.is_flat(s):
            return f"member {s} is not a flat"
    if not _covers_ground(inp, cover):
        return "members miss part of the ground set"
    bound = -(-inp.points() // theta(inp.q, a))
    if value < bound:
        return f"value {value} below the counting bound {bound}"
    n = inp.pg_rank
    if n is not None and n % a == 0 and value != (inp.q ** n - 1) // (inp.q ** a - 1):
        return f"value {value} differs from the spread count"
    return None


def tauw(inp: LinearInput, d: int, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    data = json.loads(out)
    value, cover = int(data["tau_weighted"]), data["cover"]
    ranks = [inp.rank(s) for s in cover]
    if sum(d ** r for r in ranks) != value:
        return f"members weigh {sum(d ** r for r in ranks)}, value {value}"
    if not all(inp.is_flat(s) for s in cover):
        return "a member is not a flat"
    if not _covers_ground(inp, cover):
        return "members miss part of the ground set"
    top = inp.rank(range(len(inp.cols)))
    per_point = min(Fraction(d ** k, theta(inp.q, k)) for k in range(1, top + 1))
    bound = math.ceil(inp.points() * per_point)
    if value < bound:
        return f"value {value} below the counting bound {bound}"
    return None


def thm4(inp: LinearInput, a: int, b: int, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    data = json.loads(out)
    sets = data["sets"]
    bound = math.comb(b - 1, a) ** max(inp.rank(range(len(inp.cols))) - a, 0)
    if len(sets) != data["cover_size"] or len(sets) > bound:
        return f"{len(sets)} sets against bound {bound}"
    if any(inp.rank(s) > a for s in sets):
        return f"a set has rank above {a}"
    if not _covers_ground(inp, sets):
        return "sets miss part of the ground set"
    if not (data["covers_ground"] and data["within_bound"]):
        return "verdict fields disagree with the sets"
    return None


def pg(inp: LinearInput, n: int, rc: int, out: str) -> str | None:
    data = json.loads(out)
    want = theta(inp.q, n)
    if rc != 0 or data["is_pg"] is not True:
        return f"PG({n - 1},{inp.q}) not recognised (exit {rc})"
    if data["points"] != want or inp.points() != want or data["rank"] != n:
        return f"reported {data['points']} points, rank {data['rank']}; want {want}, {n}"
    return None


def _normalized_vectors(f: Field, length: int):
    """One nonzero vector per 1-dimensional subspace of GF(q)^length."""
    if length == 0:
        return
    for tail in _normalized_vectors(f, length - 1):
        yield (0,) + tail
    for tail in _all_vectors(f, length - 1):
        yield (1,) + tail


def _all_vectors(f: Field, length: int):
    if length == 0:
        yield ()
        return
    for head in range(f.q):
        for tail in _all_vectors(f, length - 1):
            yield (head,) + tail


def _hyperplanes(f: Field, cols) -> set[frozenset[int]]:
    """Hyperplanes of the column matroid: the zero sets of linear
    functionals that have rank one less than the whole."""
    top = Span(f, cols).rank
    out = set()
    for phi in _normalized_vectors(f, len(cols[0])):
        zero = [e for e, c in enumerate(cols) if not _dot(f, phi, c)]
        if Span(f, (cols[e] for e in zero)).rank == top - 1:
            out.add(frozenset(zero))
    return out


def _dot(f: Field, u, v) -> int:
    acc = 0
    for a, b in zip(u, v):
        acc = f.add[acc][f.mul[a][b]]
    return acc


def _same_matroid(f: Field, cols_a, cols_b) -> bool:
    """Equal column matroids: same rank and same hyperplanes, which
    determine a matroid on a given ground set."""
    return (len(cols_a) == len(cols_b)
            and Span(f, cols_a).rank == Span(f, cols_b).rank
            and _hyperplanes(f, cols_a) == _hyperplanes(f, cols_b))


def rep(inp: LinearInput, rc: int, out: str) -> str | None:
    if rc != 0 or "representable=True" not in out:
        return f"not found representable (exit {rc})"
    lines = out.splitlines()
    rows = [ln.split() for ln in lines[lines.index("matrix") + 1:]]
    try:
        matrix = [[int(v) for v in row] for row in rows]
    except ValueError:
        return "matrix block is not numeric"
    if any(not 0 <= v < inp.q for row in matrix for v in row):
        return f"matrix has an entry outside GF({inp.q})"
    cols = [tuple(col) for col in zip(*matrix)]
    if not _same_matroid(inp.field, inp.cols, cols):
        return "column matroid of the printed matrix differs from the input"
    return None


def stack_found(inp: LinearInput, q: int, h: int, t: int, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit {rc}"
    data = json.loads(out)
    parts = data["parts"]
    if not data["found"] or data["q"] != q or data["t"] != t or len(parts) != h:
        return "certificate header disagrees with the request"
    seen: set[int] = set()
    for i, part in enumerate(parts, 1):
        if seen & set(part):
            return f"layer {i} meets an earlier layer"
        below = Span(inp.field, (inp.cols[e] for e in seen))
        layer = below.copy()
        for e in part:
            layer.add(inp.cols[e])
        rk = layer.rank - below.rank
        if not 2 <= rk <= t:
            return f"layer {i} has rank {rk} in the contraction"
        if rk != 2:
            return f"layer {i} has rank {rk}; the checker certifies rank-2 layers only"
        pts = {inp.field.normalized(below.reduce(inp.cols[e])) for e in part} - {None}
        if len(pts) <= q + 1:
            return f"layer {i} has {len(pts)} <= q+1 points, so it is GF({q})-representable"
        seen.update(part)
    return None


def stack_none(inp: LinearInput, q: int, rc: int, out: str) -> str | None:
    if inp.q != q:
        return f"input over GF({inp.q}) is not GF({q})-representable by construction"
    if rc != 1 or json.loads(out) != {"found": False}:
        return f"a stack was reported on a GF({q})-representable input (exit {rc})"
    return None


def weakly_round_pg(inp: LinearInput, rc: int, out: str) -> str | None:
    n = inp.pg_rank
    if n is None or inp.points() != theta(inp.q, n) or inp.rank(range(len(inp.cols))) != n:
        return "input is not a projective geometry"
    if rc != 0 or json.loads(out) != {"weakly_round": True}:
        return f"projective geometry reported not weakly round (exit {rc})"
    return None


def verify(trials: int, rc: int, out: str) -> str | None:
    data = json.loads(out)
    rows = data["trials"]
    if data["total"] != trials or len(rows) != trials:
        return f"ran {len(rows)} trials of {trials} requested"
    if [r["trial"] for r in rows] != list(range(trials)):
        return "trial indices are not 0..trials-1"
    failed = [r["trial"] for r in rows if r["pass"] is not True]
    if failed or data["passed"] != trials or rc != 0:
        return f"trials {failed[:5]} failed (exit {rc})"
    return None


def self_test() -> None:
    """Spot checks of the checker's field and elimination against hand values."""
    f4, f9, f3 = Field(4), Field(9), Field(3)
    facts = [
        # GF(4) = GF(2)[x]/(x^2+x+1), x encoded as 2: x*x = x+1 (3), x*(x+1) = 1
        f4.mul[2][2] == 3 and f4.mul[2][3] == 1,
        # GF(9) = GF(3)[x]/(x^2+1), x encoded as 3: x*x = -1 = 2
        f9.mul[3][3] == 2,
        all(f.mul[x][f.inv[x]] == 1 for f in map(Field, _FIELDS) for x in range(1, f.q)),
        Span(f3, [(1, 0, 1), (0, 1, 1), (1, 1, 2)]).rank == 2,
        Span(f3, [(1, 0, 1), (0, 1, 1), (1, 1, 0)]).rank == 3,
        not _same_matroid(f3, [(1, 0), (0, 1), (1, 1)], [(1, 0), (0, 1), (1, 0)]),
        _same_matroid(f3, [(1, 0), (0, 1), (1, 1)], [(1, 0), (0, 2), (2, 1)]),
    ]
    if not all(facts):
        raise RuntimeError(f"checker self-test failed: {facts}")
