"""The GF(q) echelon kernel against a reference that does no elimination.

The reference grows the span of a family as an explicit set of vectors,
one generator at a time: a generator already in the set adds nothing,
any other one raises the rank by 1 and multiplies the set by q.  Linear
matroids built on the kernel must agree with a matroid whose rank oracle
is that reference and whose closure and flats come from the generic
`Matroid` scans, on a seeded corpus with loops and parallel columns.
"""

import random

import pytest

from mdl import catalog, gf
from mdl.bits import bits
from mdl.core import LinearMatroid, Matroid

QS = [2, 3, 4, 5, 7, 8, 9]


def span_rank(f, rows, vectors):
    span = {(0,) * rows}
    rank = 0
    for v in vectors:
        v = tuple(v)
        if v in span:
            continue
        multiples = [tuple(f.mul_table[c][x] for x in v) for c in range(f.q)]
        span = {tuple(f.add_table[a][b] for a, b in zip(s, w))
                for s in span for w in multiples}
        rank += 1
    return rank


class SpanMatroid(Matroid):
    """Column matroid ranked by span_rank; closure and flats_of_rank are
    the base class scans over that rank."""

    kind = "span_reference"

    def __init__(self, f, rows, columns):
        super().__init__(len(columns), (1 << len(columns)) - 1)
        self.f, self.rows, self.columns = f, rows, columns

    def _rank_impl(self, x):
        return span_rank(self.f, self.rows, [self.columns[e] for e in bits(x)])


def with_loop_and_parallel(m, rng):
    """m's columns plus a zero column and a nonzero multiple of one column,
    each inserted at a random position."""
    f, rows = m.field, m.matrix.rows
    cols = list(m.matrix.columns())
    c = rng.randrange(1, f.q)
    twin = tuple(f.mul_table[c][x] for x in rng.choice(cols))
    cols.insert(rng.randint(0, len(cols)), twin)
    cols.insert(rng.randint(0, len(cols)), (0,) * rows)
    return LinearMatroid(gf.Matrix.from_columns(f, cols, rows))


def corpus(q):
    rng = random.Random(1306 + q)
    rmax = 4 if q <= 5 else 3
    out = []
    for _ in range(3):
        r = rng.randint(2, rmax)
        n = rng.randint(r + 1, 8)
        out.append(catalog.gen("linear_random", (r, n, q), seed=rng.randrange(2 ** 32)))
    out.append(catalog.gen("pg", (3 if q <= 4 else 2, q)))
    if q == 2:
        out.append(catalog.gen("pg", (4, 2)))
    return [with_loop_and_parallel(m, rng) for m in out]


@pytest.mark.parametrize("q", QS)
def test_kernel_matches_span_reference(q):
    rng = random.Random(q)
    for lin in corpus(q):
        f, rows = lin.field, lin.matrix.rows
        cols = lin.matrix.columns()
        vecs = [gf.vector(f, c) for c in cols]
        ref = SpanMatroid(f, rows, cols)
        subsets = [lin.ground, 0] + [rng.getrandbits(lin.n) for _ in range(40)]
        for x in subsets:
            r = ref.rank(x)
            pivots = gf.echelon(f, vecs, x)
            assert len(pivots) == r
            assert lin.rank(x) == r
            assert gf.rank_of_vectors(f, [cols[e] for e in bits(x)]) == r
            cl = ref.closure(x)
            assert lin.closure(x) == cl
            assert gf.spanned(f, pivots, vecs, lin.ground) == cl
        for k in range(lin.rank() + 2):
            assert lin.flats_of_rank(k) == ref.flats_of_rank(k), (q, k)


def test_vector_encoding():
    assert gf.vector(gf.field(2), (1, 0, 1, 1)) == 0b1101
    assert gf.vector(gf.field(3), [2, 0, 1]) == (2, 0, 1)
    # plain GF(2) tuples still rank through the public wrapper
    assert gf.rank_of_vectors(gf.field(2), [(1, 0, 1), (0, 1, 1), (1, 1, 0)]) == 2
