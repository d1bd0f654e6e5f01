"""Field table axioms (exhaustive), matrix rank behavior, and the PG point
codec against the recursive enumerator it replaced."""

import itertools

import pytest

from mdl import gf
from mdl.bits import mask_of, submasks

SUPPORTED = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32]


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    f = gf.field(q)
    els = range(q)
    for x in els:
        assert f.add(x, 0) == x
        assert f.mul(x, 1) == x
        assert f.mul(x, 0) == 0
        assert f.add(x, f.neg(x)) == 0
        if x:
            assert f.mul(x, f.inv(x)) == 1
    for x in els:
        for y in els:
            assert f.add(x, y) == f.add(y, x)
            assert f.mul(x, y) == f.mul(y, x)
            assert f.add(x, y) < q and f.mul(x, y) < q
    for x in els:
        for y in els:
            for z in els:
                assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
                assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
                assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


@pytest.mark.parametrize("q", SUPPORTED)
def test_multiplicative_group_cyclic(q):
    f = gf.field(q)
    # some element generates all q-1 nonzero elements
    for g in range(1, q):
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = f.mul(x, g)
            seen.add(x)
        if len(seen) == q - 1:
            return
    pytest.fail("no generator found")


def test_characteristic_two():
    f = gf.field(2)
    assert f.add(1, 1) == 0


def test_gf4_modulus_product():
    # x * (x+1) = x^2 + x = 1 modulo x^2 + x + 1
    f = gf.field(4)
    assert f.irreducible_poly == (1, 1, 1)
    assert f.mul(2, 3) == 1


def test_known_inverses_and_products():
    assert gf.field(7).inv(3) == 5
    assert gf.field(5).mul(2, 3) == 1
    with pytest.raises(ZeroDivisionError):
        gf.field(3).inv(0)


@pytest.mark.parametrize("q", [6, 1, 0, 12, 33, 100])
def test_non_prime_powers_rejected(q):
    with pytest.raises(ValueError):
        gf.FiniteField(q)


def test_fixed_irreducible_polynomials():
    expected = {
        4: (1, 1, 1),
        8: (1, 1, 0, 1),
        9: (1, 0, 1),
        16: (1, 1, 0, 0, 1),
        25: (2, 1, 1),
        27: (1, 2, 0, 1),
        32: (1, 0, 1, 0, 0, 1),
    }
    for q, poly in expected.items():
        assert gf.field(q).irreducible_poly == poly
    assert gf.field(5).irreducible_poly is None


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_prime_field_tables_are_integers_mod_q(q):
    # the polynomials mod x are the constants, added and multiplied mod q
    f = gf.FiniteField(q)
    assert (f.p, f.k, f.irreducible_poly) == (q, 1, None)
    assert f.add_table == tuple(tuple((x + y) % q for y in range(q)) for x in range(q))
    assert f.mul_table == tuple(tuple((x * y) % q for y in range(q)) for x in range(q))


def test_prime_subfield_embedding():
    # constants of GF(p^k) add and multiply like GF(p)
    for q, p in [(4, 2), (9, 3), (25, 5)]:
        big, small = gf.field(q), gf.field(p)
        for x in range(p):
            for y in range(p):
                assert big.add(x, y) == small.add(x, y)
                assert big.mul(x, y) == small.mul(x, y)


def test_matrix_rank_identity_and_zero():
    f = gf.field(2)
    ident = gf.Matrix(f, 3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert gf.matrix_rank(ident) == 3
    zero = gf.Matrix(f, 2, 3, [[0, 0, 0], [0, 0, 0]])
    assert gf.matrix_rank(zero) == 0


def test_matrix_rank_dependent_columns():
    f = gf.field(2)
    m = gf.Matrix.from_columns(f, [(1, 0, 1), (1, 1, 0), (0, 1, 1)], 3)
    assert gf.matrix_rank(m) == 2


def test_matrix_rank_column_subsets():
    f = gf.field(3)
    m = gf.Matrix.from_columns(f, [(1, 0), (0, 1), (1, 1), (2, 2)], 2)
    assert gf.matrix_rank(m, [0]) == 1
    assert gf.matrix_rank(m, [2, 3]) == 1
    assert gf.matrix_rank(m, [0, 1, 2, 3]) == 2
    with pytest.raises(IndexError):
        gf.matrix_rank(m, [4])


def test_matrix_rank_monotone_submodular():
    f = gf.field(2)
    cols = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)]
    m = gf.Matrix.from_columns(f, cols, 3)
    full = (1 << 6) - 1

    def r(mask):
        return gf.matrix_rank(m, [i for i in range(6) if mask >> i & 1])

    ranks = {mask: r(mask) for mask in submasks(full)}
    for x in submasks(full):
        for y in submasks(full):
            if x & y == x:
                assert ranks[x] <= ranks[y]
            assert ranks[x] + ranks[y] >= ranks[x | y] + ranks[x & y]


def test_matrix_entry_validation():
    f = gf.field(3)
    with pytest.raises(ValueError):
        gf.Matrix(f, 1, 2, [[1, 3]])
    with pytest.raises(ValueError):
        gf.Matrix(f, 2, 2, [[1, 1]])


def reference_normalized_vectors(f, r):
    """The recursive enumerator `gf.normalized_vectors` once was."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], leading_seen: bool):
        if len(prefix) == r:
            if leading_seen:
                out.append(prefix)
            return
        if not leading_seen:
            rec(prefix + (0,), False)
            rec(prefix + (1,), True)
        else:
            for c in range(f.q):
                rec(prefix + (c,), True)

    rec((), False)
    return out


@pytest.mark.parametrize("q, top", [(2, 4), (3, 4), (4, 4), (5, 4), (7, 4), (8, 4), (9, 4),
                                    (16, 3), (25, 3), (27, 3), (32, 3)])
def test_point_codec_order_matches_recursive_enumerator(q, top):
    """normalized_vectors, built from point_vector, lists the points in
    the recursive enumerator's lex order, and point_index inverts it."""
    f = gf.field(q)
    for r in range(top + 1):
        pts = gf.normalized_vectors(f, r)
        assert pts == reference_normalized_vectors(f, r)
        assert [gf.point_index(f, v) for v in pts] == list(range(len(pts)))


def test_normalized_vectors_are_projective_points():
    for q, r in [(2, 3), (3, 2), (4, 2), (5, 3)]:
        pts = gf.normalized_vectors(gf.field(q), r)
        assert len(pts) == (q ** r - 1) // (q - 1)
        assert len(set(pts)) == len(pts)
        assert pts == sorted(pts)
        for v in pts:
            lead = next(c for c in v if c)
            assert lead == 1
