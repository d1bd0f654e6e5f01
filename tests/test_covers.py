"""Covering numbers against brute-force oracles and golden values."""

import math
import random
from fractions import Fraction

import pytest

from mdl import catalog, covers, gf, harness
from mdl.bits import bits, ksubsets, mask_of, submasks
from mdl.cli import main
from mdl.core import LinearMatroid, Matroid, UniformMatroid, direct_sum
from mdl.errors import CapExceeded, UniformMinorDetected

INF = covers.INF


def random_linear(seed, q=2, r=3, n=7):
    return catalog.gen("linear_random", (r, n, q), seed=seed)


# -- independent oracles -------------------------------------------------


def brute_tau(m, a):
    """Exact minimum cover by arbitrary rank-<=a subsets.

    Independent of the production path: no flats, no candidate pruning,
    plain DFS over the full subset pool.
    """
    if m.ground == 0:
        return 0
    pool = [x for x in submasks(m.ground) if x and m.rank(x) <= a]
    if not pool:
        return INF

    best = [INF]

    def dfs(uncovered, used):
        if used >= best[0]:
            return
        if uncovered == 0:
            best[0] = used
            return
        e = next(bits(uncovered))
        for s in pool:
            if (s >> e) & 1:
                dfs(uncovered & ~s, used + 1)

    dfs(m.ground, 0)
    return best[0]


def brute_tau_weighted(m, d):
    """Exact minimum d-weight over covers by arbitrary subsets."""
    if m.ground == 0:
        return 0
    pool = [(x, d ** m.rank(x)) for x in submasks(m.ground) if x]
    best = [INF]

    def dfs(uncovered, weight):
        if weight >= best[0]:
            return
        if uncovered == 0:
            best[0] = weight
            return
        e = next(bits(uncovered))
        for s, w in pool:
            if (s >> e) & 1:
                dfs(uncovered & ~s, weight + w)

    dfs(m.ground, 0)
    return best[0]


SMALL_CORPUS = [
    UniformMatroid(2, 4),
    UniformMatroid(1, 3),
    UniformMatroid(3, 6),
    catalog.gen("pg", (3, 2)),
    direct_sum([UniformMatroid(2, 3), UniformMatroid(1, 2)]),
    random_linear(4, q=2, r=3, n=7),
    random_linear(9, q=3, r=2, n=6),
    random_linear(12, q=2, r=4, n=8),
]


@pytest.mark.parametrize("mi", range(len(SMALL_CORPUS)))
@pytest.mark.parametrize("a", [0, 1, 2, 3])
def test_tau_matches_brute_force(mi, a):
    m = SMALL_CORPUS[mi]
    assert covers.tau(m, a).value == brute_tau(m, a)


@pytest.mark.parametrize("mi", range(len(SMALL_CORPUS)))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_tau_weighted_matches_brute_force(mi, d):
    m = SMALL_CORPUS[mi]
    assert covers.tau_weighted(m, d).value == brute_tau_weighted(m, d)


def test_covers_read_the_points_without_simplifying(monkeypatch):
    """tau and tau_weighted take their universe from
    `Matroid.representatives`, and build no simplification."""
    calls = []
    simplify = Matroid.simplify

    def counted(self):
        calls.append(self)
        return simplify(self)

    monkeypatch.setattr(Matroid, "simplify", counted)
    for m in SMALL_CORPUS + [catalog.gen("pg", (4, 2)).contract(0b1)]:
        for a in range(m.rank() + 1):
            covers.tau(m, a)
        for d in (1, 2):
            covers.tau_weighted(m, d)
    assert calls == []


# -- golden values ---------------------------------------------------------


# (r, q, a, tau_a(PG(r-1, q))): every value is ceil(theta_r / theta_a), where
# theta_k = (q^k - 1) / (q - 1) counts the points of PG(k-1, q).  Left out:
# PG(4,3) and PG(6,2) at a = 2 (their searches are slow), and PG(6,2) at
# a >= 3 (over CANDIDATE_CAP, or seconds each).
PG_TAU = [(3, 2, 1, 7), (3, 2, 2, 3), (3, 3, 1, 13), (3, 3, 2, 4), (3, 4, 1, 21), (3, 4, 2, 5),
          (3, 5, 1, 31), (3, 5, 2, 6), (3, 7, 1, 57), (3, 7, 2, 8), (3, 8, 1, 73), (3, 8, 2, 9),
          (3, 9, 1, 91), (3, 9, 2, 10),
          (4, 2, 1, 15), (4, 2, 2, 5), (4, 2, 3, 3), (4, 3, 1, 40), (4, 3, 2, 10), (4, 3, 3, 4),
          (4, 4, 1, 85), (4, 4, 2, 17), (4, 4, 3, 5),
          (5, 2, 1, 31), (5, 2, 2, 11), (5, 2, 3, 5), (5, 2, 4, 3),
          (5, 3, 1, 121), (5, 3, 3, 10), (5, 3, 4, 4),
          (6, 2, 1, 63), (6, 2, 2, 21), (6, 2, 3, 9), (6, 2, 4, 5), (6, 2, 5, 3),
          (7, 2, 1, 127)]


def test_golden_covering_numbers():
    for r, q, a, value in PG_TAU:
        assert value == -(-(q ** r - 1) // (q ** a - 1)), (r, q, a)  # the table itself
        assert covers.tau(catalog.gen("pg", (r, q)), a).value == value, (r, q, a)
    u24 = UniformMatroid(2, 4)
    assert covers.tau(u24, 1).value == 4
    assert covers.tau_weighted(u24, 2).value == 4
    assert covers.tau_weighted(u24, 5).value == 20


def test_tau_certificate_valid():
    m = catalog.gen("pg", (4, 2))
    res = covers.tau(m, 2)
    union = 0
    for s in res.cover.sets:
        assert m.rank(s) <= 2
        union |= s
    assert union == m.ground
    assert len(res.cover.sets) == res.value


def test_tau_trivial_cases():
    m = UniformMatroid(2, 4)
    assert covers.tau(m, 2).value == 1
    assert covers.tau(m, 5).value == 1
    assert covers.tau(m, 0).value == INF
    # the library keeps the sentinel for a < 0 (is_d_thick asks for it);
    # only the CLI refuses a negative --a
    assert covers.tau(m, -1).value == INF
    empty = UniformMatroid(0, 0)
    assert covers.tau(empty, 1).value == 0
    loops = LinearMatroid(gf.Matrix.from_columns(gf.field(2), [(0,), (0,)], 1))
    assert covers.tau(loops, 0).value == 1


def test_tau_weighted_upper_bound():
    for m in SMALL_CORPUS:
        if m.ground:
            for d in (2, 3):
                assert covers.tau_weighted(m, d).value <= d ** m.rank()


def test_deterministic_certificates():
    m = catalog.gen("pg", (4, 2))
    a = covers.tau(m, 2)
    b = covers.tau(m, 2)
    assert a.cover.sets == b.cover.sets


# -- thickness --------------------------------------------------------------


def test_rank_one_always_thick():
    m = UniformMatroid(2, 4)
    for d in (2, 10, 100):
        assert covers.is_d_thick(m, 0b0001, d)


def test_u24_thickness_threshold():
    m = UniformMatroid(2, 4)
    assert covers.is_d_thick(m, m.ground, 4)
    assert not covers.is_d_thick(m, m.ground, 5)


def test_thick_rank2_has_uniform_restriction():
    # a 5-thick rank-2 set carries U_{2,5}: five distinct points
    m = UniformMatroid(2, 5)
    assert covers.is_d_thick(m, m.ground, 5)
    assert m.epsilon() >= 5


# -- constructive cover ------------------------------------------------------


def test_kdensity_u24_base_case():
    m = UniformMatroid(2, 4)
    cov = covers.kdensity_cover(m, 1, 5)
    assert cov.sets == (0b0001, 0b0010, 0b0100, 0b1000)


def test_kdensity_fano():
    m = catalog.gen("pg", (3, 2))
    cov = covers.kdensity_cover(m, 1, 4)
    union = 0
    for s in cov.sets:
        assert m.rank(s) <= 1
        union |= s
    assert union == m.ground
    assert covers.tau(m, 1).value <= len(cov.sets) <= 3 ** 2


def test_kdensity_low_rank_trivial():
    m = UniformMatroid(2, 4)
    assert covers.kdensity_cover(m, 2, 5).sets == (m.ground,)
    assert covers.kdensity_cover(m, 3, 5).sets == (m.ground,)


def test_kdensity_detects_forbidden_restriction():
    with pytest.raises(UniformMinorDetected) as exc:
        covers.kdensity_cover(UniformMatroid(2, 5), 1, 4)
    assert exc.value.witness.bit_count() == 4


def test_kdensity_bound_over_seeds():
    for seed in range(10):
        q = 2 if seed % 2 else 3
        m = random_linear(seed, q=q, r=4, n=9)
        cov = covers.kdensity_cover(m, 1, q + 2)
        bound = (q + 1) ** (m.rank() - 1)
        assert len(cov.sets) <= bound
        assert covers.tau(m, 1).value <= bound


def brute_has_uniform_minor(m, k, b):
    """Exhaustive U_{k,b}-minor detection for tiny matroids."""
    for c in submasks(m.ground):
        if m.rank(c) != c.bit_count():
            continue
        mc = m.contract(c)
        for x in ksubsets(mc.ground, b):
            if mc.rank(x) == k and all(
                    mc.rank(s) == k for s in ksubsets(x, k)):
                return True
    return False


def test_gf_linear_matroids_lack_forbidden_uniform_minor():
    # GF(q)-representable inputs cannot contain U_{2,q+2}: the premise
    # the theorem-4 suite relies on, checked exhaustively at small size
    for seed in range(4):
        q = 2 if seed % 2 else 3
        m = random_linear(seed, q=q, r=3, n=7)
        assert not brute_has_uniform_minor(m, 2, q + 2)
    assert brute_has_uniform_minor(UniformMatroid(2, 4), 2, 4)


# -- contraction inequalities --------------------------------------------------


def test_contraction_report_empty_c():
    m = catalog.gen("pg", (3, 2))
    rpt = covers.check_contraction_inequalities(m, 0, 1, 4, 2)
    assert rpt.ok
    assert rpt.tau_a_mc == rpt.tau_a_m == rpt.cover_bound
    assert rpt.tau_d_mc == rpt.tau_d_m == rpt.weighted_bound


def test_contraction_report_fano_point():
    m = catalog.gen("pg", (3, 2))
    rpt = covers.check_contraction_inequalities(m, 0b1, 1, 4, 2)
    assert rpt.tau_a_m == 7
    assert rpt.tau_a_mc == 3
    assert rpt.cover_bound == pytest.approx(7 / 3)
    assert rpt.ok


def test_contraction_report_u24():
    m = UniformMatroid(2, 4)
    rpt = covers.check_contraction_inequalities(m, 0b0001, 1, 5, 2)
    assert rpt.tau_d_m == 4
    assert rpt.tau_d_mc == 2
    assert rpt.weighted_ok


# -- thick uniform minors --------------------------------------------------------


def test_thick_uniform_minor_rank2():
    m = UniformMatroid(2, 6)
    c, x = covers.thick_uniform_minor(m, 1, 5, 6)
    assert c == 0
    assert x.bit_count() >= 5


def test_thick_uniform_minor_contracts():
    m = UniformMatroid(3, 12)
    c, x = covers.thick_uniform_minor(m, 1, 4, 4)
    minor = m.contract(c)
    assert minor.rank() == 2
    assert x.bit_count() >= 4
    assert minor.rank(x) == 2


def test_thick_uniform_minor_premises():
    with pytest.raises(Exception):
        covers.thick_uniform_minor(UniformMatroid(2, 4), 1, 5, 5)  # not 5-thick


def test_candidate_cap():
    m = UniformMatroid(3, 110)
    with pytest.raises(CapExceeded):
        covers.tau(m, 2)


# -- the branch and bound against the plain DFS it replaced ----------------------


def reference_min_cover(universe: int, cands: list[int], weights: list[int]):
    """The plain branch and bound, kept verbatim as the reference: it
    re-picks the branching element and re-sorts the options with a
    three-part key at every node, and enters every child."""
    if universe == 0:
        return 0, []
    by_elem: dict[int, list[int]] = {e: [] for e in bits(universe)}
    for ci, c in enumerate(cands):
        for e in bits(c & universe):
            by_elem[e].append(ci)
    if any(not lst for lst in by_elem.values()):
        return INF, None
    max_size = max(c.bit_count() for c in cands)
    min_weight = min(weights)

    # greedy incumbent
    uncovered = universe
    greedy: list[int] = []
    greedy_w = 0
    while uncovered:
        best = None
        for ci, c in enumerate(cands):
            fresh = (c & uncovered).bit_count()
            if fresh == 0:
                continue
            key = (-Fraction(fresh, weights[ci]), weights[ci], cands[ci])
            if best is None or key < best[0]:
                best = (key, ci)
        ci = best[1]
        greedy.append(ci)
        greedy_w += weights[ci]
        uncovered &= ~cands[ci]

    best_w = greedy_w
    best_sel = list(greedy)

    def dfs(uncovered: int, cur_w: int, chosen: list[int]):
        nonlocal best_w, best_sel
        if uncovered == 0:
            if cur_w < best_w:
                best_w = cur_w
                best_sel = list(chosen)
            return
        lb = -(-uncovered.bit_count() // max_size) * min_weight
        if cur_w + lb >= best_w:
            return
        e = min(bits(uncovered), key=lambda e: (len(by_elem[e]), e))
        options = sorted(
            by_elem[e],
            key=lambda ci: (-(cands[ci] & uncovered).bit_count(), weights[ci], cands[ci]))
        for ci in options:
            chosen.append(ci)
            dfs(uncovered & ~cands[ci], cur_w + weights[ci], chosen)
            chosen.pop()

    dfs(universe, 0, [])
    return best_w, best_sel


def random_cover_instance(rng, weighted):
    """Dense or sparse (one to four elements, like lines and planes)
    candidates; they may reach outside the universe and repeat."""
    n = rng.randint(1, 18)
    universe = (1 << n) - 1
    if rng.random() < 0.3:
        universe &= ~(1 << rng.randrange(n))
    if rng.random() < 0.5:
        cands = [rng.getrandbits(n + 1) for _ in range(rng.randint(1, 30))]
    else:
        cands = [mask_of(rng.sample(range(n + 2), rng.randint(1, min(4, n + 2))))
                 for _ in range(rng.randint(1, 36))]
    cands = [c | 1 << rng.randrange(n) for c in cands]
    if rng.random() < 0.3:
        cands += [rng.choice(cands) for _ in range(3)]
    if weighted:
        weights = [rng.choice((1, 2, 3, 4, 9, 27)) for _ in cands]
    else:
        weights = [1] * len(cands)
    return universe, cands, weights


class _Probe(int):
    """A bound value that counts the comparisons in which it cuts: any
    sum with it is a probe too, and every `>=` that holds is a cut."""

    def __new__(cls, value, cuts):
        probe = super().__new__(cls, value)
        probe.cuts = cuts
        return probe

    def __add__(self, other):
        return _Probe(int(self) + other, self.cuts)

    __radd__ = __add__

    def __ge__(self, other):
        cut = int(self) >= other
        self.cuts[0] += cut
        return cut


@pytest.mark.parametrize("weighted", [False, True])
def test_min_cover_matches_reference(weighted, monkeypatch):
    evaluations, cuts = [0], [0]
    bound = covers._fractional_bound

    def counted(*args):
        evaluations[0] += 1
        return _Probe(bound(*args), cuts)

    monkeypatch.setattr(covers, "_fractional_bound", counted)
    rng = random.Random(f"min_cover:{weighted}")
    for _ in range(1000):
        universe, cands, weights = random_cover_instance(rng, weighted)
        assert covers._min_cover(universe, cands, weights) == \
            reference_min_cover(universe, cands, weights), (universe, cands, weights)
    # the fractional bound is evaluated and cuts, so the comparison
    # covers the searches it shortens
    assert evaluations[0] > 0 and cuts[0] > 0


@pytest.mark.parametrize("weighted", [False, True])
def test_fractional_bound_between_count_and_optimum(weighted):
    """At the root and at random partial covers: the counting bound the
    search prunes with <= the fractional bound <= the optimum of what is
    left.  With weights the LP can fall below min weight * ceil(|U| / s)
    (two 3-sets of weight 2 on 4 elements: 8/3 against 4), so there the
    count it is held to is ceil(|U| * min weight / s)."""
    rng = random.Random(f"fractional_bound:{weighted}")
    assert covers._fractional_bound(0b1111, [0b0111, 0b1110], [2, 2], covers._bound_scale(3), []) == 3
    checked = 0
    for _ in range(1000):
        universe, cands, weights = random_cover_instance(rng, weighted)
        union = 0
        for c in cands:
            union |= c
        if universe & ~union:
            continue
        s = max((c & universe).bit_count() for c in cands)
        scale = covers._bound_scale(s)
        min_w = min(weights)
        partial = [universe]
        for _ in range(2):
            partial.append(universe)
            for c in cands:
                if rng.random() < 0.2:
                    partial[-1] &= ~c
        for left in filter(None, partial):
            if weighted:
                count = -(-left.bit_count() * min_w // s)
            else:
                count = -(-left.bit_count() // s)
            frac = covers._fractional_bound(left, cands, weights, scale, [])
            assert count <= frac <= reference_min_cover(left, cands, weights)[0]
            checked += 1
    assert checked > 1500


@pytest.mark.parametrize("weighted", [False, True])
def test_child_cut_below_the_childs_optimum(weighted):
    """Rule 6 of `_min_cover`: the packing `_fractional_bound` hands back
    for a partial cover `left`, summed over left - S, bounds every cover
    of left - S from below, for each candidate S meeting `left`; and it
    cuts, being above the counting bound rule 2 holds that child to."""
    rng = random.Random(f"child_cut:{weighted}")
    checked = stronger = 0
    for _ in range(300):
        universe, cands, weights = random_cover_instance(rng, weighted)
        union = 0
        for c in cands:
            union |= c
        if universe & ~union:
            continue
        s = max((c & universe).bit_count() for c in cands)
        scale = covers._bound_scale(s)
        left = universe
        for c in cands:
            if rng.random() < 0.15:
                left &= ~c
        if not left:
            continue
        levels = []
        frac = covers._fractional_bound(left, cands, weights, scale, levels)
        assert -(-sum(v * hit.bit_count() for v, hit in levels) // scale[1]) == frac
        covered = 0
        for _, hit in levels:
            assert not covered & hit
            covered |= hit
        assert covered == left
        for c in cands:
            if not c & left:
                continue
            rest = left & ~c
            cut = -(-sum(v * (hit & ~c).bit_count() for v, hit in levels) // scale[1])
            assert cut <= reference_min_cover(rest, cands, weights)[0]
            stronger += cut > -(-rest.bit_count() // s) * min(weights)
            checked += 1
    assert checked > 1500 and stronger > 300


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_tau_matches_reference_on_linear_corpus(q, monkeypatch):
    corpus = [catalog.gen("linear_random", (4, 9 + q % 4, q), seed=s) for s in range(3)]
    got = [(covers.tau(m, 2), covers.tau_weighted(m, 3)) for m in corpus]
    monkeypatch.setattr(covers, "_min_cover", reference_min_cover)
    want = [(covers.tau(m, 2), covers.tau_weighted(m, 3)) for m in corpus]
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert (a.value, a.cover.sets) == (b.value, b.cover.sets)


def test_tau_pg52_golden():
    # PG(4,2): the root bound ceil(31/3) = 11 is met only deep in the search
    res = covers.tau(catalog.gen("pg", (5, 2)), 2)
    assert res.value == 11
    assert list(res.cover.sets) == [
        7, 2184, 9232, 655392, 2162752, 9441280, 16810240, 100663297,
        134496256, 272630272, 1610612737]


def test_tau_pg52_within_a_tenth_of_the_plain_search(monkeypatch):
    # the plain search takes 204,291 nodes; the fractional bound at every
    # node and the child cut leave 503 nodes, whose 502 evaluations before
    # the last node are charged as 5,522 more: the search needs a cap of
    # exactly 6,025 and finds the certificate test_tau_pg52_golden pins
    m = catalog.gen("pg", (5, 2))
    want = covers.tau(m, 2)
    monkeypatch.setattr(covers, "COVER_NODE_CAP", 6_025)
    assert covers.tau(m, 2) == want
    monkeypatch.setattr(covers, "COVER_NODE_CAP", 6_024)
    with pytest.raises(CapExceeded):
        covers.tau(m, 2)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_tau_pg_plus_noise(seed):
    # PG(4,2) in GF(4) coordinates plus 8 noise points, 39 elements; seed 0
    # ran into the node cap before the fractional bound, and seed 2
    # (tau = 13) took seconds before the bound was checked at every node
    m = catalog.gen("pg_plus_noise", (5, 2, 4, 8), seed=seed)
    res = covers.tau(m, 2)
    assert res.value == len(res.cover.sets) == (13 if seed == 2 else 12)
    union = 0
    for f in res.cover.sets:
        assert m.rank(f) == 2
        assert all(m.rank(f | 1 << e) == 3 for e in bits(m.ground & ~f))
        union |= f
    assert m.nonloops() & ~union == 0


def test_cover_node_cap(tmp_path, monkeypatch, capsys):
    # its greedy cover misses the root bound, so the search expands nodes
    m = catalog.gen("linear_random", (5, 18, 2), seed=1)
    f = str(tmp_path / "m.mtd")
    catalog.write_matroid(m, f)
    assert covers.tau(m, 2).value == 6
    monkeypatch.setattr(covers, "COVER_NODE_CAP", 20)
    with pytest.raises(CapExceeded):
        covers.tau(m, 2)
    assert main(["tau", f, "--a", "2"]) == 2
    assert "node budget" in capsys.readouterr().err


def test_every_universe_element_has_a_candidate(monkeypatch):
    """tau and tau_weighted never hand `_min_cover` a representative
    point that no candidate covers, so they need no INF fallback: on
    matroids with loops, direct sums and contractions."""
    seen = []
    search = covers._min_cover

    def checked(universe, cands, weights):
        union = 0
        for c in cands:
            union |= c
        assert universe & ~union == 0
        seen.append(universe)
        return search(universe, cands, weights)

    monkeypatch.setattr(covers, "_min_cover", checked)
    rng = random.Random(2718)
    corpus = [direct_sum([UniformMatroid(2, 4), UniformMatroid(0, 2), catalog.gen("pg", (3, 2))]),
              direct_sum([UniformMatroid(1, 3), UniformMatroid(3, 4)])]
    for q in (2, 3, 4, 5, 7, 8, 9):
        m = random_linear(rng.randrange(2 ** 32), q, rng.randint(2, 4), rng.randint(5, 8))
        cols = list(m.matrix.columns()) + [(0,) * m.matrix.rows]
        corpus.append(LinearMatroid(gf.Matrix.from_columns(m.field, cols, m.matrix.rows)))
    corpus += [m.contract(1 << rng.choice(list(bits(m.nonloops())))) for m in list(corpus)]
    for m in corpus:
        for a in range(1, m.rank()):
            covers.tau(m, a)
        for d in (1, 2, 3):
            covers.tau_weighted(m, d)
    assert len(seen) > 2 * len(corpus)


def counting_kernels(monkeypatch):
    """Count `Matroid.closure` calls and `gf.echelon` eliminations."""
    counts = {"closures": 0, "eliminations": 0}
    closure, echelon = Matroid.closure, gf.echelon

    def counted_closure(self, x):
        counts["closures"] += 1
        return closure(self, x)

    def counted_echelon(*args):
        counts["eliminations"] += 1
        return echelon(*args)

    monkeypatch.setattr(Matroid, "closure", counted_closure)
    monkeypatch.setattr(gf, "echelon", counted_echelon)
    return counts


def test_kdensity_cover_kernel_counts(monkeypatch):
    """The base case reads the rank-a flats instead of closing every
    a-subset of X, and X is grown over the representatives only, with no
    rank query at a = 1 (the closure-per-subset base case made 74
    closures and 356 eliminations, and X grown by rank queries 166
    eliminations)."""
    m = catalog.gen("pg", (4, 3))
    counts = counting_kernels(monkeypatch)
    cov = covers.kdensity_cover(m, 1, 5)
    assert len(cov.sets) == 40
    assert counts == {"closures": 20, "eliminations": 59}


def test_thm4_suite_kernel_counts(monkeypatch):
    """The same for the thm4 suite's tau and kdensity_cover checks (the
    closure-per-subset base case made 2,370 closures and 6,251
    eliminations, and X grown by rank queries at a = 1 4,917
    eliminations)."""
    counts = counting_kernels(monkeypatch)
    assert harness.run_suite("thm4", 125, 0).passed
    assert counts == {"closures": 1214, "eliminations": 3826}
