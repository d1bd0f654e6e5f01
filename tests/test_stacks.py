"""Stack verification, search, projection and skewing."""

import math
from fractions import Fraction

import pytest

from mdl import catalog, core, covers, stacks
from mdl.bits import mask_of
from mdl.stacks import DensityParams
from mdl.errors import CapExceeded, PremiseError


def tower_cert(h):
    return stacks.StackCert(tuple(mask_of(range(4 * i, 4 * i + 4)) for i in range(h)), 2, 2)


# -- verification -----------------------------------------------------------


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_tower_certificates_verify(h):
    m = catalog.gen("u24_tower", (h,))
    cert = tower_cert(h)
    assert stacks.verify_stack(m, cert).ok
    assert m.rank(cert.union()) == m.rank()


def test_pg34_two_layer_certificate():
    m = catalog.gen("pg", (4, 4))
    line = m.flats_of_rank(2)[0]
    cert = stacks.StackCert((line, m.ground & ~line), 3, 2)
    assert stacks.verify_stack(m, cert).ok


def test_verify_rejects_bad_certs():
    m = catalog.gen("u24_tower", (2,))
    overlap = stacks.StackCert((0b1111, 0b1111), 2, 2)
    assert "overlap" in stacks.verify_stack(m, overlap).reason
    empty = stacks.StackCert((0b1111, 0), 2, 2)
    assert "empty" in stacks.verify_stack(m, empty).reason
    # a representable layer fails
    fano = catalog.gen("pg", (3, 2))
    line = fano.flats_of_rank(2)[0]
    bad = stacks.StackCert((line,), 2, 2)
    assert "representable" in stacks.verify_stack(fano, bad).reason
    # rank cap
    m2 = catalog.gen("u24_tower", (1,))
    low_t = stacks.StackCert((0b1111,), 2, 1)
    assert "> t" in stacks.verify_stack(m2, low_t).reason


def test_stack_prefix_property_and_rank_bounds():
    m = catalog.gen("u24_tower", (4,))
    cert = tower_cert(4)
    for j in range(5):
        pre = stacks.StackCert(cert.parts[:j], 2, 2)
        assert stacks.verify_stack(m, pre).ok
    h = cert.height
    r = m.rank(cert.union())
    assert 2 * h <= r <= cert.t * h


# -- search ------------------------------------------------------------------


def test_find_stack_rediscovers_tower():
    m = catalog.gen("u24_tower", (4,))
    cert = stacks.find_stack(m, 2, 4, 2)
    assert cert is not None
    assert cert.parts == tuple(mask_of(range(4 * i, 4 * i + 4)) for i in range(4))
    assert stacks.verify_stack(m, cert).ok


def test_find_stack_rediscovers_pg34_layers():
    m = catalog.gen("pg", (4, 4))
    cert = stacks.find_stack(m, 3, 2, 2)
    # the first line in flat order, then all of M/line: a rank-2 PG(1, 4)
    assert cert is not None and cert.parts == (mask_of(range(5)), mask_of(range(5, 85)))
    assert stacks.verify_stack(m, cert).ok


def test_find_stack_none_on_representable():
    fano = catalog.gen("pg", (3, 2))
    assert stacks.find_stack(fano, 2, 1, 3) is None
    pg33 = catalog.gen("pg", (3, 3))
    assert stacks.find_stack(pg33, 3, 1, 2) is None


def test_find_stack_by_subfield_rule_stores_no_levels():
    """Over PG(3, 2) with q = 2 every layer is answered by the subfield
    rule, so no restriction builds a flat level and nothing is left on
    the base's store of minor levels."""
    m = catalog.gen("pg", (4, 2))
    for h, t in ((1, 3), (2, 2)):
        assert stacks.find_stack(m, 2, h, t) is None
    assert m._minor_levels == {}


def test_find_stack_rank_too_low():
    m = catalog.gen("u24_tower", (1,))
    assert stacks.find_stack(m, 2, 2, 2) is None  # rank 2 < 2h = 4


def test_find_stack_layer_budget(tmp_path, capsys, monkeypatch):
    from mdl.cli import main

    pg33 = catalog.gen("pg", (3, 3))  # 13 lines, all representable: no stack
    monkeypatch.setattr(stacks, "LAYER_BUDGET", 5)
    with pytest.raises(CapExceeded, match="layer evaluation budget"):
        stacks.find_stack(pg33, 3, 1, 2)
    f = str(tmp_path / "pg33.mtd")
    catalog.write_matroid(pg33, f)
    find = ["stack", "find", f, "--q", "3", "--h", "1", "--t", "2"]
    assert main(find) == 2
    assert "layer evaluation budget" in capsys.readouterr().err
    monkeypatch.setenv("MDL_CAP_OVERRIDE", "13")
    assert stacks.find_stack(pg33, 3, 1, 2) is None
    assert main(find) == 1
    assert "found=False" in capsys.readouterr().out


# -- serialization -------------------------------------------------------------


def test_cert_round_trip():
    cert = tower_cert(3)
    text = stacks.serialize_cert(cert)
    assert text.splitlines()[0] == "stack q=2 t=2"
    assert text.splitlines()[1:] == ["part 0 1 2 3", "part 4 5 6 7", "part 8 9 10 11"]


# -- projection (stack robustness) ----------------------------------------------


def blocks_with_extras(nblocks, supports, loops=0):
    from mdl.harness import _blocks_matroid

    return _blocks_matroid(nblocks, supports, loops=loops)


def test_project_stack_trivial_c():
    m, parts = blocks_with_extras(2, [])
    cert = stacks.StackCert(parts, 2, 2)
    out = stacks.project_stack(m, cert, 0, 2)
    assert out.parts == parts[:2]


def test_project_stack_skew_c():
    m, parts = blocks_with_extras(3, [[2]])
    cert = stacks.StackCert(parts, 2, 2)
    c = 1 << 12  # spans inside block 2 only, skew to blocks 0,1
    out = stacks.project_stack(m, cert, c, 1)
    assert out.parts == parts[:1]
    assert stacks.verify_stack(m.contract(c), out).ok


def test_project_stack_entangled():
    m, parts = blocks_with_extras(4, [[0]])
    cert = stacks.StackCert(parts, 2, 2)
    c = 1 << 16
    out = stacks.project_stack(m, cert, c, 2)
    assert out.height == 2
    assert stacks.verify_stack(m.contract(c), out).ok
    # the folded first layer contains the contracted blocks
    assert out.parts[0] & parts[0]


def test_project_stack_overlapping_c():
    m, parts = blocks_with_extras(2, [])
    cert = stacks.StackCert(parts, 2, 2)
    c = 0b1  # an element of the first layer itself
    out = stacks.project_stack(m, cert, c, 1)
    assert stacks.verify_stack(m.contract(c), out).ok
    assert not out.union() & c


def test_project_stack_overlapping_c_on_a_full_ground():
    # 128 elements, the MAX_GROUND cap: a copy of C's stack element would
    # need a 129th, so the projection must work on M itself
    m, parts = blocks_with_extras(32, [])
    assert m.size() == core.MAX_GROUND
    out = stacks.project_stack(m, stacks.StackCert(parts, 2, 2), 0b1, 1)
    assert out.parts == ((parts[0] | parts[1]) & ~0b1,)  # layer 0 folded into layer 1


def test_project_stack_premise_errors():
    m, parts = blocks_with_extras(2, [[0]])
    cert = stacks.StackCert(parts, 2, 2)
    with pytest.raises(PremiseError):
        stacks.project_stack(m, cert, 1 << 8, 2)  # needs k(r+1) = 4 layers
    bad = stacks.StackCert((parts[0], parts[0]), 2, 2)
    with pytest.raises(PremiseError):
        stacks.project_stack(m, bad, 0, 1)


# -- skewing ----------------------------------------------------------------------


def test_skew_stack_already_skew():
    m, parts = blocks_with_extras(2, [], loops=1)
    cert = stacks.StackCert(parts, 2, 2)
    x = 1 << 8  # a loop: connectivity 0
    c, out = stacks.skew_stack(m, cert, x, 0)
    assert c == 0
    assert out.parts == parts[:2]


def test_skew_stack_on_span_of_first_part():
    m, parts = blocks_with_extras(2, [[0]])
    cert = stacks.StackCert(parts, 2, 2)
    x = 1 << 8
    c, out = stacks.skew_stack(m, cert, x, 1)
    assert c == parts[0]
    assert out.parts == (parts[1],)
    assert m.contract(c).local_conn(x & ~c, out.union()) == 0


def test_skew_stack_connectivity_precondition():
    m, parts = blocks_with_extras(2, [[0], [1]])
    cert = stacks.StackCert(parts, 2, 2)
    x = (1 << 8) | (1 << 9)  # rank 2 connectivity
    with pytest.raises(PremiseError):
        stacks.skew_stack(m, cert, x, 1)


# -- alpha recursion ------------------------------------------------------------


def closed_form(a, q, d, h, lam):
    return lam * (d * q) ** ((a + 1) * h)


def test_alpha_base_case():
    p = DensityParams(a=1, b=5, q=2, d=5, t=2, h=0, lam=Fraction(7))
    assert stacks.alpha_getstack(p) == 7


def test_alpha_matches_closed_form_grid():
    for a in (1, 2, 3):
        for q in (2, 3, 5):
            for d in (2, 5, 7):
                for h in range(0, 7):
                    for lam in (1, 2, 3):
                        p = DensityParams(a=a, b=a + 2, q=q, d=d, t=2, h=h,
                                          lam=Fraction(lam))
                        assert stacks.alpha_getstack(p) == closed_form(a, q, d, h, lam)


def test_alpha_multiples_of_d():
    for h in range(1, 5):
        p = DensityParams(a=1, b=4, q=2, d=7, t=2, h=h, lam=Fraction(3))
        assert stacks.alpha_getstack(p) % 7 == 0


def test_alpha_single_unfolding_example():
    p = DensityParams(a=1, b=5, q=2, d=5, t=2, h=1, lam=Fraction(1))
    assert stacks.alpha_getstack(p) == 100


# -- the density recursion's premise ----------------------------------------------


def premise_witnesses(max_ground):
    """(a, b, q, d, h, lam, r) on criterion 12's grid at h >= 1 where
    alpha * q^r is at most min(d^r, d * max_ground), the most that
    tau^d of a rank-r matroid on max_ground elements can be."""
    out = []
    for a in (1, 2, 3):
        for b in range(a + 1, 5):
            for q in (2, 3, 4, 5):
                d = max(q + 1, math.comb(b - 1, a)) + 1
                for h in range(1, 7):
                    for lam in (1, 2):
                        p = DensityParams(a=a, b=b, q=q, d=d, t=2, h=h, lam=Fraction(lam))
                        alpha = stacks.alpha_getstack(p)
                        for r in range(max_ground + 1):
                            # alpha * q^r grows with r: no larger r can fit
                            if alpha * q ** r > d * max_ground:
                                break
                            if alpha * q ** r <= d ** r:
                                out.append((a, b, q, d, h, lam, r))
    return out


def test_density_premise_unreachable_within_max_ground():
    # alpha_getstack's proof: no matroid within MAX_GROUND meets the premise
    assert premise_witnesses(core.MAX_GROUND) == []
    # and the check can fail: 1024 elements would leave room at rank 6,
    # where 64 * 2^6 = 4^6 = 4 * 1024
    assert (1, 2, 2, 4, 1, 1, 6) in premise_witnesses(1024)


def test_tau_weighted_within_the_proof_bound():
    # the proof's upper bound: the cover {E} and the cover by the points
    for name, params, seed in [("linear_random", (3, 9, 2), 0), ("linear_random", (3, 9, 2), 1),
                               ("linear_random", (4, 10, 3), 2), ("pg_plus_noise", (3, 2, 4, 2), 1),
                               ("uniform", (2, 5), 0), ("u24_tower", (2,), 0), ("pg", (3, 2), 0)]:
        m = catalog.gen(name, params, seed=seed)
        for d in (1, 2, 4, 5, 9):
            bound = min(d ** m.rank(), d * m.epsilon())
            assert covers.tau_weighted(m, d).value <= bound, (name, params, seed, d)


# -- no-stack-in-projection ----------------------------------------------------------


def test_no_stack_in_projection_h0():
    fano = catalog.gen("pg", (3, 2))
    rpt = stacks.check_no_stack_in_projection(fano, 0, 2, 0, 3)
    assert rpt.ok


def test_no_stack_in_projection_premise_errors():
    m = catalog.gen("pg_plus_noise", (3, 2, 4, 2), seed=1)
    x = 0b11 << 7
    with pytest.raises(PremiseError):
        stacks.check_no_stack_in_projection(m, x, 2, 1, 3)  # r(X)=2 > h=1
    fano = catalog.gen("pg", (3, 2))
    with pytest.raises(PremiseError):
        stacks.check_no_stack_in_projection(fano.delete(0b1), 0, 2, 0, 3)


def test_no_stack_in_projection_one_search_answers_every_t(monkeypatch):
    # a lem14-shaped input: PG(3,2) over GF(4) plus one noise column
    m = catalog.gen("pg_plus_noise", (3, 2, 4, 1), seed=7)
    x = 1 << 7
    h = m.rank(x)
    want = {t: stacks.find_stack(m.contract(x), 2, h + 1, t) for t in (2, 3)}
    assert want == {2: None, 3: None}
    calls = []
    find = stacks.find_stack

    def counted(*args):
        calls.append(args[1:])
        return find(*args)

    monkeypatch.setattr(stacks, "find_stack", counted)
    rpt = stacks.check_no_stack_in_projection(m, x, 2, h, 3)
    assert calls == [(2, h + 1, 3)]
    assert rpt.results == want and list(rpt.results) == [2, 3] and rpt.ok


def test_no_stack_in_projection_searches_smaller_t_after_a_find(monkeypatch):
    m = catalog.gen("pg_plus_noise", (3, 2, 4, 1), seed=7)
    found = stacks.StackCert((0b11,), 2, 4)
    calls = []

    def stub(mx, q, h, t):
        calls.append(t)
        return found if t == 4 else None

    monkeypatch.setattr(stacks, "find_stack", stub)
    rpt = stacks.check_no_stack_in_projection(m, 1 << 7, 2, 1, 4)
    assert calls == [4, 2, 3]
    assert list(rpt.results) == [2, 3, 4] and rpt.results[4] is found
    assert not rpt.ok
