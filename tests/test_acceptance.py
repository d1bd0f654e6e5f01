"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and trial count is pinned here.
"""

import math
import time
from fractions import Fraction

import pytest

from mdl import catalog, covers, gf, harness, rep, stacks
from mdl.bits import mask_of
from mdl.core import UniformMatroid, direct_sum, validate_rank_axioms
from mdl.stacks import DensityParams

import test_rep as rep_oracle


def _report(num, name, ok, elapsed, extra=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {verdict} [{elapsed:.1f}s] {extra}")
    assert ok, f"criterion {num} ({name}) failed: {extra}"


def small_catalog():
    return [
        ("uniform(1,3)", catalog.gen("uniform", (1, 3))),
        ("uniform(2,4)", catalog.gen("uniform", (2, 4))),
        ("uniform(2,5)", catalog.gen("uniform", (2, 5))),
        ("uniform(3,6)", catalog.gen("uniform", (3, 6))),
        ("pg(2,2)", catalog.gen("pg", (2, 2))),
        ("pg(3,2)", catalog.gen("pg", (3, 2))),
        ("pg(2,3)", catalog.gen("pg", (2, 3))),
        ("u24_tower(2)", catalog.gen("u24_tower", (2,))),
        ("pg_plus_noise(3,2,4,1)", catalog.gen("pg_plus_noise", (3, 2, 4, 1), seed=1)),
        ("linear_random(3,9,2)", catalog.gen("linear_random", (3, 9, 2), seed=4)),
        ("linear_random(2,10,3)", catalog.gen("linear_random", (2, 10, 3), seed=8)),
        ("minor of pg(4,2)", catalog.gen("pg", (4, 2)).minor(0b1, 0b110)),
    ]


def test_criterion_1_fields_and_axioms():
    start = time.time()
    ok = True
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        f = gf.field(q)
        els = range(q)
        for x in els:
            ok &= f.add(x, f.neg(x)) == 0
            ok &= f.mul(x, 1) == x
            if x:
                ok &= f.mul(x, f.inv(x)) == 1
        for x in els:
            for y in els:
                ok &= f.add(x, y) == f.add(y, x)
                ok &= f.mul(x, y) == f.mul(y, x)
                for z in els:
                    ok &= f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
                    ok &= f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
    checked = 0
    for name, m in small_catalog():
        if m.size() <= 10:
            checked += 1
            ok &= validate_rank_axioms(m)
    elapsed = time.time() - start
    _report(1, "field/axiom suite", ok and elapsed < 30 and checked >= 8,
            elapsed, f"exhaustive matroids={checked}")


def test_criterion_2_golden_covering_numbers():
    start = time.time()
    goldens = []

    def timed(fn, expect):
        t0 = time.time()
        val = fn()
        goldens.append((val == expect, time.time() - t0))

    timed(lambda: covers.tau(catalog.gen("pg", (3, 2)), 1).value, 7)
    timed(lambda: covers.tau(catalog.gen("pg", (4, 2)), 2).value, 5)
    timed(lambda: covers.tau(UniformMatroid(2, 4), 1).value, 4)
    timed(lambda: covers.tau_weighted(UniformMatroid(2, 4), 2).value, 4)
    timed(lambda: covers.tau_weighted(UniformMatroid(2, 4), 5).value, 20)
    ok = all(g for g, _ in goldens) and all(t < 5 for _, t in goldens)
    _report(2, "golden covering numbers", ok, time.time() - start)


def test_criterion_3_theorem4_bound():
    start = time.time()
    result = harness.run_suite("thm4", 100, 2026)
    elapsed = time.time() - start
    good, total = result.counts
    _report(3, "theorem 4 bound", result.passed and total >= 100 and elapsed < 120,
            elapsed, f"{good}/{total}")


def test_criterion_4_contraction_inequalities():
    start = time.time()
    cor5 = harness.run_suite("cor5", 200, 11)
    lem10 = harness.run_suite("lem10", 200, 12)
    elapsed = time.time() - start
    ok = cor5.passed and lem10.passed and elapsed < 120
    _report(4, "corollary 5 / lemma 10", ok, elapsed,
            f"cor5={cor5.counts} lem10={lem10.counts}")


def test_criterion_5_weighted_cover_structure():
    start = time.time()
    result = harness.run_suite("lem12", 50, 5)
    good, total = result.counts
    _report(5, "lemma 12 structure", result.passed and total >= 50,
            time.time() - start, f"{good}/{total}")


def test_criterion_6_uniform_minor_search():
    start = time.time()
    result = harness.run_suite("lem11", 24, 6)
    good, total = result.counts
    _report(6, "lemma 11 uniform minors", result.passed,
            time.time() - start, f"{good}/{total}")


def test_criterion_7_stack_suite():
    start = time.time()
    ok = True
    detail = []
    for h in (1, 2, 3, 4):
        tower = catalog.gen("u24_tower", (h,))
        cert = stacks.StackCert(
            tuple(mask_of(range(4 * i, 4 * i + 4)) for i in range(h)), 2, 2)
        ok &= stacks.verify_stack(tower, cert).ok
    pg44 = catalog.gen("pg", (4, 4))
    line = pg44.flats_of_rank(2)[0]
    two_layer = stacks.StackCert((line, pg44.ground & ~line), 3, 2)
    ok &= stacks.verify_stack(pg44, two_layer).ok
    found_tower = stacks.find_stack(catalog.gen("u24_tower", (4,)), 2, 4, 2)
    ok &= found_tower is not None and found_tower.height == 4
    found_pg = stacks.find_stack(pg44, 3, 2, 2)
    ok &= found_pg is not None and found_pg.height == 2
    representable_corpus = [
        (catalog.gen("pg", (3, 2)), 2, 3),
        (catalog.gen("pg", (4, 2)), 2, 3),
        (catalog.gen("pg", (2, 3)), 3, 2),
        (catalog.gen("pg", (3, 3)), 3, 2),
        (catalog.gen("pg", (4, 3)), 3, 2),
        (catalog.gen("pg", (4, 4)), 4, 2),
        (catalog.gen("linear_random", (3, 9, 2), seed=4), 2, 3),
        (catalog.gen("linear_random", (2, 10, 3), seed=8), 3, 2),
        (catalog.gen("u24_tower", (2,)), 4, 2),
    ]
    for m, q, t in representable_corpus:
        none_found = stacks.find_stack(m, q, 1, t)
        if none_found is not None:
            ok = False
            detail.append(f"unexpected stack at q={q}")
    elapsed = time.time() - start
    _report(7, "stack suite", ok and elapsed < 120, elapsed, " ".join(detail))


def test_criterion_8_projection_and_skewing():
    start = time.time()
    lem7 = harness.run_suite("lem7", 30, 8)
    lem8 = harness.run_suite("lem8", 30, 9)
    ok = lem7.passed and lem8.passed
    _report(8, "lemma 7 / lemma 8 planted", ok, time.time() - start,
            f"lem7={lem7.counts} lem8={lem8.counts}")


def test_criterion_9_no_stack_in_projection():
    start = time.time()
    result = harness.run_suite("lem14", 20, 14)
    good, total = result.counts
    _report(9, "lemma 14 projections", result.passed and total >= 20,
            time.time() - start, f"{good}/{total}")


def test_criterion_10_reduction_postconditions():
    start = time.time()
    results = {name: harness.run_suite(name, 30, 10) for name in
               ("lem9", "lem16", "lem17")}
    ok = all(r.passed for r in results.values())
    _report(10, "lemmas 9/16/17", ok, time.time() - start,
            " ".join(f"{k}={v.counts}" for k, v in results.items()))


def test_criterion_11_representability_oracle():
    start = time.time()
    ok = True
    mismatches = []
    for (name, q), expected in sorted(rep_oracle.EXPECTED.items()):
        m = rep_oracle.TINY[name]
        brute = rep_oracle.brute_representable(m, q)
        fast = rep.is_representable(m, q).representable
        if not (brute == fast == expected):
            ok = False
            mismatches.append((name, q, brute, fast, expected))
    ok &= rep.uniform_representability_fact(1, 5, 5)
    _report(11, "representability oracle", ok, time.time() - start,
            str(mismatches) if mismatches else "16 combos + hirschfeld")


def test_criterion_12_alpha_recursion():
    start = time.time()
    ok = True
    for a in (1, 2, 3):
        for b in range(a + 1, 5):
            for q in (2, 3, 4, 5):
                for h in range(7):
                    d = max(q + 1, math.comb(b - 1, a)) + 1
                    for lam in (1, 2):
                        p = DensityParams(a=a, b=b, q=q, d=d, t=2, h=h,
                                          lam=Fraction(lam))
                        val = stacks.alpha_getstack(p)
                        ok &= val == lam * (d * q) ** ((a + 1) * h)
                        if h > 0:
                            ok &= val % d == 0
    elapsed = time.time() - start
    _report(12, "alpha recursion", ok and elapsed < 1, elapsed)
