"""Harness machinery: determinism, registry, failure reporting."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from mdl import harness


def test_registry_complete():
    expected = {"thm4", "cor5", "lem7", "lem8", "lem9", "lem10", "lem11",
                "lem12", "lem14", "lem16", "lem17", "hirschfeld"}
    assert set(harness.SUITES) == expected


def test_unknown_suite():
    with pytest.raises(ValueError):
        harness.run_suite("lem99", 1, 0)


def test_suites_deterministic():
    a = harness.run_suite("cor5", 6, 42)
    b = harness.run_suite("cor5", 6, 42)
    assert [t.detail for t in a.trials] == [t.detail for t in b.trials]


def test_counts_property():
    r = harness.run_suite("hirschfeld", 10, 0)
    good, total = r.counts
    assert total == 10
    assert r.passed == (good == total)


@pytest.mark.parametrize("name", sorted(harness.SUITES))
def test_each_suite_smoke(name):
    r = harness.run_suite(name, 4, 7)
    assert r.passed, [t.detail for t in r.trials if not t.passed]


def test_lem9_rank_one_corpus():
    # seed 0 draws a rank-1 random matroid at trial 77; it takes the
    # trivial branch instead of asking for a rank-2 flat
    assert harness.run_suite("lem9", 78, 0).passed


def run_traced(code: str, cwd) -> subprocess.CompletedProcess:
    """Run code after installing the benchmark's tracer (perfbench/tracing.py,
    read and not edited).  It wraps mdl's internals by name, so a rename
    fails here rather than only under `perfbench/run.py --trace 1`.  A
    subprocess, because installing rebinds mdl's module globals."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "perfbench"), str(root / "src")]))
    code = "import mdl, tracing; t = tracing.Tracer(); t.install(mdl)\n" + code
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_perfbench_tracer_wraps_every_layer(tmp_path):
    out = run_traced("mdl.cli.main(['verify', 'lem10', '--trials', '2'])\n"
                     "assert t.counts['harness.trials'] == 2, dict(t.counts)", tmp_path)
    assert out.returncode == 0, out.stderr


def test_perfbench_tracer_runs_pg_and_lem7(tmp_path):
    code = ("from mdl import catalog\n"
            "catalog.write_matroid(catalog.gen('pg', (3, 2)), 'fano.mtd')\n"
            "codes = [mdl.cli.main(['pg', 'fano.mtd', '--n', '3', '--q', '2']),\n"
            "         mdl.cli.main(['verify', 'lem7', '--trials', '10'])]\n"
            "assert codes == [0, 0], codes")
    out = run_traced(code, tmp_path)
    assert out.returncode == 0, out.stderr


# sha256 of json.dumps([[index, passed, detail], ...]) for 6 trials at
# seed 0.  The verify benchmark pins `mdl verify --seed 0`, so its
# timings compare only while each suite draws the same corpus; a change
# that moves one rng draw changes a digest here.
CORPUS_DIGESTS = {
    "cor5": "a15916bb7084bb8c64a5935745cf07629e7707ebd303e9196d1ebacf42a806db",
    "hirschfeld": "9a776c88849e823cfb416c71d7dc84113fd76cf69ffe5dfcf398e53b7f1d15f0",
    "lem10": "b3f5dd507765dbb6f6bb1ee8d8b31d6938734246fa3be4a86f022941a3b3d061",
    "lem11": "85fb3c07d73538687f52109a2fd9463edd4eef51d6e818086da4b34a1a049948",
    "lem12": "5cdcb580d74809036465ac9e3fa083855d9b68c1cad72ddc192be44f2e50919d",
    "lem14": "43b41b68c1a1778c74062afeb5381f3589a95694f2dd5866e9de48f5e2b91774",
    "lem16": "a11364345be34da238995eeba87fdb981bf1845d97ba13763b737a62abae74aa",
    "lem17": "9470acb05e3c74b70e7a4c3825997232e221f0af04ab683dd3db2d0f5aa3c7b0",
    "lem7": "0565edd535e9d7065a5ab8be3031b03785b80ca9903e8417746e282108aac801",
    "lem8": "b1901246b180e6795c1549921a8138065b2668cf40ff4631480bd1d410c9ff38",
    "lem9": "0dcc4453c16cc59c5e9df4bb0c3ac2eb961443091dc201775c7e5577d8692d5e",
    "thm4": "ba6ccec52675b784ed1d2a434865d909d8b8e20ef88812d78088b643e9f1ab8d",
}


def test_suite_corpora_pinned():
    assert set(CORPUS_DIGESTS) == set(harness.SUITES)
    for name, digest in CORPUS_DIGESTS.items():
        rows = [[t.index, t.passed, t.detail] for t in harness.run_suite(name, 6, 0).trials]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest, name
