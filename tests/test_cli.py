"""CLI subcommands: pipelines, verdict exit codes, determinism, json."""

import ast
import importlib
import json
import os
import pathlib
import pkgutil
import resource
import subprocess
import sys
import time

import pytest

import mdl
from mdl import cli, stacks
from mdl.cli import main
from mdl.errors import CapExceeded, PremiseError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_tau_pipeline(tmp_path, capsys):
    f = str(tmp_path / "pg32.mtd")
    code, out, _ = run(capsys, "gen", "pg", "4", "2", "-o", f)
    assert code == 0
    code, out, _ = run(capsys, "tau", f, "--a", "2")
    assert code == 0
    assert "tau=5" in out


def test_tau_json_mirror(tmp_path, capsys):
    f = str(tmp_path / "u24.mtd")
    run(capsys, "gen", "uniform", "2", "4", "-o", f)
    code, out, _ = run(capsys, "tauw", f, "--d", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["tau_weighted"] == "20"
    assert len(data["cover"]) == 4


def test_conn_command(tmp_path, capsys):
    f = str(tmp_path / "t.mtd")
    run(capsys, "gen", "u24_tower", "2", "-o", f)
    code, out, _ = run(capsys, "conn", f, "--x", "0,1,2,3", "--y", "4,5,6,7")
    assert code == 0
    assert "local_conn=0" in out and "skew=True" in out


def test_round_verdicts(tmp_path, capsys):
    f = str(tmp_path / "pg.mtd")
    run(capsys, "gen", "pg", "4", "2", "-o", f)
    code, out, _ = run(capsys, "round", f)
    assert code == 0 and "weakly_round=True" in out
    g = str(tmp_path / "u33.mtd")
    run(capsys, "gen", "uniform", "3", "3", "-o", g)
    code, out, _ = run(capsys, "round", g)
    assert code == 1 and "weakly_round=False" in out


def test_rep_verdict_exit_codes(tmp_path, capsys):
    f = str(tmp_path / "u24.mtd")
    run(capsys, "gen", "uniform", "2", "4", "-o", f)
    code, out, _ = run(capsys, "rep", f, "--q", "3")
    assert code == 0 and "representable=True" in out and "matrix" in out
    code, out, _ = run(capsys, "rep", f, "--q", "2")
    assert code == 1 and "representable=False" in out


def test_rep_json_matrix(tmp_path, capsys):
    f = str(tmp_path / "u24.mtd")
    run(capsys, "gen", "uniform", "2", "4", "-o", f)
    code, text, _ = run(capsys, "rep", f, "--q", "3")
    code, out, _ = run(capsys, "rep", f, "--q", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == len(data["matrix"]) == 2
    shown = text.split("matrix\n", 1)[1].split("\n")[:2]
    assert [" ".join(map(str, row)) for row in data["matrix"]] == [r.strip() for r in shown]


def test_pg_recognition(tmp_path, capsys):
    f = str(tmp_path / "fano.mtd")
    run(capsys, "gen", "pg", "3", "2", "-o", f)
    code, out, _ = run(capsys, "pg", f, "--n", "3", "--q", "2")
    assert code == 0 and "is_pg=True" in out
    # beyond the search's 40-point cap: answered by rank and point count
    for n, q in ((4, 4), (3, 9)):
        f = str(tmp_path / f"pg{n}{q}.mtd")
        run(capsys, "gen", "pg", str(n), str(q), "-o", f)
        code, out, _ = run(capsys, "pg", f, "--n", str(n), "--q", str(q))
        assert code == 0 and "is_pg=True" in out


def test_stack_find_and_verify(tmp_path, capsys):
    f = str(tmp_path / "tower.mtd")
    run(capsys, "gen", "u24_tower", "2", "-o", f)
    code, out, _ = run(capsys, "stack", "find", f, "--q", "2", "--h", "2", "--t", "2")
    assert code == 0 and "stack q=2 t=2" in out
    code, out, _ = run(capsys, "stack", "verify", f, "--q", "2", "--t", "2",
                       "--parts", "0,1,2,3|4,5,6,7")
    assert code == 0 and "valid=True" in out
    code, out, _ = run(capsys, "stack", "verify", f, "--q", "2", "--t", "2",
                       "--parts", "0,1,2,3|3,4,5,6")
    assert code == 1


def test_stack_find_none_exit_code(tmp_path, capsys):
    f = str(tmp_path / "fano.mtd")
    run(capsys, "gen", "pg", "3", "2", "-o", f)
    code, out, _ = run(capsys, "stack", "find", f, "--q", "2", "--h", "1", "--t", "2")
    assert code == 1 and "found=False" in out


def test_stack_find_on_a_line_past_the_search_cap(tmp_path, capsys):
    # U(2, 50) has more points than the representability search takes,
    # but a rank-2 layer's verdict is its point count: 50 > 7 + 1
    f = str(tmp_path / "u250.mtd")
    run(capsys, "gen", "uniform", "2", "50", "-o", f)
    code, out, err = run(capsys, "stack", "find", f, "--q", "7", "--h", "1", "--t", "2")
    assert (code, err) == (0, "") and "found=True" in out
    code, out, err = run(capsys, "rep", f, "--q", "7")
    assert code == 2 and err == "error: representability cap: 50 points > 40\n"


def test_cover_thm4(tmp_path, capsys):
    f = str(tmp_path / "pg.mtd")
    run(capsys, "gen", "pg", "3", "2", "-o", f)
    code, out, _ = run(capsys, "cover", "thm4", f, "--a", "1", "--b", "4")
    assert code == 0
    assert "within_bound=True" in out and "covers_ground=True" in out


def test_json_builds_no_text_blocks(tmp_path, capsys, monkeypatch):
    fano, tower = str(tmp_path / "fano.mtd"), str(tmp_path / "tower.mtd")
    run(capsys, "gen", "pg", "3", "2", "-o", fano)
    run(capsys, "gen", "u24_tower", "2", "-o", tower)
    jobs = [("tau", fano, "--a", "1"), ("tauw", fano, "--d", "2"),
            ("cover", "thm4", fano, "--a", "1", "--b", "4"),
            ("stack", "find", tower, "--q", "2", "--h", "2", "--t", "2")]
    want = [run(capsys, *argv, "--json") for argv in jobs]

    def refuse(*args):
        raise RuntimeError("a text block built")

    monkeypatch.setattr(cli, "_cover_block", refuse)
    monkeypatch.setattr(stacks, "serialize_cert", refuse)
    for argv, before in zip(jobs, want):
        assert before[0] == 0 and json.loads(before[1]), argv
        assert run(capsys, *argv, "--json") == before, argv
        # the text form still asks for its block
        assert run(capsys, *argv)[0] == 3, argv


def test_verify_suite_and_determinism(capsys):
    code, out1, _ = run(capsys, "verify", "lem10", "--trials", "5", "--seed", "3")
    assert code == 0
    assert "passed=5/5" in out1
    code, out2, _ = run(capsys, "verify", "lem10", "--trials", "5", "--seed", "3")
    assert out1 == out2


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "hirschfeld", "--trials", "4",
                       "--seed", "0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] == 4 and len(data["trials"]) == 4


def test_usage_errors(tmp_path, capsys):
    code, _, _ = run(capsys, "verify", "lemma99", "--trials", "1")
    assert code == 2
    code, _, err = run(capsys, "tau", str(tmp_path / "missing.mtd"), "--a", "1")
    assert code == 2 and "error:" in err
    # a forbidden uniform restriction is a premise error naming its witness
    u28 = str(tmp_path / "u28.mtd")
    run(capsys, "gen", "uniform", "2", "8", "-o", u28)
    code, _, err = run(capsys, "cover", "thm4", u28, "--a", "1", "--b", "4")
    assert code == 2 and "error:" in err and "0 1 2 3" in err
    # malformed directives report file:line
    for bad in ("rank", "rank x"):
        p = tmp_path / "bad.mtd"
        p.write_text(f"matroid m\nkind linear\nfield 2\n{bad}\nend\n")
        code, _, err = run(capsys, "rep", str(p), "--q", "2")
        assert code == 2 and f"{p}:4:" in err, (bad, err)
    p.write_bytes(b"matroid m\nkind uniform\nparams 2 4\xff\nend\n")
    code, _, err = run(capsys, "tau", str(p), "--a", "1")
    assert code == 2 and err.startswith(f"error: {p}:3: not UTF-8 text:"), err
    # elements outside the ground set
    code, _, err = run(capsys, "conn", u28, "--x", "0,99", "--y", "1")
    assert code == 2 and "error:" in err and "99" in err
    tower = str(tmp_path / "tower.mtd")
    run(capsys, "gen", "u24_tower", "2", "-o", tower)
    code, out, err = run(capsys, "stack", "verify", tower, "--q", "2", "--t", "2",
                         "--parts", "0,1,2,3|4,99")
    assert code == 2 and "valid=" not in out and "99" in err
    code, out, err = run(capsys, "stack", "verify", tower, "--q", "2", "--t", "2")
    assert code == 2 and out == "" and err == "error: stack verify needs --parts\n"
    # a negative rank or a trial count below one is refused, not answered
    code, out, _ = run(capsys, "tau", tower, "--a", "-1")
    assert code == 2 and "tau=" not in out
    for trials in ("-3", "0"):
        code, out, _ = run(capsys, "verify", "lem10", "--trials", trials)
        assert code == 2 and "passed=" not in out
    # a --q that is not a field order is refused, not answered
    fano = str(tmp_path / "fano.mtd")
    run(capsys, "gen", "pg", "3", "2", "-o", fano)
    for argv in (("stack", "find", fano, "--q", "6", "--h", "2", "--t", "2"),
                 ("stack", "verify", fano, "--q", "6", "--t", "2", "--parts", "0|1"),
                 ("pg", fano, "--n", "3", "--q", "6"),
                 ("pg", fano, "--n", "3", "--q", "1"),
                 ("rep", fano, "--q", "6"),
                 ("rep", fano, "--q", "x")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "--q" in err, (argv, err)


def test_cap_override_only_raises(tmp_path, capsys, monkeypatch):
    f = str(tmp_path / "tower.mtd")
    run(capsys, "gen", "u24_tower", "2", "-o", f)
    find = ("stack", "find", f, "--q", "2", "--h", "2", "--t", "2")
    for bad in ("abc", "0", "999999"):
        monkeypatch.setenv("MDL_CAP_OVERRIDE", bad)
        code, out, err = run(capsys, *find)
        assert code == 2 and "MDL_CAP_OVERRIDE" in err and repr(bad) in err, (bad, err)
    monkeypatch.setenv("MDL_CAP_OVERRIDE", "2000000")
    code, out, _ = run(capsys, *find)
    assert code == 0 and "stack q=2 t=2" in out


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    from mdl import cli

    def boom(args):
        raise RuntimeError("unexpected\nstate")

    f = str(tmp_path / "u24.mtd")
    run(capsys, "gen", "uniform", "2", "4", "-o", f)
    monkeypatch.setattr(cli, "cmd_tau", boom)
    code, out, err = run(capsys, "tau", f, "--a", "1")
    assert code == 3 and out == ""
    assert err.startswith("internal error: RuntimeError(") and err.count("\n") == 1, err


def test_round_extract(tmp_path, capsys):
    f = str(tmp_path / "comp.mtd")
    p = tmp_path / "comp.mtd"
    p.write_text(
        "matroid a\nkind uniform\nparams 3 3\nend\n\n"
        "matroid b\nkind uniform\nparams 2 10\nend\n\n"
        "matroid m\nkind direct_sum\nparts a b\nend\n")
    code, out, _ = run(capsys, "round", f, "--extract", "--a", "1", "--q", "2",
                       "--alpha", "13/32")
    assert code == 0
    assert "restriction_rank=" in out


def test_round_extract_rejects_bad_alpha(tmp_path, capsys):
    f = str(tmp_path / "fano.mtd")
    run(capsys, "gen", "pg", "3", "2", "-o", f)
    for alpha in ("1/0", "x", "1//2"):
        code, out, err = run(capsys, "round", f, "--extract", "--alpha", alpha)
        assert code == 2 and out == "" and "--alpha" in err, (alpha, err)


def test_verify_dumps_counterexample(tmp_path, capsys, monkeypatch):
    from mdl import harness
    from mdl.core import UniformMatroid

    monkeypatch.setitem(harness.SUITES, "lem10", lambda rng, i, seed: (
        UniformMatroid(2, 4), lambda: (False, "synthetic failure")))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "lem10", "--trials", "1")
    assert code == 1
    assert "dump=counterexample_lem10_trial0.mtd" in out
    assert (tmp_path / "counterexample_lem10_trial0.mtd").exists()


def test_verify_keeps_its_verdict_when_a_dump_cannot_be_written(tmp_path, capsys,
                                                                 monkeypatch):
    from mdl import harness
    from mdl.core import UniformMatroid

    monkeypatch.setitem(harness.SUITES, "lem10", lambda rng, i, seed: (
        UniformMatroid(2, 4), lambda: (False, "synthetic failure")))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "counterexample_lem10_trial0.mtd").mkdir()
    code, out, err = run(capsys, "verify", "lem10", "--trials", "1")
    assert code == 1 and err == ""
    assert out == "trial=0 pass=False synthetic failure\nlemma=lem10 passed=0/1\n"
    code, out, _ = run(capsys, "verify", "lem10", "--trials", "1", "--json")
    assert code == 1 and "dump" not in json.loads(out)["trials"][0]


def test_gen_seed_determinism(tmp_path, capsys):
    a, b = str(tmp_path / "a.mtd"), str(tmp_path / "b.mtd")
    run(capsys, "gen", "linear_random", "3", "8", "2", "--seed", "9", "-o", a)
    run(capsys, "gen", "linear_random", "3", "8", "2", "--seed", "9", "-o", b)
    text_a = open(a).read()
    text_b = open(b).read()
    assert text_a.splitlines()[1:] == text_b.splitlines()[1:]


def _raising(exc):
    def procedure(*args, **kwargs):
        raise exc
    return procedure


@pytest.mark.parametrize("suite, module, name", [
    ("lem7", "stacks", "project_stack"),
    ("cor5", "covers", "check_contraction_inequalities"),
])
@pytest.mark.parametrize("exc, code, err", [
    (RuntimeError("re-check failed"), 1, ""),
    (PremiseError("premise refused"), 1, ""),
    (CapExceeded("cap hit"), 2, "error: cap hit"),
    (TypeError("a bug"), 3, "internal error: TypeError('a bug')"),
    (ValueError("a bug"), 3, "internal error: ValueError('a bug')"),
], ids=["runtime", "premise", "cap", "type", "value"])
def test_verify_verdict_policy(tmp_path, capsys, monkeypatch, suite, module, name, exc,
                               code, err):
    # the procedure a real suite calls raises: a PremiseError or a
    # RuntimeError fails the trial (and dumps it), a CapExceeded is a cap
    # error, and anything else is an internal error, never a verdict
    monkeypatch.setattr(importlib.import_module(f"mdl.{module}"), name, _raising(exc))
    monkeypatch.chdir(tmp_path)
    got, out, stderr = run(capsys, "verify", suite, "--trials", "2")
    assert got == code
    assert stderr.startswith(err)
    if code == 1:
        assert f"pass=False raised {type(exc).__name__}: {exc} dump=" in out
        assert f"lemma={suite} passed=0/2" in out
        assert (tmp_path / f"counterexample_{suite}_trial1.mtd").exists()
    else:
        assert out == "" and not list(tmp_path.iterdir())


def test_verify_draw_exception_is_internal_error(capsys, monkeypatch):
    from mdl import harness

    def draw(rng, i, seed):
        raise TypeError("draw bug")

    monkeypatch.setitem(harness.SUITES, "lem10", draw)
    code, out, err = run(capsys, "verify", "lem10", "--trials", "2")
    assert code == 3 and out == "" and err.startswith("internal error:")


@pytest.mark.parametrize("text", [
    "matroid m\nkind linear\nfield 2\nrank 400000\nend\n",
    "matroid m\nkind linear\nfield 2\nrank 1\n" + "col 1\n" * 129 + "end\n",
    "matroid m\nkind uniform\nparams 2 400000000\nend\n",
    "matroid b\nkind uniform\nparams 2 4\nend\nmatroid m\nkind minor\nof b\n"
    "contract 400000000\nend\n",
    "matroid b\nkind uniform\nparams 2 4\nend\nmatroid m\nkind minor\nof b\n"
    "delete 1 400000000\nend\n",
    "matroid b\nkind uniform\nparams 2 128\nend\nmatroid m\nkind direct_sum\nparts"
    + " b" * 5000 + "\nend\n",
], ids=["rank", "cols", "params", "contract", "delete", "parts"])
def test_oversized_file_refused_before_building(tmp_path, capsys, text):
    # each file asks for far more than MAX_GROUND elements or rows; the
    # reader refuses it at once instead of allocating that much first
    f = tmp_path / "big.mtd"
    f.write_text(text)
    start = time.perf_counter()
    code, out, err = run(capsys, "tau", str(f), "--a", "1")
    elapsed = time.perf_counter() - start
    assert code == 2 and out == "" and err.startswith(f"error: {f}:"), (code, err)
    assert elapsed < 0.1, elapsed


def test_value_error_from_a_bug_is_internal_error(tmp_path, capsys, monkeypatch):
    # only an InputError is a refusal; a plain ValueError is a bug
    from mdl import covers

    f = str(tmp_path / "u24.mtd")
    run(capsys, "gen", "uniform", "2", "4", "-o", f)
    monkeypatch.setattr(covers, "tau", _raising(ValueError("a bug")))
    code, out, err = run(capsys, "tau", f, "--a", "1")
    assert code == 3 and out == ""
    assert err == "internal error: ValueError('a bug')\n"


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def python(*argv, cwd=None, timeout=20):
    """A fresh `python argv...` process with this checkout's mdl on its path,
    at most 1 GiB of address space and `timeout` seconds."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(mdl.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=timeout, preexec_fn=_limit_memory)


@pytest.mark.parametrize("params", [
    ("linear_random", "-1", "5", "2"),
    ("linear_random", "0", "5", "2"),
    ("linear_random", "3", "-5", "2"),
    ("linear_random", "3", "129", "2"),
    ("linear_random", "129", "3", "2"),
    ("pg", "-1", "2"),
    ("pg", "9", "2"),
    ("pg", "40", "2"),
    ("pg", "3", "1000000000000000003"),
    ("pg", "3"),
    ("pg_plus_noise", "-1", "2", "4", "1"),
    ("pg_plus_noise", "0", "2", "4", "1"),
    ("pg_plus_noise", "3", "2", "4", "-1"),
    ("pg_plus_noise", "5", "2", "4", "100"),
    ("u24_tower", "33"),
    ("uniform", "2", "x"),
    ("fano", "1"),
    ("direct_sum", "1", "2"),
], ids=" ".join)
def test_gen_refuses_bad_parameters(tmp_path, params):
    # in a subprocess with a timeout, so that a generator that builds
    # instead of refusing fails the test rather than hanging it
    out = tmp_path / "out.mtd"
    res = python("-m", "mdl.cli", "gen", *params, "-o", str(out))
    assert res.returncode == 2 and res.stdout == "", (res.returncode, res.stderr)
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, res.stderr
    assert not out.exists()


def test_flat_cap_refuses_huge_lattices_within_ten_seconds(tmp_path):
    # U(14,28) has 20,475 flats of rank 4 and 98,280 of rank 5, and a
    # chain of 100 one-element sums over U(2,4) has rank 102; without
    # core.MAX_FLATS each of these ran past a 10 s timeout
    from mdl.core import MAX_FLATS

    uniform = tmp_path / "u.mtd"
    assert main(["gen", "uniform", "14", "28", "-o", str(uniform)]) == 0
    chain = tmp_path / "chain.mtd"
    blocks = ["matroid e\nkind uniform\nparams 1 1\nend", "matroid b0\nkind uniform\nparams 2 4\nend"]
    blocks += [f"matroid b{i}\nkind direct_sum\nparts b{i - 1} e\nend" for i in range(1, 101)]
    chain.write_text("\n".join(blocks) + "\n")
    for argv, rank in [(("round", uniform), 4), (("tau", uniform, "--a", "13"), 4),
                       (("tauw", uniform, "--d", "2"), 4), (("round", chain), 3)]:
        res = python("-m", "mdl.cli", *map(str, argv), timeout=10)
        assert res.returncode == 2 and res.stdout == "", (argv, res.returncode, res.stderr)
        assert res.stderr == f"error: flats of rank {rank} exceed cap {MAX_FLATS}\n", argv


# what each command adds to the modules `import mdl.cli` loads
CLI_MODULES = {"mdl", "mdl.bits", "mdl.errors", "mdl.gf", "mdl.core", "mdl.catalog", "mdl.cli"}
ALL_MODULES = {"mdl"} | {f"mdl.{m.name}" for m in pkgutil.iter_modules(mdl.__path__)}
LOADS = [
    ((), set()),
    (("gen", "pg", "3", "2", "-o", "gen.mtd"), set()),
    (("conn", "{f}", "--x", "0", "--y", "1"), set()),
    (("round", "{f}"), set()),
    (("tau", "{f}", "--a", "1"), {"mdl.covers"}),
    (("tauw", "{f}", "--d", "2"), {"mdl.covers"}),
    (("cover", "thm4", "{f}", "--a", "1", "--b", "4"), {"mdl.covers"}),
    (("rep", "{f}", "--q", "2"), {"mdl.rep"}),
    (("pg", "{f}", "--n", "3", "--q", "2"), {"mdl.rep"}),
    (("round", "{f}", "--extract"), {"mdl.reduce", "mdl.covers"}),
    (("stack", "find", "{f}", "--q", "2", "--h", "1", "--t", "2"),
     {"mdl.stacks", "mdl.rep"}),
    (("verify", "lem10", "--trials", "1"), ALL_MODULES - CLI_MODULES),
    (("--help",), ALL_MODULES - CLI_MODULES),
]
PROBE = ("import sys, mdl.cli\n"
         "if sys.argv[1:]:\n"
         "    mdl.cli.main(sys.argv[1:])\n"
         "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'mdl'))")


@pytest.mark.parametrize("argv, adds", LOADS,
                         ids=[" ".join(argv) or "import" for argv, _ in LOADS])
def test_command_loads_only_its_modules(tmp_path, argv, adds):
    # a fresh process: `import mdl.cli` loads no module a command may
    # not need, and each command loads only the modules it runs
    from mdl import catalog

    f = str(tmp_path / "fano.mtd")
    catalog.write_matroid(catalog.gen("fano"), f)
    res = python("-c", PROBE, *(a.format(f=f) for a in argv), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert set(res.stdout.splitlines()[-1].split()) == CLI_MODULES | adds


def test_runtime_imports_are_stdlib_or_mdl():
    """Runtime dependencies stay at none: every absolute import in
    src/mdl names mdl itself or a standard-library module."""
    sources = sorted(pathlib.Path(mdl.__path__[0]).glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "mdl" or top in sys.stdlib_module_names, (path.name, name)


def test_every_public_definition_is_reached():
    """Reach or remove: each public module-level def or class of src/mdl
    is referred to by another src/mdl definition (by name, attribute or
    import alias; a docstring does not count), is in mdl.__all__, is the
    handler cmd_<name> of a cli.COMMANDS entry, or is named in
    tests/test_acceptance.py."""
    from mdl import cli

    def names(node):
        out = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.alias):
                out.update({n.name, n.asname} - {None})
        return out

    public, refs = [], []  # (module, name); (module, owner or None, names)
    for path in sorted(pathlib.Path(mdl.__path__[0]).glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    public.append((path.stem, owner))
            refs.append((path.stem, owner, names(stmt)))
    acceptance = pathlib.Path(__file__).with_name("test_acceptance.py")
    reached = (set(mdl.__all__) | {f"cmd_{c}" for c in cli.COMMANDS}
               | names(ast.parse(acceptance.read_text(encoding="utf-8"))))
    unreached = [f"{mod}.{name}" for mod, name in public
                 if name not in reached
                 and not any(name in used for m, o, used in refs if (m, o) != (mod, name))]
    assert unreached == []


def test_only_the_base_matroid_defines_closure():
    """One closure protocol: Matroid.closure is x plus _spanned of the
    rest, and no other class in src/mdl defines closure, so every fast
    path is a _spanned (or _classes) override."""
    owners = []
    for path in sorted(pathlib.Path(mdl.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) and d.name == "closure"
                    for d in node.body):
                owners.append(f"{path.stem}.{node.name}")
    assert owners == ["core.Matroid"]
