"""The table-built parser against the hand-written one it replaced.

`main` builds the parser of the named command alone, and every command's
parser only for a bare `mdl`, `-h`/`--help` or an unknown command.  Its
exit codes, output and error text must be those of the old parser
(tests/cli_reference.py), byte for byte, and every call must build its
own parser.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings

import cli_reference
import mdl
from mdl import cli
from test_cli_fuzz import argv as fuzz_argv
from test_cli_fuzz import files  # noqa: F401 - the module's fixture files

COMMANDS = ["gen", "tau", "tauw", "conn", "round", "rep", "pg", "stack", "cover", "verify"]


def outcome(argv, reference=False):
    """Exit code, stdout and stderr of main, with the old parser if reference."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(cli, "build_parser", lambda only=None: cli_reference.build_parser())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_fixed_cases_match_old_parser(files):
    fano = files[0]
    cases = [[], ["-h"], ["--help"], ["tua"], ["tua", fano, "--a", "1"],
             ["tau", fano, "--a", "1", "extra"], ["tau", fano], ["tau"],
             ["stack", "bogus", fano, "--q", "2", "--t", "2"], ["stack"],
             ["--json", "tau", fano, "--a", "1"], ["verify", "lemma99"],
             ["tau", fano, "--a", "-1"], ["tau", fano, "--a", "1"]]
    cases += [[c, "--help"] for c in COMMANDS] + [[c, "-h"] for c in COMMANDS]
    for argv in cases:
        got, want = outcome(argv), outcome(argv, reference=True)
        assert got == want, argv
    # the cases above reach the usage line of each parser
    assert "usage: mdl [-h] {gen,tau,tauw" in outcome(["tau", fano, "--a", "1", "x"])[2]
    assert "argument command: invalid choice: 'tua'" in outcome(["tua"])[2]


def test_fuzzed_argv_match_old_parser(files):
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(fuzz_argv(files))
    def check(argv):
        assert outcome(argv) == outcome(argv, reference=True), argv

    check()


@pytest.fixture
def subparsers_built(monkeypatch):
    """A list that records the name of every subparser built."""
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kw):
        built.append(name)
        return add_parser(self, name, **kw)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    return built


def test_main_builds_only_the_named_command(files, subparsers_built, capsys):
    fano = files[0]
    assert cli.main(["tau", fano, "--a", "1"]) == 0
    assert subparsers_built == ["tau"]
    # every call builds its own parser: none is kept from the call before
    assert cli.main(["tau", fano, "--a", "1"]) == 0
    assert subparsers_built == ["tau", "tau"]
    subparsers_built.clear()
    assert cli.main(["--help"]) == 0
    assert subparsers_built == COMMANDS
    subparsers_built.clear()
    assert cli.main(["tua"]) == 2
    assert subparsers_built == COMMANDS
    capsys.readouterr()


def test_entry_point_reads_sys_argv(files, subparsers_built, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["mdl", "tau", files[0], "--a", "1"])
    assert cli.main() == 0
    assert subparsers_built == ["tau"]
    assert "tau=7" in capsys.readouterr().out


def test_module_entry_point_subprocess(files):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(mdl.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "mdl.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    res = run("tau", files[0], "--a", "1", "--json")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["tau"] == "7"
    res = run("--help")
    assert res.returncode == 0
    listed = res.stdout.split("positional arguments:", 1)[1]
    for name in COMMANDS:
        assert f"\n    {name} " in listed, name
