"""The table-built parser against the hand-written one it replaced.

`main` builds the parser of the named command alone, and every command's
parser only for a bare `mdl`, `-h`/`--help`, an unknown command, or to
report what the one-command parser rejects.  Its exit codes, output and
error text must be those of the old parser (tests/cli_reference.py), byte
for byte, and every call must build its own parser.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cli_reference
import mdl
from mdl import cli
from test_cli_fuzz import argv as fuzz_argv
from test_cli_fuzz import files  # noqa: F401 - the module's fixture files

COMMANDS = ["gen", "tau", "tauw", "conn", "round", "rep", "pg", "stack", "cover", "verify"]
FULL_PARSER = ["mdl"] + [f"mdl {name}" for name in COMMANDS]


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


# edits of a well-formed argument vector that a one-command parser may
# reject, or read otherwise than the command's subparser in the full one
INSERTED = ["-h", "--help", "--", "--bogus", "", "extra"]
MUTATIONS = ("insert", "abbreviate", "join", "repeat", "options first")


@st.composite
def mutated_argv(draw, files):
    argv = draw(fuzz_argv(files))
    kind = draw(st.sampled_from(MUTATIONS))
    options = [i for i, tok in enumerate(argv)
               if tok[:2] == "--" and len(tok) > 2 or tok[:1] == "-" and tok[1:2].isalpha()]
    if kind == "insert":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(INSERTED)))
    elif kind == "options first":
        at = next((i for i, tok in enumerate(argv) if tok in files), 1)
        head = options[0] if options else len(argv)
        argv = argv[:at] + argv[head:] + argv[at:head]
    elif options:
        i = draw(st.sampled_from(options))
        if kind == "abbreviate" and len(argv[i]) > 3:
            argv[i] = argv[i][:draw(st.integers(3, len(argv[i]) - 1))]
        elif kind == "join" and i + 1 < len(argv):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif kind == "repeat":
            argv[i:i] = argv[i:i + 2]
    return argv


def test_rejected_argv_match_old_parser(files):
    fano = files[0]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(mutated_argv(files))
    @example(["tau", fano, "-h", "--a", "1"])
    @example(["stack", "find", fano, "--help", "--q", "2", "--t", "2"])
    @example(["tau", fano, "--", "--a", "1"])
    @example(["tau", fano, "--a", "1", "--bogus"])
    @example(["rep", fano, "", "--q", "2"])
    @example(["pg", fano, "extra", "--n", "3", "--q", "2"])
    @example(["tau", fano, "--a", "1", "--js"])
    @example(["round", fano, "--alp", "1/2", "--extract"])
    @example(["tau", fano, "--a=1", "--json"])
    @example(["tau", fano, "--a", "1", "--a", "2"])
    @example(["cover", "thm4", "--a", "1", "--b", "4", fano])
    def check(argv):
        assert outcome(argv) == outcome(argv, reference=True), argv

    check()


@pytest.fixture
def parsers_built(monkeypatch):
    """A list that records the prog of every ArgumentParser built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def recording(self, *args, **kw):
        init(self, *args, **kw)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    return built


def test_main_builds_only_the_named_command(files, parsers_built, capsys):
    fano = files[0]
    assert cli.main(["tau", fano, "--a", "1"]) == 0
    assert parsers_built == ["mdl tau"]
    # every call builds its own parser: none is kept from the call before
    assert cli.main(["tau", fano, "--a", "1"]) == 0
    assert parsers_built == ["mdl tau", "mdl tau"]
    parsers_built.clear()
    assert cli.main(["--help"]) == 0
    assert parsers_built == FULL_PARSER
    parsers_built.clear()
    assert cli.main(["tua"]) == 2
    assert parsers_built == FULL_PARSER
    parsers_built.clear()
    # what the one-command parser rejects, the full parser reports
    assert cli.main(["tau", fano, "--a", "1", "extra"]) == 2
    assert parsers_built == ["mdl tau"] + FULL_PARSER
    capsys.readouterr()


def test_entry_point_reads_sys_argv(files, parsers_built, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["mdl", "tau", files[0], "--a", "1"])
    assert cli.main() == 0
    assert parsers_built == ["mdl tau"]
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
