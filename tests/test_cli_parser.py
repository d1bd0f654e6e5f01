"""The table-built parser against the hand-written one it replaced.

`main` reads a plainly spelled argument vector straight from the command
table (`cli._match`) and builds no parser; a bare `mdl`, `-h`/`--help`,
an unknown command, a refusal or any other spelling goes to the full
parser.  Either way its exit codes, output and error text must be those of
the old parser (tests/cli_reference.py), byte for byte, `_match` must
build the namespace the full parser builds, and every call must build its
own parser.
"""

import argparse
import contextlib
import io
import json
import os
import shlex
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
            mp.setattr(cli, "build_parser", cli_reference.build_parser)
            mp.setattr(cli, "_match", lambda argv: None)
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


def readme_examples():
    """The argument vectors of README's usage block, each line `mdl ...`."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(path, encoding="utf-8") as fh:
        return [shlex.split(line, comments=True)[1:] for line in fh if line.startswith("mdl ")]


def job_shapes(fano):
    """One argument vector of each shape the benchmark's jobs take."""
    return [["tau", fano, "--a", "2", "--json"], ["tauw", fano, "--d", "2", "--json"],
            ["cover", "thm4", fano, "--a", "1", "--b", "4", "--json"],
            ["rep", fano, "--q", "2"], ["pg", fano, "--n", "3", "--q", "2", "--json"],
            ["stack", "find", fano, "--q", "2", "--h", "1", "--t", "2", "--json"],
            ["round", fano, "--json"],
            ["verify", "thm4", "--trials", "30", "--seed", "0", "--json"]]


def full_parse(argv):
    """What the full parser reads from argv, less the command name."""
    namespace = vars(cli.build_parser().parse_args(argv))
    del namespace["command"]
    return namespace


def test_match_reads_what_the_full_parser_reads(files):
    answered = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(fuzz_argv(files))
    def check(argv):
        got = cli._match(argv)
        if got is not None:
            answered.append(argv)
            assert vars(got) == full_parse(argv), argv

    check()
    assert len(answered) > 50  # 87 of the 300 draws are plainly spelled
    examples = readme_examples()
    assert len(examples) == 12
    for argv in examples + job_shapes(files[0]):
        got = cli._match(argv)
        assert got is not None, argv
        assert vars(got) == full_parse(argv), argv


# a token starting with "-" that names no option of any command
STRAY = ["-h", "--help", "--", "--bogus", "-", "-1", "--a=1", "--js"]


@st.composite
def stray_argv(draw, files):
    argv = draw(fuzz_argv(files))
    argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(STRAY)))
    return argv


def test_match_leaves_other_spellings_to_the_full_parser(files):
    fano, out = files[0], files[0] + ".gen.mtd"

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(stray_argv(files))
    @example([])  # no command
    @example(["tua", fano, "--a", "1"])  # an unknown command
    @example(["--json", "tau", fano, "--a", "1"])  # an option before the command
    @example(["tau", fano, "--a", "1", "-h"])  # help
    @example(["stack", "find", fano, "--help", "--q", "2", "--t", "2"])
    @example(["round", fano, "--alp", "1/2"])  # an abbreviation
    @example(["tau", fano, "--a=1"])  # an option joined to its value
    @example(["tau", "--a", "1", "--", fano])  # --
    @example(["tau", fano, "--a", "1", "--a", "2"])  # a repeated option
    @example(["tau", fano, "--a", "1", "--json", "--json"])  # a repeated flag
    @example(["tauw", fano, "--d", "-1"])  # a value starting with "-"
    @example(["conn", "-", "--x", "0", "--y", "1"])  # a positional starting with "-"
    @example(["tau", fano, "--a", "x"])  # a type failure
    @example(["round", fano, "--alpha", "1/0"])
    @example(["stack", "bogus", fano, "--q", "2", "--t", "2"])  # a choice failure
    @example(["verify", "lemma99"])
    @example(["tau", fano])  # a missing option
    @example(["tau", "--a", "1"])  # a missing positional
    @example(["tau", fano, "--a"])  # a missing value
    @example(["tau", fano, "--a", "1", "extra"])  # an extra argument
    @example(["gen", "pg", "-o", out, "4", "2"])  # gen's parameters split by an option
    def check(argv):
        assert cli._match(argv) is None, argv

    check()


# the keywords of add_argument that _match reads as argparse does
INTERPRETED = {"type", "default", "required", "choices", "help", "action", "nargs"}


def uninterpreted():
    """(command, argument names) of every argument in the table that _match
    would misread."""
    bad = []
    for name in cli.COMMANDS:
        args = cli._arguments(name)
        last = max((i for i, (names, _) in enumerate(args) if names[0][0] != "-"), default=-1)
        for i, (names, kw) in enumerate(args):
            if (set(kw) - INTERPRETED or kw.get("action", "store_true") != "store_true"
                    or kw.get("nargs", "*") != "*" or "nargs" in kw and i != last):
                bad.append((name, names))
    return bad


def test_match_reads_every_keyword_of_the_table(monkeypatch):
    assert uninterpreted() == []
    monkeypatch.setitem(cli.COMMANDS, "x", ("", (
        cli._arg("file", nargs="?"), cli._arg("--y", action="append"),
        cli._arg("--z", metavar="Z"), cli._arg("more", nargs="*"), cli._arg("last"))))
    assert uninterpreted() == [("x", ("file",)), ("x", ("--y",)), ("x", ("--z",)),
                               ("x", ("more",))]


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
    assert parsers_built == []
    # every call reads the table anew: no parser is kept from the call before
    assert cli.main(["tau", fano, "--a", "1"]) == 0
    assert parsers_built == []
    assert cli.main(["--help"]) == 0
    assert parsers_built == FULL_PARSER
    parsers_built.clear()
    assert cli.main(["tua"]) == 2
    assert parsers_built == FULL_PARSER
    parsers_built.clear()
    # what the table match refuses, the full parser reports
    assert cli.main(["tau", fano, "--a", "1", "extra"]) == 2
    assert parsers_built == FULL_PARSER
    capsys.readouterr()


def test_entry_point_reads_sys_argv(files, parsers_built, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["mdl", "tau", files[0], "--a", "1"])
    assert cli.main() == 0
    assert parsers_built == []
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
