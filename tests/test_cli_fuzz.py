"""Fuzzed argument vectors and .mtd files: every exit is 0, 1 or 2, never an
internal error."""

import contextlib
import io
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdl import catalog
from mdl.cli import main
from mdl.core import UniformMatroid

FIXTURES = {
    "fano": lambda: catalog.gen("pg", (3, 2)),
    "u24": lambda: UniformMatroid(2, 4),
    "pg33_contracted": lambda: catalog.gen("pg", (3, 3)).contract(1),
    "tower": lambda: catalog.gen("u24_tower", (2,)),
    "empty": lambda: UniformMatroid(0, 0),
    "loops": lambda: UniformMatroid(0, 3),
}

# options per subcommand; the verify suites are left out, they are slow by design
COMMANDS = {
    "tau": ["--a"],
    "tauw": ["--d"],
    "round": ["--a", "--q", "--alpha"],
    "rep": ["--q"],
    "pg": ["--n", "--q"],
    "stack find": ["--q", "--h", "--t"],
    "stack verify": ["--q", "--t", "--parts"],
    "cover thm4": ["--a", "--b"],
    "conn": ["--x", "--y"],
}

ints = st.one_of(st.integers(-2, 5), st.integers(-2, 33)).map(str)
rationals = st.sampled_from(["1/0", "2/0", "0", "1/2", "-3/4", "13/32", "1//2"])
junk = st.sampled_from(["", "x", "-", "1.5", "1e3", "nan", "|", "--json"])
element_list = st.lists(st.integers(-2, 13), max_size=4).map(lambda xs: ",".join(map(str, xs)))
parts = st.lists(element_list, min_size=1, max_size=3).map("|".join)
TYPED = {"--alpha": rationals, "--x": element_list, "--y": element_list, "--parts": parts}
anything = st.one_of(ints, rationals, junk, element_list, parts)
# gen: every family and two it refuses, small values, negatives and values
# past the cap (MAX_GROUND = 128 elements, field orders up to 32)
families = st.sampled_from(sorted(catalog.FAMILIES) + ["direct_sum", "klein"])
gen_params = st.lists(st.one_of(st.integers(-2, 9).map(str), st.sampled_from(
    ["16", "25", "129", "200", "1000000", "2" * 20]), anything), max_size=5)


def gen_output(files):
    """Where fuzzed gen writes: the fixture files' temporary directory."""
    return os.path.join(os.path.dirname(files[0]), "gen.mtd")


@st.composite
def argv(draw, files):
    command = draw(st.sampled_from(sorted(COMMANDS) + ["gen"]))
    if command == "gen":
        out = ["gen", draw(families)] + draw(gen_params) + ["-o", gen_output(files)]
        if draw(st.booleans()):
            out += ["--seed", draw(ints)]
        return out + ["--json"] * draw(st.booleans())
    out = command.split() + [draw(st.sampled_from(files))]
    for opt in COMMANDS[command]:
        if draw(st.integers(0, 9)):  # now and then leave a required option out
            out += [opt, draw(st.one_of(TYPED.get(opt, ints), anything))]
    if command == "round" and draw(st.booleans()):
        out.append("--extract")
    if draw(st.booleans()):
        out.append("--json")
    return out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    paths = []
    for name, make in FIXTURES.items():
        path = str(d / f"{name}.mtd")
        catalog.write_matroid(make(), path, name=name)
        paths.append(path)
    return paths


def test_cli_exit_codes_under_fuzz(files):
    fano, written = files[0], gen_output(files)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(argv(files))
    @example(["round", fano, "--extract", "--alpha", "1/0"])
    @example(["pg", fano, "--n", "3", "--q", "1"])
    @example(["gen", "linear_random", "-1", "5", "2", "-o", written])
    @example(["gen", "linear_random", "0", "5", "2", "-o", written])
    @example(["gen", "pg_plus_noise", "0", "2", "4", "1", "-o", written])
    @example(["gen", "pg", "40", "2", "-o", written])
    @example(["gen", "pg", "9", "2", "-o", written])
    @example(["gen", "pg", "-1", "2", "-o", written])
    @example(["gen", "pg_plus_noise", "-1", "2", "4", "1", "-o", written])
    @example(["gen", "direct_sum", "1", "2", "-o", written])
    @example(["gen", "linear_random", "3", "-5", "2", "-o", written])
    @example(["gen", "pg_plus_noise", "3", "2", "4", "-1", "-o", written])
    def check(args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        assert code in (0, 1, 2), (args, code, err.getvalue())
        assert "internal error" not in err.getvalue(), (args, err.getvalue())

    check()


# .mtd text: valid fixture files with lines and tokens dropped, duplicated,
# swapped or garbled; read_matroid must refuse what it cannot build
MUTATIONS = ("drop line", "duplicate line", "swap lines", "garble token", "drop token",
             "duplicate token")
mtd_tokens = st.one_of(st.integers(-3, 140).map(str), st.sampled_from(
    ["", "x", "-", "1.5", "1e3", "0x10", "1000000", "#", "é", "end", "matroid", "kind", "field",
     "rank", "col", "params", "of", "contract", "delete", "parts", "linear", "uniform",
     "minor", "direct_sum"]))


@st.composite
def mutated(draw, texts):
    lines = draw(st.sampled_from(texts)).splitlines()
    own = sorted({t for line in lines for t in line.split()})
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        op = draw(st.sampled_from(MUTATIONS))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "drop line":
            del lines[i]
        elif op == "duplicate line":
            lines.insert(i, lines[i])
        elif op == "swap lines":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif toks := lines[i].split():
            k = draw(st.integers(0, len(toks) - 1))
            if op == "garble token":
                toks[k] = draw(st.one_of(mtd_tokens, st.sampled_from(own)))
            elif op == "drop token":
                del toks[k]
            else:
                toks.insert(k, toks[k])
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def test_mtd_text_fuzz(files, tmp_path):
    texts = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    path = str(tmp_path / "mutated.mtd")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(mutated(texts))
    def check(text):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for args in (["tau", path, "--a", "1"], ["rep", path, "--q", "2"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
            assert code in (0, 1, 2), (text, args, code, err.getvalue())
            assert "internal error" not in err.getvalue(), (text, args, err.getvalue())

    check()
