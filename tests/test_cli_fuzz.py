"""Fuzzed argument vectors and .mtd files: every exit is 0, 1 or 2, never an
internal error."""

import contextlib
import inspect
import io
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdl import catalog
from mdl.catalog import MAX_NESTING
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


def reach():
    """How many more frames can be pushed here before a RecursionError."""
    def down(n):
        try:
            return down(n + 1)
        except RecursionError:
            return n
    return down(0)


@pytest.fixture(scope="module")
def headroom(tmp_path_factory):
    """reach() where a plain `python -m mdl.cli` process calls main."""
    d = tmp_path_factory.mktemp("probe")
    (d / "probe.py").write_text(inspect.getsource(reach)
                                + "\n\nif __name__ == '__main__':\n    print(reach())\n")
    res = subprocess.run([sys.executable, "-m", "probe"], cwd=d, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(d)}, timeout=60, check=True)
    return int(res.stdout)


def run_main(args, headroom):
    """Exit code and stderr of main(args), run with the stack room it has
    in a plain process: hypothesis raises the recursion limit while a
    @given test runs, so a stack overflow there would pass unseen."""
    out, err = io.StringIO(), io.StringIO()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - reach() + headroom)  # reach() sits where main will
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        sys.setrecursionlimit(limit)
    return code, err.getvalue()


def test_cli_exit_codes_under_fuzz(files, headroom):
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
        code, err = run_main(args, headroom)
        assert code in (0, 1, 2), (args, code, err)
        assert "internal error" not in err, (args, err)

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


def test_mtd_text_fuzz(files, tmp_path, headroom):
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
            code, err = run_main(args, headroom)
            assert code in (0, 1, 2), (text, args, code, err)
            assert "internal error" not in err, (text, args, err)

    check()


# .mtd block graphs: chains of minor and direct_sum blocks in a drawn
# pattern of kinds, around and past catalog.MAX_NESTING, whose sums now
# and then take an earlier block as a shared part
CHAIN_LENGTHS = (1, 2, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 2 * MAX_NESTING + 3, 400)


@st.composite
def block_graph(draw):
    length = draw(st.sampled_from(CHAIN_LENGTHS))
    pattern = draw(st.lists(st.sampled_from(["direct_sum", "minor"]), min_size=1, max_size=4))
    share = draw(st.sampled_from([0, 1, 7, 50]))  # every share-th sum shares; 0: none
    # one-element parts that each sum adds: as many as the pattern's
    # minors remove, or in a chain of sums alone none or one
    extra = pattern.count("minor") or draw(st.integers(0, 1))
    blocks = ["matroid e\nkind uniform\nparams 1 1\nend",
              "matroid b0\nkind uniform\nparams 2 4\nend"]
    gone = -1  # the last element a minor removed since the last sum renumbered
    for i in range(1, length + 1):
        if pattern[i % len(pattern)] == "minor":
            op = draw(st.sampled_from(["contract", "delete"]))
            gone += 1 + draw(st.integers(0, 1))
            body = f"kind minor\nof b{i - 1}\n{op} {gone}"
        else:
            gone = -1
            parts = [f"b{i - 1}"] + ["e"] * extra
            if share and i % share == 0:
                parts.insert(1, f"b{draw(st.integers(0, i - 1))}")
            body = "kind direct_sum\nparts " + " ".join(parts)
        blocks.append(f"matroid b{i}\n{body}\nend")
    return length, "\n".join(blocks) + "\n"


def chain_text(length, kinds, leaf_n):
    """A chain of `length` blocks over U(2, leaf_n), kinds taken in turn
    from `kinds`: each minor deletes an element its base still has, and
    each sum adds a one-element part if there are minors, else has one
    part."""
    blocks = ["matroid e\nkind uniform\nparams 1 1\nend",
              f"matroid b0\nkind uniform\nparams 2 {leaf_n}\nend"]
    deleted = 0  # by the minors since the last sum, which renumbers
    for i in range(1, length + 1):
        if kinds[i % len(kinds)] == "minor":
            body = f"kind minor\nof b{i - 1}\ndelete {deleted}"
            deleted += 1
        else:
            body = f"kind direct_sum\nparts b{i - 1}" + " e" * ("minor" in kinds)
            deleted = 0
        blocks.append(f"matroid b{i}\n{body}\nend")
    return "\n".join(blocks) + "\n"


def test_deep_block_graphs_never_exit_3(tmp_path, headroom):
    path = str(tmp_path / "deep.mtd")

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(block_graph())
    def check(graph):
        length, text = graph
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for args in (["tau", path, "--a", "1"], ["rep", path, "--q", "2"]):
            code, err = run_main(args, headroom)
            assert code in (0, 1, 2), (length, args, code, err)
            assert "internal error" not in err, (length, args, err)
            if "nests" in err:
                assert length > MAX_NESTING and err.startswith(f"error: {path}:")

    check()


@pytest.mark.parametrize("kinds,leaf_n", [(("direct_sum",), 4), (("direct_sum", "minor"), 4),
                                          (("minor",), MAX_NESTING + 2)])
def test_nesting_cap_refuses_the_first_block_past_it(tmp_path, kinds, leaf_n):
    """Sums and alternating chains are read up to MAX_NESTING views deep
    and refused one past it, at that block's line; minors of minors
    flatten, so a minor-only chain nests one view deep however long."""
    f = tmp_path / "chain.mtd"
    f.write_text(chain_text(MAX_NESTING, kinds, leaf_n))
    assert catalog.read_matroid(str(f)).size() > 0
    text = chain_text(MAX_NESTING + 1, kinds, leaf_n)
    f.write_text(text)
    if kinds == ("minor",):
        assert catalog.read_matroid(str(f)).size() > 0
        return
    lineno = text.splitlines().index(f"matroid b{MAX_NESTING + 1}") + 1
    with pytest.raises(catalog.ParseError, match=rf"{re.escape(str(f))}:{lineno}: block 'b{MAX_NESTING + 1}' "
                       rf"nests {MAX_NESTING + 1} views deep, over the cap {MAX_NESTING}"):
        catalog.read_matroid(str(f))


@pytest.mark.parametrize("length,kinds", [(400, ("direct_sum",)), (800, ("direct_sum", "minor"))])
def test_chains_that_overflowed_the_stack_exit_2(tmp_path, capsys, length, kinds):
    # run outside hypothesis, which raises the recursion limit while it
    # runs: read without the nesting cap, these chains overflow the stack
    # in a rank query (RecursionError, exit 3)
    f = tmp_path / "chain.mtd"
    f.write_text(chain_text(length, kinds, 4))
    for args in (["tau", str(f), "--a", "1"], ["rep", str(f), "--q", "2"]):
        code = main(args)
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"error: {f}:") and "nests" in err, (code, err)
