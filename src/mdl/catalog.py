"""Matroid generators and the .mtd file format.

Families: uniform(r, n); pg(n, q) with one column per point of the
rank-n projective geometry; linear_random(rank, cols, q) with seeded
nonzero columns; pg_plus_noise(n, q, q2, extra) embedding the geometry's
points over GF(q2) = GF(q^2) plus random extension-field columns; fano;
u24_tower(h).  Generators are deterministic given (params, seed); the
seeded generator is Python's mt19937.

File format (UTF-8, line oriented, '#' comments), multiple named blocks
per file, later blocks may reference earlier names:

    matroid <name>
    kind linear|uniform|minor|direct_sum
    field <q>            # linear
    rank <rows>
    col <e1> ... <erows> # one line per element
    params <r> <n>       # uniform
    of <name>            # minor
    contract <i> <i> ...
    delete <i> <i> ...
    parts <name> <name>  # direct_sum
    end

A block's nesting is 0 for linear and uniform, one more than its
deepest part for direct_sum, and for minor one more than its base's,
or the same when the base is itself a minor (minors of minors flatten
into one view) or nothing is contracted or deleted (the base itself).
Rank queries recurse once per level, so a block that nests deeper than
MAX_NESTING is refused before it is built.
"""

from __future__ import annotations

import random
from typing import Sequence

from . import gf
from .bits import indices_of, mask_of
from .core import (MAX_GROUND, DirectSumMatroid, LinearMatroid, Matroid, MinorMatroid,
                   UniformMatroid, direct_sum)
from .errors import InputError

RNG_ALGORITHM = "mt19937"

# nesting of minor and direct_sum views a file may build; a query takes
# about three stack frames per level, far below Python's recursion limit
MAX_NESTING = 100


def _linear(q: int, columns: Sequence[Sequence[int]], rows: int) -> LinearMatroid:
    f = gf.field(q)
    return LinearMatroid(gf.Matrix.from_columns(f, [tuple(c) for c in columns], rows))


# family: the names of its parameters, in order
FAMILIES = {
    "uniform": ("r", "n"),
    "pg": ("n", "q"),
    "fano": (),
    "linear_random": ("rank", "cols", "q"),
    "pg_plus_noise": ("n", "q", "q2", "extra"),
    "u24_tower": ("h",),
}


def _points(n: int, q: int) -> int:
    """(q^n - 1)/(q - 1) points of the rank-n geometry over GF(q), q >= 2;
    counting stops once past MAX_GROUND."""
    total = 0
    for _ in range(n):
        total = total * q + 1
        if total > MAX_GROUND:
            break
    return total


def _refuse(name: str, rank: int, columns: int) -> None:
    """Refuse a member of rank 0 with columns, or more than MAX_GROUND
    rows or columns, before any column is built."""
    if rank == 0 and columns:
        raise InputError(f"{name} of rank 0 has no nonzero column")
    if rank > MAX_GROUND or columns > MAX_GROUND:
        raise InputError(f"{name} would have more than {MAX_GROUND} rows or elements")


def _random_columns(rng: random.Random, count: int, rows: int, q: int) -> list[tuple[int, ...]]:
    """`count` nonzero GF(q) columns of length `rows`, each drawn from rng
    entry by entry, top row first, and drawn again while it is zero.

    An entry is getrandbits(q.bit_length()), drawn again while >= q:
    what rng.randrange(q) runs in CPython 3.10 to 3.13, less its checks."""
    width, draw = q.bit_length(), rng.getrandbits
    columns = []
    for _ in range(count):
        while True:
            col = []
            for _ in range(rows):
                x = draw(width)
                while x >= q:
                    x = draw(width)
                col.append(x)
            if any(col):
                break
        columns.append(tuple(col))
    return columns


def gen(name: str, params: Sequence = (), seed: int = 0) -> Matroid:
    """Build a named family member; see the module docstring for the list.

    The parameters, and the ground size against MAX_GROUND, are checked
    before anything is built; a refusal raises InputError.
    """
    if name not in FAMILIES:
        raise InputError(f"unknown matroid family {name!r}; choose from {sorted(FAMILIES)}")
    names = FAMILIES[name]
    if len(params) != len(names):
        raise InputError(f"{name} takes {len(names)} parameters ({' '.join(names)}), "
                         f"got {len(params)}")
    for key, v in zip(names, params):
        if v < 0:
            raise InputError(f"{name} parameter {key} must be at least 0, got {v}")
    if name == "uniform":
        r, n = params
        return UniformMatroid(r, n)
    if name == "pg":
        n, q = params
        f = gf.field(q)
        _refuse(name, n, _points(n, q))
        return _linear(q, gf.normalized_vectors(f, n), n)
    if name == "fano":
        return gen("pg", (3, 2))
    if name == "linear_random":
        rank, cols, q = params
        gf.field(q)
        _refuse(name, rank, cols)
        return _linear(q, _random_columns(random.Random(seed), cols, rank, q), rank)
    if name == "pg_plus_noise":
        n, q, q2, extra = params
        f2 = gf.field(q2)
        if f2.p != q or f2.k != 2:
            raise InputError("pg_plus_noise needs q prime and q2 = q^2")
        _refuse(name, n, _points(n, q) + extra)
        columns = gf.normalized_vectors(gf.field(q), n)  # GF(q) digits are GF(q^2) constants
        return _linear(q2, columns + _random_columns(random.Random(seed), extra, n, q2), n)
    (h,) = params  # u24_tower
    _refuse(name, 2 * h, 4 * h)
    return direct_sum([UniformMatroid(2, 4) for _ in range(h)])


# -- file format ------------------------------------------------------


class ParseError(InputError):
    def __init__(self, path: str, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")


def _emit(m: Matroid, name: str, blocks: list[str], counter: list[int]) -> str:
    if isinstance(m, LinearMatroid):
        lines = [f"matroid {name}", "kind linear", f"field {m.field.q}",
                 f"rank {m.matrix.rows}"]
        for col in m.matrix.columns():
            lines.append("col " + " ".join(str(v) for v in col))
        lines.append("end")
        blocks.append("\n".join(lines))
        return name
    if isinstance(m, UniformMatroid):
        blocks.append("\n".join([f"matroid {name}", "kind uniform",
                                 f"params {m.r} {m.n}", "end"]))
        return name
    if isinstance(m, MinorMatroid):
        counter[0] += 1
        base_name = _emit(m.base, f"{name}.base{counter[0]}", blocks, counter)
        lines = [f"matroid {name}", "kind minor", f"of {base_name}"]
        lines.append("contract" + "".join(f" {e}" for e in indices_of(m.contracted)))
        lines.append("delete" + "".join(f" {e}" for e in indices_of(m.deleted)))
        lines.append("end")
        blocks.append("\n".join(lines))
        return name
    if isinstance(m, DirectSumMatroid):
        part_names = []
        for i, part in enumerate(m.parts):
            counter[0] += 1
            part_names.append(_emit(part, f"{name}.p{counter[0]}", blocks, counter))
        blocks.append("\n".join([f"matroid {name}", "kind direct_sum",
                                 "parts " + " ".join(part_names), "end"]))
        return name
    raise InputError(f"matroid kind {m.kind!r} has no file representation")


def write_matroid(m: Matroid, path: str, name: str = "m",
                  header: str | None = None) -> None:
    blocks: list[str] = []
    _emit(m, name, blocks, [0])
    text = "\n\n".join(blocks) + "\n"
    if header:
        text = "".join(f"# {ln}\n" for ln in header.splitlines()) + text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_matroid(path: str) -> Matroid:
    """Parse a .mtd file; the matroid of the last block is returned."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(path, exc.object[:exc.start].count(b"\n") + 1,
                         f"not UTF-8 text: {exc}") from None
    named: dict[str, Matroid] = {}
    nesting: dict[str, int] = {}
    last: Matroid | None = None
    block: dict | None = None

    def fail(lineno, msg):
        raise ParseError(path, lineno, msg)

    for lineno, line in enumerate(raw, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = text.split()
        key = tokens[0]
        try:
            if key == "matroid":
                if block is not None:
                    fail(lineno, "block started before the previous one ended")
                if len(tokens) != 2:
                    fail(lineno, "matroid line needs exactly one name")
                block = {"name": tokens[1], "cols": [], "line": lineno}
            elif block is None:
                fail(lineno, f"directive {key!r} outside a matroid block")
            elif key == "kind":
                block["kind"] = tokens[1] if len(tokens) == 2 else fail(lineno, "bad kind line")
            elif key == "field":
                block["field"] = gf.field(int(tokens[1]))
            elif key == "rank":
                block["rank"] = int(tokens[1])
            elif key == "col":
                block["cols"].append((lineno, [int(t) for t in tokens[1:]]))
            elif key == "params":
                block["params"] = [int(t) for t in tokens[1:]]
            elif key == "of":
                block["of"] = tokens[1]
            elif key == "contract":
                block["contract"] = [int(t) for t in tokens[1:]]
            elif key == "delete":
                block["delete"] = [int(t) for t in tokens[1:]]
            elif key == "parts":
                block["parts"] = tokens[1:]
            elif key == "end":
                level = _nesting(block, named, nesting)
                if level > MAX_NESTING:
                    fail(block["line"], f"block {block['name']!r} nests {level} views deep, "
                         f"over the cap {MAX_NESTING}")
                m = _build_block(path, block, named)
                named[block["name"]] = m
                nesting[block["name"]] = level
                last = m
                block = None
            else:
                fail(lineno, f"unknown directive {key!r}")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ParseError):
                raise
            fail(lineno, f"bad {key!r} line: {exc}")
    if block is not None:
        fail(len(raw), f"block {block['name']!r} never ended")
    if last is None:
        raise ParseError(path, len(raw), "file defines no matroid")
    return last


def _nesting(block: dict, named: dict[str, Matroid], nesting: dict[str, int]) -> int:
    """How deep the block's matroid nests views (see the module docstring).

    Unknown names count 0 here; `_build_block` refuses them.
    """
    kind = block.get("kind")
    if kind == "minor":
        of = block.get("of")
        views = block.get("contract") or block.get("delete")
        return nesting.get(of, 0) + bool(views and not isinstance(named.get(of), MinorMatroid))
    if kind == "direct_sum":
        return 1 + max((nesting.get(nm, 0) for nm in block.get("parts", [])), default=0)
    return 0


def _build_block(path: str, block: dict, named: dict[str, Matroid]) -> Matroid:
    kind = block.get("kind")
    lineno = block["line"]
    if kind == "linear":
        if "field" not in block or "rank" not in block:
            raise ParseError(path, lineno, "linear block needs field and rank lines")
        f = block["field"]
        rows = block["rank"]
        if not 0 <= rows <= MAX_GROUND or len(block["cols"]) > MAX_GROUND:
            raise ParseError(path, lineno, f"linear block needs 0..{MAX_GROUND} rows "
                             f"and at most {MAX_GROUND} columns")
        columns = []
        for colno, col in block["cols"]:
            if len(col) != rows:
                raise ParseError(path, colno, f"column needs {rows} entries")
            for v in col:
                if not 0 <= v < f.q:
                    raise ParseError(path, colno, f"entry {v} outside GF({f.q})")
            columns.append(tuple(col))
        return LinearMatroid(gf.Matrix.from_columns(f, columns, rows))
    if kind == "uniform":
        params = block.get("params")
        if not params or len(params) != 2:
            raise ParseError(path, lineno, "uniform block needs 'params r n'")
        return UniformMatroid(params[0], params[1])
    if kind == "minor":
        base = named.get(block.get("of"))
        if base is None:
            raise ParseError(path, lineno,
                             f"minor references unknown base {block.get('of')!r}")
        contract, delete = block.get("contract", []), block.get("delete", [])
        if any(i >= base.n for i in contract + delete):
            raise ParseError(path, lineno, "minor sets contain dead elements")
        c, d = mask_of(contract), mask_of(delete)
        try:
            return base.minor(c, d)
        except (ValueError, IndexError) as exc:
            raise ParseError(path, lineno, str(exc))
    if kind == "direct_sum":
        names = block.get("parts", [])
        parts = []
        for nm in names:
            if nm not in named:
                raise ParseError(path, lineno, f"direct_sum references unknown part {nm!r}")
            parts.append(named[nm])
        if not parts:
            raise ParseError(path, lineno, "direct_sum needs at least one part")
        return direct_sum(parts)
    raise ParseError(path, lineno, f"unknown kind {kind!r}")
