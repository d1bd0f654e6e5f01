"""Command line front end.

Exit codes: 0 success / property holds, 1 verdict negative or property
violated (counterexamples are dumped as replayable .mtd files), 2 usage,
cap or refused-input errors (InputError: a bad argument, file or
premise), 3 internal error (any other exception, a plain ValueError
included; never a verdict).  `mdl verify` exits 1 when a trial fails,
also when its check refused a premise or failed its own
re-verification; a cap hit during a trial exits 2.  Every subcommand
takes --json for a machine-readable mirror of the same content.

`mdl <command> ...` imports only the modules that command runs.  Plainly
spelled arguments (each option once, by its full name, and no value
starting with '-') are read straight from the command table; anything
else, help and errors included, goes to the parser of every command.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import catalog, gf
from .bits import indices_of, mask_of, union
from .errors import CapExceeded, InputError

OK, FAIL, USAGE, INTERNAL = 0, 1, 2, 3


def _emit(args, pairs: dict, block=None, data: dict | None = None) -> None:
    """Print pairs as key=value lines and then the text block() builds, or
    under --json one object of pairs and data (which only JSON carries)."""
    if args.json:
        print(json.dumps({**pairs, **(data or {})}, default=str))
        return
    for k, v in pairs.items():
        print(f"{k}={v}")
    if block:
        print(block().removesuffix("\n"))


def _parse_list(text: str, m) -> int:
    """An element list of m; elements outside its ground set are a usage error."""
    try:
        elements = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(str(exc)) from None
    outside = sorted({e for e in elements if e < 0 or not m.ground >> e & 1})
    if outside:
        raise InputError(f"elements outside the ground set: {outside}")
    return mask_of(elements)


def _at_least(low: int):
    """argparse type: an int no smaller than low."""
    def parse(text: str) -> int:
        v = int(text)
        if v < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {v}")
        return v
    return parse


def _field_order(text: str) -> int:
    """argparse type: a field order that gf.field accepts."""
    try:
        q = int(text)
        gf.field(q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return q


def _rational(text: str):
    """argparse type: an exact rational such as 7/32."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


def _cover_block(m, cover) -> str:
    return "\n".join(["cover"] + [f"  set rank={m.rank(s)}: " + " ".join(map(str, indices_of(s)))
                                  for s in cover.sets])


def cmd_gen(args) -> int:
    try:
        params = tuple(int(p) for p in args.params)
    except ValueError:
        raise InputError(f"gen parameters must be integers, got {args.params}") from None
    m = catalog.gen(args.family, params, seed=args.seed)
    header = f"family={args.family} params={list(params)} seed={args.seed} rng={catalog.RNG_ALGORITHM}"
    catalog.write_matroid(m, args.output, name=args.family, header=header)
    _emit(args, {"written": args.output, "n": m.size(), "rank": m.rank()})
    return OK


def _emit_cover_value(args, key: str, m, res) -> int:
    """tau and tauw: the value as a string, and the certificate if any
    (none for the +inf sentinel, nor the empty cover of an empty ground)."""
    sets = res.cover.sets if res.cover is not None else ()
    _emit(args, {key: str(res.value)}, sets and (lambda: _cover_block(m, res.cover)),
          data={"cover": [indices_of(s) for s in sets] if sets else None})
    return OK


def cmd_tau(args) -> int:
    from . import covers

    m = catalog.read_matroid(args.file)
    return _emit_cover_value(args, "tau", m, covers.tau(m, args.a))


def cmd_tauw(args) -> int:
    from . import covers

    m = catalog.read_matroid(args.file)
    return _emit_cover_value(args, "tau_weighted", m, covers.tau_weighted(m, args.d))


def cmd_conn(args) -> int:
    m = catalog.read_matroid(args.file)
    x, y = _parse_list(args.x, m), _parse_list(args.y, m)
    conn = m.local_conn(x, y)
    _emit(args, {"local_conn": conn, "skew": conn == 0})
    return OK


def cmd_round(args) -> int:
    m = catalog.read_matroid(args.file)
    ok, pair = m.is_weakly_round()
    info: dict = {"weakly_round": ok}
    if not ok:
        info.update(violating_a=indices_of(pair[0]), violating_b=indices_of(pair[1]))
    if args.extract:
        from . import reduce as reductions

        n = reductions.weakly_round_restriction(m, args.a, args.q, args.alpha)
        info["restriction"] = indices_of(n.ground)
        info["restriction_rank"] = n.rank()
    _emit(args, info)
    return OK if ok or args.extract else FAIL


def cmd_rep(args) -> int:
    from . import rep

    m = catalog.read_matroid(args.file)
    res = rep.is_representable(m, args.q)
    info: dict = {"representable": res.representable}
    block, data = None, {}
    if res.matrix is not None:
        info["rows"] = res.matrix.rows
        data["matrix"] = rows = [list(row) for row in res.matrix.entries]
        block = lambda: "matrix\n" + "\n".join("  " + " ".join(map(str, r)) for r in rows)
    _emit(args, info, block, data)
    return OK if res.representable else FAIL


def cmd_pg(args) -> int:
    from . import rep

    m = catalog.read_matroid(args.file)
    verdict = rep.is_pg(m, args.n, args.q)
    _emit(args, {"is_pg": verdict, "points": m.epsilon(), "rank": m.rank()})
    return OK if verdict else FAIL


def cmd_stack(args) -> int:
    from . import stacks

    m = catalog.read_matroid(args.file)
    if args.action == "verify":
        if not args.parts:
            raise InputError("stack verify needs --parts")
        parts = tuple(_parse_list(p, m) for p in args.parts.split("|"))
        check = stacks.verify_stack(m, stacks.StackCert(parts, args.q, args.t))
        _emit(args, {"valid": check.ok, "reason": check.reason})
        return OK if check.ok else FAIL
    cert = stacks.find_stack(m, args.q, args.h, args.t)
    if cert is None:
        _emit(args, {"found": False})
        return FAIL
    _emit(args, {"found": True}, lambda: stacks.serialize_cert(cert),
          data={"q": cert.q, "t": cert.t, "parts": [indices_of(p) for p in cert.parts]})
    return OK


def cmd_cover(args) -> int:
    from . import covers

    m = catalog.read_matroid(args.file)
    cov = covers.kdensity_cover(m, args.a, args.b)
    bound = math.comb(args.b - 1, args.a) ** max(m.rank() - args.a, 0)
    info = {"cover_size": len(cov.sets), "bound": bound,
            "covers_ground": union(cov.sets) == m.ground,
            "within_bound": len(cov.sets) <= bound}
    _emit(args, info, lambda: _cover_block(m, cov), {"sets": [indices_of(s) for s in cov.sets]})
    return OK if info["covers_ground"] and info["within_bound"] else FAIL


def cmd_verify(args) -> int:
    from . import harness

    result = harness.run_suite(args.lemma, args.trials, args.seed)
    good, total = result.counts
    rows = []
    for t in result.trials:
        rows.append({"trial": t.index, "pass": t.passed, "detail": t.detail})
        if not t.passed and t.dump is not None:
            path = f"counterexample_{args.lemma}_trial{t.index}.mtd"
            try:
                catalog.write_matroid(t.dump, path, name=f"{args.lemma}_cx")
                rows[-1]["dump"] = path
            except (InputError, OSError):
                pass
    if args.json:
        print(json.dumps({"lemma": args.lemma, "passed": good, "total": total, "trials": rows}))
    else:
        for row in rows:
            dump = f" dump={row['dump']}" if "dump" in row else ""
            print(f"trial={row['trial']} pass={row['pass']} {row['detail']}{dump}")
        print(f"lemma={args.lemma} passed={good}/{total}")
    return OK if result.passed else FAIL


def _arg(*names: str, **kw) -> tuple:
    """One argument of a command: the names and keywords of add_argument."""
    return names, kw


def _verify_args() -> tuple:
    """verify's arguments; harness.SUITES is read only when they are."""
    from . import harness

    return (_arg("lemma", choices=sorted(harness.SUITES)),
            _arg("--trials", type=_at_least(1), default=30), _arg("--seed", type=int, default=0))


# name: (help, arguments, or a function returning them).  Every command also
# takes --json, and command <name> runs cmd_<name>, looked up on every call,
# so a handler replaced on this module is the one that runs.  _match reads
# only the keywords type, default, required, choices, help,
# action="store_true" and nargs="*" (on the last positional).
COMMANDS = {
    "gen": ("emit a catalog matroid as a .mtd file", (
        _arg("family"), _arg("params", nargs="*"), _arg("-o", "--output", required=True),
        _arg("--seed", type=int, default=0))),
    "tau": ("exact a-covering number with certificate", (
        _arg("file"), _arg("--a", type=_at_least(0), required=True))),
    "tauw": ("exact minimum d-weight of a cover", (
        _arg("file"), _arg("--d", type=int, required=True))),
    "conn": ("local connectivity and skewness of two sets", (
        _arg("file"), _arg("--x", required=True, help="comma separated element list"),
        _arg("--y", required=True))),
    "round": ("weak roundness check / extraction", (
        _arg("file"), _arg("--extract", action="store_true"),
        _arg("--a", type=_at_least(0), default=1), _arg("--q", type=int, default=2),
        _arg("--alpha", type=_rational, default="1", help="exact rational like 7/32"))),
    "rep": ("GF(q)-representability verdict", (
        _arg("file"), _arg("--q", type=_field_order, required=True))),
    "pg": ("projective geometry recognition", (
        _arg("file"), _arg("--n", type=int, required=True),
        _arg("--q", type=_field_order, required=True))),
    "stack": ("verify or find stack certificates", (
        _arg("action", choices=["verify", "find"]), _arg("file"),
        _arg("--q", type=_field_order, required=True), _arg("--h", type=int, default=1),
        _arg("--t", type=int, required=True),
        _arg("--parts", help="pipe separated element lists: 0,1|2,3"))),
    "cover": ("constructive bounded cover", (
        _arg("mode", choices=["thm4"]), _arg("file"),
        _arg("--a", type=int, required=True), _arg("--b", type=int, required=True))),
    "verify": ("run a lemma property suite", _verify_args),
}
_JSON = _arg("--json", action="store_true", help="machine-readable output")


def _arguments(name: str) -> tuple:
    """Command `name`'s arguments, --json included."""
    args = COMMANDS[name][1]
    return (args() if callable(args) else args) + (_JSON,)


def _dest(names: tuple) -> str:
    """The attribute argparse stores an argument under."""
    if names[0][0] != "-":
        return names[0]
    return next((n for n in names if n[:2] == "--"), names[0]).lstrip("-").replace("-", "_")


def _match(argv: list[str]) -> argparse.Namespace | None:
    """The namespace build_parser() makes of argv, read straight from COMMANDS
    if argv is plainly spelled: a known command, each option once by its
    exact name, no value or positional starting with '-', and a nargs="*"
    positional in one unbroken run.  Anything else (help, refusals, other
    spellings) gives None, and the full parser reads it."""
    if not argv or argv[0] not in COMMANDS:
        return None
    spec = [(_dest(names), names, kw) for names, kw in _arguments(argv[0])]
    options = {n: (dest, kw) for dest, names, kw in spec for n in names if n[0] == "-"}
    positionals = [(dest, kw) for dest, names, kw in spec if names[0][0] != "-"]
    star = bool(positionals) and positionals[-1][1].get("nargs") == "*"

    def value(kw, text):
        v = kw.get("type", str)(text)
        if v not in kw.get("choices", (v,)):
            raise ValueError(v)
        return v

    got, pos, tokens = {}, [], iter(argv[1:])
    try:
        for tok in tokens:
            if tok[:1] != "-":
                pos.append((len(got), tok))  # and how many options come before it
                continue
            dest, kw = options.get(tok, (None, None))
            if kw is None or dest in got:
                return None
            if kw.get("action") == "store_true":
                got[dest] = True
                continue
            text = next(tokens, "-")
            if text[:1] == "-":
                return None
            got[dest] = value(kw, text)
        fixed, texts = len(positionals) - star, [tok for _, tok in pos]
        if len(pos) < fixed or len(pos) > fixed and not star or star and len(dict(pos)) > 1:
            return None  # too few or too many, or a nargs="*" run split by an option
        got.update((dest, value(kw, text)) for (dest, kw), text in zip(positionals, texts[:fixed]))
        if star:
            got[positionals[-1][0]] = [value(positionals[-1][1], t) for t in texts[fixed:]]
        for dest, names, kw in spec:
            if dest not in got:
                if kw.get("required"):
                    return None
                default = kw.get("default", False if kw.get("action") else None)
                got[dest] = kw.get("type", str)(default) if isinstance(default, str) else default
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return argparse.Namespace(**got, func=globals()[f"cmd_{argv[0]}"])


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command: it reads what _match leaves, such as
    help, refusals and unusual spellings, and prints argparse's own text."""
    ap = argparse.ArgumentParser(prog="mdl", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for names, kw in _arguments(name):
            p.add_argument(*names, **kw)
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _match(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except (CapExceeded, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:  # a bug, which must not read as a verdict
        print(f"internal error: {exc!r}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
