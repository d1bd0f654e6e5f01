"""Command line front end.

Exit codes: 0 success / property holds, 1 verdict negative or property
violated (counterexamples are dumped as replayable .mtd files), 2 usage,
cap or refused-input errors (InputError: a bad argument, file or
premise), 3 internal error (any other exception, a plain ValueError
included; never a verdict).  `mdl verify` exits 1 when a trial fails,
also when its check refused a premise or failed its own
re-verification; a cap hit during a trial exits 2.  Every subcommand
takes --json for a machine-readable mirror of the same content.

`mdl <command> ...` builds that command's parser alone (and every one only
to report what it rejects) and imports only the modules that command
runs; a bare `mdl`, `-h`/`--help` or an unknown command builds them all.
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
    """verify's arguments; harness.SUITES is read only when its parser is built."""
    from . import harness

    return (_arg("lemma", choices=sorted(harness.SUITES)),
            _arg("--trials", type=_at_least(1), default=30), _arg("--seed", type=int, default=0))


# name: (help, arguments, or a function returning them).  Every command also
# takes --json, and command <name> runs cmd_<name>, looked up when the parser
# is built, so a handler replaced on this module is the one that runs.
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


class _CommandParser(argparse.ArgumentParser):
    """One command's parser, given the whole argv; the full parser, whose
    subparsers are built as this one is, reports what it rejects."""

    class Rejected(Exception):
        """A refusal, which the full parser reports."""

    def error(self, message):
        raise self.Rejected

    def parse_args(self, argv):
        try:
            return super().parse_args(argv[1:])
        except self.Rejected:
            return build_parser().parse_args(argv)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or a _CommandParser of command `only`."""
    if only:
        ap = _CommandParser(prog=f"mdl {only}")
    else:
        ap = argparse.ArgumentParser(prog="mdl", description=__doc__)
        sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, args) in COMMANDS.items():
        if only in (None, name):
            p = ap if only else sub.add_parser(name, help=help_)
            for names, kw in (args() if callable(args) else args) + (_JSON,):
                p.add_argument(*names, **kw)
            p.set_defaults(func=globals()[f"cmd_{name}"])
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
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
