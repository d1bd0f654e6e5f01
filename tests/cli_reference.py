"""The `mdl` parser as it was written before the command table: one
hand-written `add_parser` block per command.  Kept as the reference that
tests/test_cli_parser.py compares the table-built parser with, byte for
byte, on help, usage and error text.  The only edit to the copy: the
description is read as `cli.__doc__`, the docstring of the module the
parser belongs to."""

import argparse

from mdl import cli, harness
from mdl.cli import (_at_least, _field_order, _rational, cmd_conn, cmd_cover,
                     cmd_gen, cmd_pg, cmd_rep, cmd_round, cmd_stack, cmd_tau, cmd_tauw,
                     cmd_verify)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mdl", description=cli.__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("gen", help="emit a catalog matroid as a .mtd file")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    add_json(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("tau", help="exact a-covering number with certificate")
    p.add_argument("file")
    p.add_argument("--a", type=_at_least(0), required=True)
    add_json(p)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("tauw", help="exact minimum d-weight of a cover")
    p.add_argument("file")
    p.add_argument("--d", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_tauw)

    p = sub.add_parser("conn", help="local connectivity and skewness of two sets")
    p.add_argument("file")
    p.add_argument("--x", required=True, help="comma separated element list")
    p.add_argument("--y", required=True)
    add_json(p)
    p.set_defaults(func=cmd_conn)

    p = sub.add_parser("round", help="weak roundness check / extraction")
    p.add_argument("file")
    p.add_argument("--extract", action="store_true")
    p.add_argument("--a", type=_at_least(0), default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--alpha", type=_rational, default="1", help="exact rational like 7/32")
    add_json(p)
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("rep", help="GF(q)-representability verdict")
    p.add_argument("file")
    p.add_argument("--q", type=_field_order, required=True)
    add_json(p)
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("pg", help="projective geometry recognition")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_field_order, required=True)
    add_json(p)
    p.set_defaults(func=cmd_pg)

    p = sub.add_parser("stack", help="verify or find stack certificates")
    p.add_argument("action", choices=["verify", "find"])
    p.add_argument("file")
    p.add_argument("--q", type=_field_order, required=True)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--parts", help="pipe separated element lists: 0,1|2,3")
    add_json(p)
    p.set_defaults(func=cmd_stack)

    p = sub.add_parser("cover", help="constructive bounded cover")
    p.add_argument("mode", choices=["thm4"])
    p.add_argument("file")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("verify", help="run a lemma property suite")
    p.add_argument("lemma", choices=sorted(harness.SUITES))
    p.add_argument("--trials", type=_at_least(1), default=30)
    p.add_argument("--seed", type=int, default=0)
    add_json(p)
    p.set_defaults(func=cmd_verify)

    return ap
