"""Reference command-line parser: the argparse parser ``finstack.cli`` built
by hand before it read plain command lines off its command table.

``cli._read_argv`` must return either None or the namespace this parser
returns, and ``cli.build_parser()``, built by a loop over the table, must
print the same help, usage and error text.
"""

from __future__ import annotations

import argparse
import functools

import finstack.cli as cli


@functools.lru_cache(maxsize=None)
def reference_parser() -> argparse.ArgumentParser:
    """The command-line parser as ``finstack.cli`` built it by hand, one
    ``add_argument`` call per option; built once per process."""
    parser = argparse.ArgumentParser(prog="finstack",
                                     description="Finite-model engine for groupoid classifying spaces.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-out", default=None)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="validate a groupoid JSON document", parents=[common])
    p.add_argument("--groupoid", required=True)
    p.set_defaults(run=cli._cmd_validate)

    p = sub.add_parser("nerve", help="build the truncated nerve and count simplices", parents=[common])
    p.add_argument("--groupoid", required=True)
    p.add_argument("--dim", type=cli.nonnegative_int, required=True)
    p.set_defaults(run=cli._cmd_nerve)

    p = sub.add_parser("homology", help="integral homology of the nerve", parents=[common])
    p.add_argument("--groupoid", required=True)
    p.add_argument("--dim", type=cli.nonnegative_int, required=True)
    p.add_argument("--degree", type=cli.nonnegative_int, default=None)
    p.set_defaults(run=cli._cmd_homology)

    p = sub.add_parser("pi1", help="edge-path group and isotropy comparison", parents=[common])
    p.add_argument("--groupoid", required=True)
    p.add_argument("--basepoint", required=True)
    p.set_defaults(run=cli._cmd_pi1)

    p = sub.add_parser("milnor", help="truncated join model and its quotient", parents=[common])
    p.add_argument("--groupoid", required=True)
    p.add_argument("--levels", type=cli.nonnegative_int, required=True)
    p.add_argument("--space", choices=["E", "B"], required=True)
    p.add_argument("--homology", type=cli.nonnegative_int, default=None)
    p.add_argument("--compare-nerve", action="store_true", dest="compare_nerve")
    p.set_defaults(run=cli._cmd_milnor)

    p = sub.add_parser("torsor", help="descent data operations", parents=[common])
    p.add_argument("mode", choices=["validate", "build", "roundtrip", "compare"])
    p.add_argument("--groupoid", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--cocycle2", default=None)
    p.set_defaults(run=cli._cmd_torsor)

    p = sub.add_parser("localize", help="span-calculus localized hom-sets", parents=[common])
    p.add_argument("--cat", required=True)
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--zigzag", action="store_true")
    p.set_defaults(run=cli._cmd_localize)

    p = sub.add_parser("kan", help="relative right Kan extension with adjunction check", parents=[common])
    p.add_argument("--base", required=True)
    p.add_argument("--fibers", required=True)
    p.add_argument("--along", required=True)
    p.add_argument("--lift", required=True)
    p.set_defaults(run=cli._cmd_kan)

    p = sub.add_parser("diagram-special", help="base extend a cover across a diagram", parents=[common])
    p.add_argument("--diagram", required=True)
    p.add_argument("--cover", required=True)
    p.set_defaults(run=cli._cmd_diagram_special)

    p = sub.add_parser("morita-check", help="weak equivalence and homology agreement", parents=[common])
    p.add_argument("--functor", required=True)
    p.add_argument("--dim", type=cli.nonnegative_int, default=3)
    p.set_defaults(run=cli._cmd_morita)

    return parser

