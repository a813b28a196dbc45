"""Command-line front end: gen, verify, fuzz, render.

Exit codes: 0 success, 1 verification failure, 2 degenerate seed or exhausted
retry budget, 3 I/O or format error.  Nothing else.
A command failure is raised, and ``main`` alone prints its stderr line and returns its code.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from typing import Optional

from .configuration import DegenerateSeedError, WoodDesarguesConfiguration, build_configuration
from .fuzz import FuzzPolicy, RetryBudgetExhausted, run_campaign
from .render import LAYERS, RenderStyle, UnrenderableError, render_svg
from .serialize import (
    FormatError,
    configuration_from_document,
    configuration_to_document,
    dumps,
    loads,
    parse_seed_text,
    report_to_document,
)
from .verifier import verify_all

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_DEGENERATE = 2
EXIT_FORMAT = 3


class _Failure(Exception):
    """A command that cannot finish: its exit code, and the line ``main`` prints on stderr."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _write_output(text: str, path: Optional[str], what: str) -> None:
    """Write text to path (stdout for None or "-")."""
    try:
        if path is None or path == "-":
            sys.stdout.write(text)
        else:
            # overwrite, then cut a regular file to length: ext4 flushes a file cut to zero on close
            with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
                fh.write(text.encode("utf-8"))
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()
    except OSError as exc:
        raise _Failure(EXIT_FORMAT, f"cannot write {what}: {exc}") from None


def _load_document(path: str) -> WoodDesarguesConfiguration:
    """The configuration in the document at path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return configuration_from_document(loads(fh.read()))
    except (OSError, UnicodeDecodeError, FormatError) as exc:
        raise _Failure(EXIT_FORMAT, f"cannot load document: {exc}") from None


def cmd_gen(args) -> int:
    try:
        seed = parse_seed_text(args.seed)
    except FormatError as exc:
        raise _Failure(EXIT_FORMAT, f"seed parse error: {exc}") from None
    try:
        config = build_configuration(seed)
    except DegenerateSeedError as exc:
        raise _Failure(EXIT_DEGENERATE, f"degenerate seed: {exc.reason}") from None
    _write_output(dumps(configuration_to_document(config)), args.output, "output")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify_all(_load_document(args.document))
    _write_output(dumps(report_to_document(report)), args.report, "report")
    failed = report.failed
    for result in failed:
        print(f"FAIL {result.name}: {result.witnesses[0][0]}", file=sys.stderr)
    return EXIT_VERIFICATION_FAILED if failed else EXIT_OK


def cmd_fuzz(args) -> int:
    try:
        policy = FuzzPolicy(count=args.count, rng_seed=args.rng_seed,
                            max_magnitude=args.max_num, max_retries=args.max_retries)
    except ValueError as exc:
        raise _Failure(EXIT_FORMAT, f"bad policy: {exc}") from None
    try:
        outcome = run_campaign(policy)
    except RetryBudgetExhausted as exc:
        raise _Failure(EXIT_DEGENERATE, f"retry budget exhausted at index {exc.index}; "
                                        f"last rejection reasons: {exc.reasons[-5:]}") from None
    _write_output(dumps(outcome.to_document()), args.output, "report")
    return EXIT_OK if outcome.fail_count == 0 else EXIT_VERIFICATION_FAILED


def cmd_render(args) -> int:
    config = _load_document(args.document)
    if args.layers is None:
        layers = LAYERS
    else:
        layers = tuple(part.strip() for part in args.layers.split(",") if part.strip())
    try:
        style = RenderStyle(layers=layers, size=args.size, margin=args.margin)
    except ValueError as exc:
        raise _Failure(EXIT_FORMAT, f"bad style: {exc}") from None
    try:
        svg = render_svg(config, style)
    except UnrenderableError as exc:
        raise _Failure(EXIT_FORMAT, f"cannot render: {exc}") from None
    _write_output(svg, args.output, "output")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones.

    Parsing keeps no state between calls: each returns a fresh namespace, and
    help and usage text go to the ``sys.stdout``/``sys.stderr`` of the moment.
    """
    parser = argparse.ArgumentParser(
        prog="wooddesargues",
        description="Build, verify, fuzz and render ten-point Wood-Desargues configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="build a configuration document from a seed")
    p_gen.add_argument("--seed", required=True,
                       help='e.g. "tJ=0,tK=1,tA=-1,tB=2,tC=3,s=-3/2"')
    p_gen.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="verify a configuration document")
    p_verify.add_argument("document")
    p_verify.add_argument("--report", default=None, help="report file (default stdout)")
    p_verify.set_defaults(func=cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="run a deterministic verification campaign")
    p_fuzz.add_argument("--count", type=int, required=True)
    p_fuzz.add_argument("--rng-seed", type=int, required=True)
    p_fuzz.add_argument("--max-num", type=int, required=True,
                        help="magnitude bound N: numerators in [-N, N], denominators in [1, N]")
    p_fuzz.add_argument("--max-retries", type=int, default=1000)
    p_fuzz.add_argument("-o", "--output", default=None, help="campaign report file (default stdout)")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_render = sub.add_parser("render", help="render a configuration document to SVG")
    p_render.add_argument("document")
    p_render.add_argument("-o", "--output", required=True)
    p_render.add_argument("--layers", default=None,
                          help=f"comma list from {{{','.join(LAYERS)}}} (default all)")
    p_render.add_argument("--size", type=int, default=800)
    p_render.add_argument("--margin", type=float, default=0.05)
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse reserves 2 for usage errors; in this contract 2 means a
        # degenerate seed, so usage problems map onto the format-error code
        return EXIT_OK if exc.code == 0 else EXIT_FORMAT
    try:
        return args.func(args)
    except _Failure as failure:
        print(failure, file=sys.stderr)
        return failure.code


if __name__ == "__main__":
    sys.exit(main())
