"""Command-line front end: validate, pages, diff, compare, homology, example, random.

Exit codes: 0 success, 1 mathematical failure (an invalid multicomplex,
which the engines refuse, reported on stderr as the `violation:` lines
`validate` prints; a failing comparison; or an engine consistency error,
reported as one `error:` line), 2 MCX parse error, 3 usage error, 141
(128 + SIGPIPE) when standard output is closed before the command has
written everything, with nothing on stderr.
Identical invocations produce byte-identical output; tables are sorted
by (r, p, q).  The text of `pages` comes straight off the page walk
that `compare` checks, and only its JSON goes through a document.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import builders, filtered, mcxio
from .linalg import InclusionError
from .multicomplex import Multicomplex, RelationError, rebase
from .pages import SpectralPages, WellDefinednessError
from .rings import ZZ, Ring, parse_ring
from .total import totalize

EXIT_OK = 0
EXIT_MATH = 1
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_PIPE = 128 + 13  # what a shell reports for a process killed by SIGPIPE


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _page_index(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a page index >= 0, got {text!r}")
    return int(text)


def _read_input(path: str) -> str:
    """FILE, or stdin for '-', as strict UTF-8: a bad byte is a parse error on its line."""
    if path != "-":
        data = Path(path).read_bytes()
    elif hasattr(sys.stdin, "buffer"):
        data = sys.stdin.buffer.read()
    else:  # an in-process caller's text stream
        data = sys.stdin.read().encode("utf-8", "surrogatepass")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise mcxio.MCXParseError(line, f"invalid UTF-8 byte 0x{data[exc.start]:02x}") from None


def _write_output(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(args) -> Multicomplex:
    c = mcxio.parse(_read_input(args.file))
    if args.ring:
        try:
            ring = parse_ring(args.ring)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        try:
            c = rebase(c, ring)
        except ValueError as exc:
            raise UsageError(f"cannot rebase: {exc}") from None
    return c


def group_str(ring: Ring, invariants) -> str:
    if not invariants:
        return "0"
    if ring.is_field:
        return f"{ring.symbol}^{len(invariants)}"
    torsion = [d for d in invariants if d]
    parts = [f"Z/{d}" for d in torsion]
    free = len(invariants) - len(torsion)
    if free:
        parts.append(f"Z^{free}")
    return " ⊕ ".join(parts)


def _matrix_strs(ring, rows):
    """Delta entries as text: the rows already hold canonical scalars."""
    return [[ring.format_scalar(v) for v in row] for row in rows]


def _matrix_text(strs):
    """Formatted entries as [a b; c d], or [] when there are none."""
    if not strs or not strs[0]:
        return "[]"
    return "[" + "; ".join(map(" ".join, strs)) + "]"


def _diff_record(ring, d):
    return {"p": d.p, "q": d.q, "target_p": d.target[0], "target_q": d.target[1],
            "matrix": _matrix_strs(ring, d.rows)}


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    c = _load(args)
    violations = c.validate()
    if not violations:
        print("OK")
        return EXIT_OK
    for v in violations:
        print(f"violation: {v}")
    return EXIT_MATH


def _pages_doc(c: Multicomplex, sp: SpectralPages, max_r: int):
    pages = {}
    diffs = {}
    for r, page in enumerate(sp.pages(max_r)):
        table = {}
        for (p, q), inv in page.invariants_table().items():
            table.setdefault(str(p), {})[str(q)] = {"invariants": list(inv)}
        pages[str(r)] = table
        diffs[str(r)] = [_diff_record(c.ring, d)
                         for _, d in sorted(page.deltas.items()) if not d.is_zero()]
    return {"ring": str(c.ring), "pages": pages, "differentials": diffs}


def cmd_pages(args) -> int:
    c = _load(args)
    sp = SpectralPages(c)
    max_r = args.max_r if args.max_r is not None else sp.stabilization_bound()
    if args.json:
        print(json.dumps(_pages_doc(c, sp, max_r), indent=2))
        return EXIT_OK
    # The text comes straight off the pages: cells in support order, which
    # is sorted, and each invariants tuple's group string made once.
    ring, cells = c.ring, c.support
    groups = {}
    lines = [f"ring {ring}"]
    for r, page in enumerate(sp.pages(max_r)):
        lines.append(f"E_{r}:")
        start = len(lines)
        for (p, q) in cells:
            inv = page.entries[(p, q)].invariants
            if inv:
                g = groups.get(inv) or groups.setdefault(inv, group_str(ring, inv))
                lines.append(f"  ({p},{q}): {g}")
        if len(lines) == start:
            lines.append("  (empty)")
        dl = [d for d in page.deltas.values() if not d.is_zero()]
        if dl:
            lines.append(f"Delta_{r}:")
            for d in dl:
                lines.append(f"  ({d.p},{d.q}) -> ({d.target[0]},{d.target[1]}): "
                             f"{_matrix_text(_matrix_strs(ring, d.rows))}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_diff(args) -> int:
    c = _load(args)
    sp = SpectralPages(c)
    r, p, q = args.r, args.p, args.q
    d = sp.delta(r, p, q)
    if args.json:
        doc = {"ring": str(c.ring), "differentials": {str(r): [_diff_record(c.ring, d)]}}
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    print(f"ring {c.ring}")
    print(f"Delta_{r} at ({p},{q}) -> ({d.target[0]},{d.target[1]})")
    print(f"source E_{r}({p},{q}): {group_str(c.ring, d.source_invariants)}")
    print(f"target E_{r}({d.target[0]},{d.target[1]}): {group_str(c.ring, d.target_invariants)}")
    print(f"matrix: {_matrix_text(_matrix_strs(c.ring, d.rows))}")
    return EXIT_OK


def cmd_compare(args) -> int:
    c = _load(args)
    report = filtered.compare(c, max_r=args.max_r)
    doc = {
        "ring": str(c.ring),
        "compare": {
            "max_r": report.max_r,
            "cells": report.cells_checked,
            "failures": [
                {"r": f.r, "p": f.p, "q": f.q, "kind": f.kind, "detail": f.detail}
                for f in report.failures
            ],
        },
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"ring {c.ring}")
        print(f"checked {report.cells_checked} cells for r <= {report.max_r}")
        for f in report.failures:
            print(f"FAIL: {f}")
        print("OK" if report.ok else f"{len(report.failures)} failing cells")
    return EXIT_OK if report.ok else EXIT_MATH


def cmd_homology(args) -> int:
    c = _load(args)
    t = totalize(c)
    groups = filtered.homology(t)
    degrees = list(groups)
    if args.json:
        doc = {
            "ring": str(c.ring),
            "homology": {str(n): {"invariants": list(groups[n].invariants)} for n in degrees},
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    print(f"ring {c.ring}")
    for n in degrees:
        print(f"H_{n}: {group_str(c.ring, groups[n].invariants)}")
    return EXIT_OK


def cmd_example(args) -> int:
    try:
        ring = parse_ring(args.ring) if args.ring else ZZ
        if args.name == "staircase":
            if args.len is None:
                raise UsageError("staircase needs --len")
            c = builders.staircase(args.len, ring)
        elif args.name == "hurtubise":
            if args.n is None:
                raise UsageError("hurtubise needs --n {1..4}")
            if args.n == 2 and args.len is None:
                raise UsageError("hurtubise --n 2 needs --len")
            c = builders.hurtubise(args.n, ring, length=args.len)
        else:  # wall: argparse's choices admit no other name
            if None in (args.r, args.s, args.t):
                raise UsageError("wall needs --r --s --t (and optional --amax)")
            c = builders.wall(builders.WallParams(args.r, args.s, args.t, args.amax))
            if ring != ZZ:
                c = rebase(c, ring)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_output(args.output, mcxio.emit(c))
    return EXIT_OK


def cmd_random(args) -> int:
    try:
        ring = parse_ring(args.ring) if args.ring else ZZ
        spec = builders.RandomSpec(
            seed=args.seed,
            width=args.width,
            height=args.height,
            maxrank=args.maxrank,
            maxd=args.maxd,
            ring=ring,
        )
        c = builders.random_mcx(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _write_output(args.output, mcxio.emit(c))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="mcss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("file", help="MCX file, or - for standard input")
        sp.add_argument("--ring", nargs="+", metavar="R",
                        help="rebase entries over Q, Z or F <p>")

    sp = sub.add_parser("validate", help="check the structure-map relations")
    add_input(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("pages", help="print page tables and differentials")
    add_input(sp)
    sp.add_argument("--max-r", type=_page_index, default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_pages)

    sp = sub.add_parser("diff", help="print one page differential")
    add_input(sp)
    sp.add_argument("-r", type=_page_index, required=True)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-q", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_diff)

    sp = sub.add_parser("compare", help="cross-check against the filtered-complex route")
    add_input(sp)
    sp.add_argument("--max-r", type=_page_index, default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("homology", help="homology of the total complex")
    add_input(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_homology)

    sp = sub.add_parser("example", help="emit a built-in example as MCX")
    sp.add_argument("name", choices=["staircase", "hurtubise", "wall"])
    sp.add_argument("--len", type=int, default=None, help="staircase length")
    sp.add_argument("--n", type=int, default=None, help="hurtubise example number")
    sp.add_argument("--r", type=int, default=None, help="wall: order of the normal subgroup")
    sp.add_argument("--s", type=int, default=None, help="wall: order of the quotient")
    sp.add_argument("--t", type=int, default=None, help="wall: twist")
    sp.add_argument("--amax", type=int, default=8, help="wall: window bound (even)")
    sp.add_argument("--ring", nargs="+", metavar="R")
    sp.add_argument("-o", "--output", default="-")
    sp.set_defaults(func=cmd_example)

    sp = sub.add_parser("random", help="emit a seeded random multicomplex as MCX")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--width", type=int, default=4)
    sp.add_argument("--height", type=int, default=4)
    sp.add_argument("--maxrank", type=int, default=2)
    sp.add_argument("--maxd", type=int, default=2)
    sp.add_argument("--ring", nargs="+", metavar="R")
    sp.add_argument("-o", "--output", default="-")
    sp.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        # Flush here, so that a reader that has gone away is reported
        # below and not by the interpreter at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_PIPE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except mcxio.MCXParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RelationError as exc:
        for v in exc.violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_MATH
    except (WellDefinednessError, InclusionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _discard_stdout() -> None:
    """Point a closed stdout's descriptor at the null device.

    The interpreter flushes stdout at exit, and output still buffered
    would raise BrokenPipeError there again (the Python documentation's
    "Note on SIGPIPE" recommends this redirection).  A stdout with no
    descriptor (an in-process caller's buffer) is left alone.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
