"""Command-line surface.

Exit codes: 0 success, 1 usage or input error, 2 mathematical check
failed, 3 resource limit hit, 141 stdout closed by its reader.  Cone
arguments are file paths or `builtin:<name>` for the embedded fixtures.
Vector output order is stable: the input generators in file order first
(deduplicated), then any remaining Hilbert basis elements
lexicographically.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import fixtures
from .cone import Cone, NotFullDimensionalError, NotPointedError
from .conefile import ConeFile, ConeFileError, parse_cone_file
from .exactmath import InvalidCharacteristic, Vec, primitive
from .iso import find_isomorphism
from .nash import blowup_step
from .search import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_NODES,
    TERMINATION_NODES,
    GraphCheckError,
    GraphFormatError,
    SearchReport,
    explore,
    load_graph,
    save_graph,
)
from .semigroup import (
    AffineSemigroup,
    NotFullLatticeError,
    NotSaturatedError,
    ResourceLimitError,
)
from .verify import run_all_checks, run_lineage_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141  # what a shell reports for a process killed by SIGPIPE


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_cone_source(arg: str) -> ConeFile:
    if arg.startswith("builtin:"):
        name = arg.split(":", 1)[1]
        try:
            return fixtures.BUILTIN_CONES[name]
        except KeyError:
            known = ", ".join(sorted(fixtures.BUILTIN_CONES))
            raise CliError(f"unknown builtin cone {name!r} (known: {known})")
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            return parse_cone_file(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {arg}: {exc}")
    except ConeFileError as exc:
        raise CliError(f"{arg}: {exc}")
    except ResourceLimitError as exc:
        raise CliError(f"{arg}: {exc}", EXIT_RESOURCE)


def _display_order(file_gens: Sequence[Vec], hilbert: Sequence[Vec]) -> list[Vec]:
    """File-order generators that made the Hilbert basis, then the rest."""
    out: list[Vec] = []
    hil = set(hilbert)
    for g in file_gens:
        g = primitive(g)
        if g in hil and g not in out:
            out.append(g)
    for v in sorted(hil):
        if v not in out:
            out.append(v)
    return out


def _semigroup_from(cf: ConeFile) -> tuple[AffineSemigroup, list[Vec]]:
    cone = Cone(cf.generators, cf.dim)
    if not cone.is_pointed:
        raise CliError("cone is not pointed", EXIT_MATH)
    s = AffineSemigroup.from_cone(cone)
    return s, _display_order(cf.generators, s.hilbert_basis())


def _resolve_char(args, cf: ConeFile) -> int:
    if args.char is not None:
        return args.char
    if cf.characteristic is not None:
        return cf.characteristic
    return 0


def _fmt(v: Vec) -> str:
    return " ".join(str(x) for x in v)


def cmd_hilbert(args) -> int:
    cf = _load_cone_source(args.cone)
    _, order = _semigroup_from(cf)
    for v in order:
        print(_fmt(v))
    return EXIT_OK


def cmd_blowup(args) -> int:
    cf = _load_cone_source(args.cone)
    s, order = _semigroup_from(cf)
    p = _resolve_char(args, cf)
    index = {v: i + 1 for i, v in enumerate(order)}
    charts = blowup_step(s, p, normalized=args.normalized)
    for ch in charts:
        subset = "{" + ",".join(str(i) for i in sorted(index[v] for v in ch.subset)) + "}"
        print(f"chart {subset} det {ch.det_value} pointed {'yes' if ch.pointed else 'no'}")
        for g in ch.generators:
            print(f"  g {_fmt(g)}")
        if ch.normalized_chart is not None:
            for v in ch.normalized_chart.hilbert_basis():
                print(f"  saturated {_fmt(v)}")
    return EXIT_OK


def _parse_cycles(raw: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(tok) for tok in raw.split(",") if tok)
    except ValueError:
        raise CliError(f"bad cycle list {raw!r}")
    if not ks or any(k < 1 for k in ks):
        raise CliError(f"bad cycle list {raw!r}")
    return ks


def _render_report(report: SearchReport, wanted: Sequence[int]) -> None:
    print(f"start {report.start_key}")
    print(f"nodes {report.nodes_explored}")
    print(f"edges {len(report.edges)}")
    print(f"termination {report.termination}")
    for key in sorted(report.nodes):
        n = report.nodes[key]
        print(f"node {key} depth {n.depth} smooth {'yes' if n.smooth else 'no'}")
    lengths = report.cycle_lengths_found()
    for k in wanted:
        if k in lengths:
            print(f"cycle length {k}: found")
        else:
            print(f"cycle length {k}: none")
    for cyc in report.cycles:
        print(f"cycle {cyc.length} via {' '.join(cyc.node_keys)}")


def _check_writable(path: str) -> None:
    """Refuse a save path whose directory is missing or not writable."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise CliError(f"cannot write {path}: no directory {folder}")
    if not os.access(folder, os.W_OK):
        raise CliError(f"cannot write {path}: directory {folder} is not writable")


def _load_state(args) -> SearchReport:
    """The graph file to resume; it fixes the start, the characteristic and the
    mode, so a cone argument, or a --char or --[no-]normalized that differs
    from its meta record, is refused."""
    if args.cone:
        raise CliError("a cone argument cannot be given with --load")
    try:
        state = load_graph(args.load)
    except OSError as exc:
        raise CliError(f"cannot read {args.load}: {exc}")
    except GraphFormatError as exc:
        raise CliError(f"{args.load}: {exc}")
    if args.char is not None and args.char != state.characteristic:
        raise CliError(f"--char {args.char} differs from {args.load}, which has characteristic "
                       f"{state.characteristic}")
    if args.normalized is not None and args.normalized != state.normalized:
        given = "--normalized" if args.normalized else "--no-normalized"
        mode = "normalized" if state.normalized else "not normalized"
        raise CliError(f"{given} differs from {args.load}, which was searched {mode}")
    return state


def cmd_search(args) -> int:
    wanted = _parse_cycles(args.cycles)
    if args.max_depth < 1 or args.max_nodes < 1:
        raise CliError("limits must be positive")

    state = None
    if args.load:
        state = _load_state(args)
        p = state.characteristic
        normalized = state.normalized
        start = state.nodes[state.start_key].semigroup
    else:
        if not args.cone:
            raise CliError("a cone argument is required unless --load is given")
        cf = _load_cone_source(args.cone)
        start, _ = _semigroup_from(cf)
        p = _resolve_char(args, cf)
        normalized = args.normalized is not False  # on unless --no-normalized
    if args.save:
        _check_writable(args.save)

    try:
        report = explore(
            start,
            p,
            max_depth=args.max_depth,
            max_nodes=args.max_nodes,
            cycle_lengths=wanted,
            normalized=normalized,
            halt_on_cycle=args.halt_on_cycle,
            state=state,
        )
    except GraphCheckError as exc:  # only a loaded state is checked
        raise CliError(f"{args.load}: {exc}", EXIT_MATH)
    if args.save:
        try:
            save_graph(report, args.save)
        except OSError as exc:
            raise CliError(f"cannot write {args.save}: {exc}")
    _render_report(report, wanted)
    if report.termination == TERMINATION_NODES:
        return EXIT_RESOURCE
    return EXIT_OK


def cmd_iso(args) -> int:
    sa, _ = _semigroup_from(_load_cone_source(args.cone_a))
    sb, _ = _semigroup_from(_load_cone_source(args.cone_b))
    cert = find_isomorphism(sa, sb)
    if cert is None:
        print("not equivalent")
        return EXIT_OK
    print("equivalent")
    for row in zip(*cert.matrix):
        print(_fmt(tuple(row)))
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    ledger = run_all_checks(p=args.char if args.char is not None else 3)
    if args.include_lineage:
        ledger.checks.append(run_lineage_check())
    print(ledger.render(machine=args.machine))
    return EXIT_OK if ledger.passed else EXIT_MATH


def build_parser() -> _Parser:
    parser = _Parser(
        prog="toricnash",
        description=(
            "Exact Nash blowup charts, Hilbert bases, and loop search for "
            "pointed affine toric varieties."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_char(p):
        p.add_argument(
            "--char",
            type=int,
            default=None,
            help="field characteristic (0 or a prime below 2^31; default: cone file value or 0)",
        )

    p_h = sub.add_parser("hilbert", help="Hilbert basis of a pointed cone")
    p_h.add_argument("cone", help="cone file path or builtin:<name>")
    p_h.set_defaults(fn=cmd_hilbert)

    p_b = sub.add_parser("blowup", help="one Nash blowup step: all charts")
    p_b.add_argument("cone")
    add_char(p_b)
    p_b.add_argument(
        "--normalized",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="also saturate each pointed chart (default on)",
    )
    p_b.set_defaults(fn=cmd_blowup)

    p_s = sub.add_parser("search", help="breadth-first loop search over blowup charts")
    p_s.add_argument("cone", nargs="?", default=None)
    add_char(p_s)
    p_s.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    p_s.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p_s.add_argument("--cycles", default="1", help="comma-separated cycle lengths to report")
    p_s.add_argument(
        "--normalized",
        action=argparse.BooleanOptionalAction,
        default=None,  # None: on for a fresh run, the file's mode with --load
        help="search normalized (saturated) charts (default on)",
    )
    p_s.add_argument("--halt-on-cycle", action="store_true", help="stop once a wanted cycle exists")
    p_s.add_argument("--save", default=None, help="write the explored graph to a file")
    p_s.add_argument("--load", default=None, help="resume from a saved graph file")
    p_s.set_defaults(fn=cmd_search)

    p_i = sub.add_parser("iso", help="test two cones' semigroups for unimodular equivalence")
    p_i.add_argument("cone_a")
    p_i.add_argument("cone_b")
    p_i.set_defaults(fn=cmd_iso)

    p_v = sub.add_parser("verify-paper", help="machine-check the embedded loop example")
    add_char(p_v)
    p_v.add_argument("--machine", action="store_true", help="machine-readable ledger")
    p_v.add_argument(
        "--include-lineage",
        action="store_true",
        help="also run the long depth-5 ancestry search (slow)",
    )
    p_v.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except CliError as exc:
        print(f"toricnash: {exc}", file=sys.stderr)
        return exc.code
    except (ConeFileError, InvalidCharacteristic, NotFullLatticeError, NotSaturatedError) as exc:
        print(f"toricnash: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotPointedError, NotFullDimensionalError) as exc:
        print(f"toricnash: {exc}", file=sys.stderr)
        return EXIT_MATH
    except ResourceLimitError as exc:
        print(f"toricnash: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
