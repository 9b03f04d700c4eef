"""Batch command-line front-end.

Exit protocol: 0 for a clean validate / ACHIEVABLE solve, 1 for
NOT-ACHIEVABLE, 2 on any error (one machine-parsable line
``error: <code>: <msg>`` on stderr; budget exhaustion, running out of
memory included, uses code ``budget``).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path

from . import core, generators, semantics, solver, streett


class CliError(Exception):
    def __init__(self, code: str, msg: str):
        super().__init__(msg)
        self.code = code


def _parse_file(path: str, parse):
    """``parse`` of the file's text: an unreadable file is an ``io``
    error, a text that ``parse`` rejects a ``format`` error."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError("io", f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except ValueError as exc:  # FormatError included
        raise CliError("format", f"{path}: {exc}") from exc


def _load_game(path: str):
    return _parse_file(path, streett.parse_cst if Path(path).suffix == ".cst" else core.parse_cpg)


def _write(path: Path, text: str, out) -> None:
    path.write_text(text)
    print(f"wrote {path}", file=out)


def _fmt_cost(value) -> str:
    return "inf" if value == math.inf else str(int(value))


def cmd_validate(args, out) -> int:
    _load_game(args.file)  # the parsers validate: an invalid game ends in a format error
    print("ok", file=out)
    return 0


def cmd_solve(args, out) -> int:
    finite_duration = args.engine == "finite-duration"
    for option, value, applies in (("--budget", args.budget, finite_duration),
                                   ("--product-budget", args.product_budget, not finite_duration),
                                   ("--output", args.output, not finite_duration)):
        if value is not None and not applies:
            raise CliError("usage", f"solve {option} does not apply to --engine {args.engine}")
    game = _load_game(args.file)
    is_streett = isinstance(game, streett.CostStreettGame)
    if finite_duration:
        if is_streett:
            raise CliError("usage", "solve --engine finite-duration applies to .cpg games only")
        budget = solver.DEFAULT_NODE_BUDGET if args.budget is None else args.budget
        fd = solver.decide_bounded_cost_finite_duration(game, args.bound, node_budget=budget)
        if fd.exhausted:
            raise CliError("budget", f"node budget {budget} exhausted")
        print("ACHIEVABLE" if fd.achievable else "NOT-ACHIEVABLE", file=out)
        return 0 if fd.achievable else 1
    budget = solver.DEFAULT_PRODUCT_BUDGET if args.product_budget is None else args.product_budget
    decide = streett.decide_bounded_cost_streett if is_streett else solver.decide_bounded_cost
    res = decide(game, args.bound, product_budget=budget)
    # the certificate's update table has a budget of its own, which it
    # can exceed after the decision: fail before printing anything
    certificate = core.format_strat(res.certificate)
    print("ACHIEVABLE" if res.achievable else "NOT-ACHIEVABLE", file=out)
    target = Path(args.output) if args.output else Path(args.file).with_suffix(".strat")
    _write(target, certificate, out)
    return 0 if res.achievable else 1


def cmd_optimal(args, out) -> int:
    game = _load_game(args.file)
    optimal = (streett.optimal_cost_streett if isinstance(game, streett.CostStreettGame)
               else solver.optimal_cost)
    res = optimal(game, product_budget=args.product_budget)
    if res.cap_hit:
        raise CliError("budget", f"not achievable up to the practical cap {res.searched_up_to}")
    print(f"optimal {_fmt_cost(res.value)}", file=out)
    target = Path(args.output) if args.output else Path(args.file).with_suffix(".strat")
    _write(target, core.format_strat(res.witness), out)
    return 0


def cmd_verify(args, out) -> int:
    game = _load_game(args.file)
    strat = _parse_file(args.strategy, core.parse_strat)
    # a player outside {0, 1} fails the verifiers' well-formedness check
    if isinstance(game, streett.CostStreettGame):
        verify = streett.streett_spoiler_cost if strat.player == 1 else streett.streett_strategy_cost
    else:
        verify = semantics.spoiler_cost if strat.player == 1 else semantics.strategy_cost
    try:
        value = verify(game, strat)
    except ValueError as exc:
        raise CliError("strategy", str(exc)) from exc
    print(f"cost {_fmt_cost(value)}", file=out)
    return 0


_FAMILIES = {
    "qbf": None,
    "p0mem": generators.p0_memory_family,
    "p1mem": generators.p1_memory_family,
    "p1trade": generators.p1_tradeoff_family,
    "bintrade": generators.binary_tradeoff_family,
    "streett": generators.streett_counter_family,
}


def cmd_generate(args, out) -> int:
    if args.family == "qbf":
        if not args.qdimacs:
            raise CliError("usage", "generate qbf requires --qdimacs")
        inst = generators.qbf_to_game(_parse_file(args.qdimacs, generators.parse_qdimacs))
    else:
        try:
            inst = _FAMILIES[args.family](args.d)
        except ValueError as exc:
            raise CliError("usage", str(exc)) from exc
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    base = f"{inst.family}-d{inst.d}"
    created: list[Path] = []  # the files this run adds, removed again if it fails

    def write(name: str, text: str) -> None:
        path = outdir / name
        if not path.exists():
            created.append(path)
        _write(path, text, out)

    try:
        if isinstance(inst.game, streett.CostStreettGame):
            write(f"{base}.cst", streett.format_cst(inst.game))
        else:
            write(f"{base}.cpg", core.format_cpg(inst.game))
        for ref in inst.reference_strategies:
            write(f"{base}.{ref.name}.strat", core.format_strat(ref.strategy))
        write(f"{base}.manifest", inst.manifest())
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        raise
    return 0


def cmd_convert(args, out) -> int:
    if not args.subdivide:
        raise CliError("usage", "convert requires --subdivide")
    game = _load_game(args.file)
    if isinstance(game, streett.CostStreettGame):
        raise CliError("usage", "convert --subdivide applies to .cpg games only")
    converted = core.subdivide_costs(game)
    target = Path(args.output) if args.output else \
        Path(args.file).with_name(Path(args.file).stem + ".unary.cpg")
    _write(target, core.format_cpg(converted), out)
    return 0


def cmd_export(args, out) -> int:
    if not args.dot:
        raise CliError("usage", "export requires --dot")
    game = _load_game(args.file)
    if isinstance(game, streett.CostStreettGame):
        raise CliError("usage", "export --dot applies to .cpg games only")
    text = core.export_dot(game)
    if args.output:
        _write(Path(args.output), text, out)
    else:
        out.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError("usage", message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="costparity",
                 description="parity and Streett games with costs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game file's invariants")
    p.add_argument("file")

    p = sub.add_parser("solve", help="decide bounded-cost strategy existence")
    p.add_argument("--bound", "-b", type=int, required=True)
    p.add_argument("--engine", choices=["explicit", "finite-duration"],
                   default="explicit")
    p.add_argument("--budget", type=int,
                   help="node budget for the finite-duration engine")
    p.add_argument("--product-budget", type=int,
                   help="state budget for the explicit engine")
    p.add_argument("--output", "-o", help="certificate file of the explicit engine")
    p.add_argument("file")

    p = sub.add_parser("optimal", help="compute the optimal strategy cost")
    p.add_argument("--product-budget", type=int,
                   default=solver.DEFAULT_PRODUCT_BUDGET)
    p.add_argument("--output", "-o")
    p.add_argument("file")

    p = sub.add_parser("verify", help="exact cost of a finite-state strategy")
    p.add_argument("--strategy", "-s", required=True)
    p.add_argument("file")

    p = sub.add_parser("generate", help="emit a lower-bound instance family")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--qdimacs", help="formula file for the qbf family")
    p.add_argument("--outdir", default=".")

    p = sub.add_parser("convert", help="re-encode a game")
    p.add_argument("--subdivide", action="store_true",
                   help="unary encoding via edge subdivision")
    p.add_argument("--output", "-o")
    p.add_argument("file")

    p = sub.add_parser("export", help="export to DOT")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--output", "-o")
    p.add_argument("file")

    return ap


_COMMANDS = {
    "validate": cmd_validate,
    "solve": cmd_solve,
    "optimal": cmd_optimal,
    "verify": cmd_verify,
    "generate": cmd_generate,
    "convert": cmd_convert,
    "export": cmd_export,
}


_PARSER: argparse.ArgumentParser | None = None  # built by the first run


def run(argv: list[str], out=None, err=None) -> int:
    global _PARSER
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        try:
            with contextlib.redirect_stdout(out):  # argparse prints --help there
                args = _PARSER.parse_args(argv)
        except SystemExit as exc:  # --help
            return 0 if not exc.code else 2
        return _COMMANDS[args.command](args, out)
    except CliError as exc:
        print(f"error: {exc.code}: {exc}", file=err)
        return 2
    except core.BudgetExceededError as exc:
        print(f"error: budget: {exc}", file=err)
        return 2
    except MemoryError:
        print("error: budget: out of memory", file=err)
        return 2
    except (ValueError, core.FormatError) as exc:
        print(f"error: invalid: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
