"""The functions of ``src/costparity`` that production never calls.

It traces, with ``sys.setprofile``, the import of the package, one round
of each benchmark workload, set-up included (``perfbench/workloads.py``,
loaded by ``bench_workloads.py`` beside this file: imported, not
changed, and no bytecode is written there), and every CLI command on
small generated games.  It prints each named function of
``src/costparity`` that none of them called, as ``module.qualname`` in
source order.  A closure is a function of its own, named by its code's
``co_qualname`` (``_p1_strategy_functions.<locals>.nxt``); lambdas and
comprehensions are left out.  Every file goes to a temporary directory.
Stdlib only (Python 3.11 or later, for ``co_qualname``); run it from
anywhere as

    python tools/reach.py [--seed N]
"""

from __future__ import annotations

import argparse
import importlib
import io
import sys
import tempfile
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "costparity"
sys.path.insert(0, str(ROOT / "tools"))

from bench_workloads import load_workloads  # noqa: E402

# (family, d) of each game the CLI commands run on, small enough that
# the finite-duration engine, exponential in the game, ends at bound 10
CLI_GAMES = (("p0mem", 1), ("p1mem", 1), ("p1trade", 1), ("bintrade", 1), ("streett", 1))
# the explicit solve's bounds: below and above each game's optimal cost
BOUNDS = (0, 10)
# ∃x1 ∀x2: the formula of the qbf family's generate
QDIMACS = "p cnf 2 2\ne 1 0\na 2 0\n1 -2 2 0\n-1 2 2 0\n"


def _name(code: CodeType) -> str:
    return f"{Path(code.co_filename).stem}.{code.co_qualname}"


def defined() -> list[str]:
    """Every named function of ``src/costparity``, in source order."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
            # class bodies have no locals of their own
            if code.co_flags & CO_NEWLOCALS and not code.co_name.startswith("<"):
                found.append((path.stem, code.co_firstlineno, _name(code)))
    return [name for _, _, name in sorted(found)]


def reached(run) -> set[str]:
    """The functions of ``src/costparity`` that ``run()`` calls, named
    as in ``defined``."""
    seen: set[CodeType] = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {_name(code) for code in seen
            if not code.co_name.startswith("<") and Path(code.co_filename).resolve().parent == SRC}


def run_workloads(cp, workdir: Path, seed: int) -> None:
    """Set-up and round 0 of each workload, each operation checked; a
    failed check is printed to stderr."""
    for workload in load_workloads().WORKLOADS.values():
        bench = workload(seed, workdir / workload.name)
        bench.setup(cp)
        for op in bench.round(0):
            failure = op.check(op.run())
            if failure is not None:
                print(f"{workload.name}: {op.label}: {failure}", file=sys.stderr)


def run_cli(cli, workdir: Path) -> None:
    """Every command on the ``CLI_GAMES``: generate, then validate, solve
    at each of ``BOUNDS``, optimal and verify of every strategy file,
    and, on .cpg games, the finite-duration solve, convert and export;
    then generate of a QBF game, and a usage error.  An unexpected error
    line is printed to stderr."""
    def run(*argv) -> None:
        err = io.StringIO()
        if cli.run([str(a) for a in argv], io.StringIO(), err) == 2:
            print(f"costparity {' '.join(map(str, argv))}: {err.getvalue().strip()}",
                  file=sys.stderr)

    for family, d in CLI_GAMES:
        run("generate", family, "--d", d, "--outdir", workdir / family)
    for game in sorted(workdir.glob("*/*.c[ps][gt]")):
        run("validate", game)
        for bound in BOUNDS:
            run("solve", "--bound", bound, "--output", game.with_suffix(f".b{bound}.strat"), game)
        run("optimal", "--output", game.with_suffix(".opt.strat"), game)
        for strat in sorted(game.parent.glob("*.strat")):
            run("verify", "--strategy", strat, game)
        if game.suffix == ".cpg":
            run("solve", "--engine", "finite-duration", "--bound", BOUNDS[-1], game)
            run("convert", "--subdivide", game)
            run("export", "--dot", "--output", game.with_suffix(".dot"), game)
    qdimacs = workdir / "phi.qdimacs"
    qdimacs.write_text(QDIMACS)
    run("generate", "qbf", "--qdimacs", qdimacs, "--outdir", workdir / "qbf")
    cli.run(["validate"], io.StringIO(), io.StringIO())  # a usage error


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    sys.dont_write_bytecode = True  # no file outside the temporary directory
    sys.path.insert(0, str(ROOT / "src"))

    def production(workdir: Path) -> None:
        cp = importlib.import_module("costparity")
        importlib.import_module("costparity.cli")  # as the benchmark's worker does
        run_workloads(cp, workdir / "bench", seed)
        run_cli(cp.cli, workdir / "cli")

    with tempfile.TemporaryDirectory() as tmp:
        names = reached(lambda: production(Path(tmp)))
    unreached = [name for name in defined() if name not in names]
    print(f"never called: {len(unreached)} of {len(defined())} functions of src/costparity "
          f"(import, round 0 of each workload at seed {seed}, every CLI command)")
    for name in unreached:
        print(f"  {name}")


if __name__ == "__main__":
    main()
