"""The three workloads: fixed rounds of operations with independent answers.

A workload is set up from a freshly imported `costparity` package, then
yields rounds.  A round is one fixed list of
operations; the benchmark runs whole rounds only, so every run measures
the same input mix however many rounds fit in its time.  Each operation
carries the check of its answer against a reference that does not run
the solver under test.  Operations return the library's result objects,
so that freeing them happens after the timed region, in both the plain
and the traced run, and not between two spans.

Operations call the library through module attributes looked up at call
time (``streett.decide_bounded_cost_streett``), so the spans the traced
run installs see every call.
"""

from __future__ import annotations

import io
import itertools
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the answer is right
    input: object  # printed with a failure


def counter_bound(d: int) -> int:
    """Optimal cost of the Streett counter family, 3(2^d − 1) + 2."""
    return 3 * (2 ** d - 1) + 2


class QbfDecide:
    """Seeded random 3-CNF QBFs: build the game, decide at 3n+5, compare
    with the formula's truth value from `eval_qbf`."""

    name = "qbf-decide"
    uses_seed = True
    # a round covers every quantifier prefix of 2-4 variables and every
    # clause count 2-5; the copies weight each variable count equally
    COPIES_BY_VARIABLES = ((2, 4), (3, 2), (4, 1))
    CLAUSE_COUNTS = (2, 3, 4, 5)
    POOL_ROUNDS = 8
    # the same for every seed, so that set-up time does not depend on it
    WARM_UP = (("e", "a"), ((1, 2, -2), (-1, -2, 2)))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self, cp) -> None:
        self.cp = cp
        rng = random.Random(self.seed)
        self.pool = [self._make_round(rng) for _ in range(self.POOL_ROUNDS)]
        gen = cp.generators
        inst = gen.qbf_to_game(gen.QbfFormula(*self.WARM_UP))
        cp.solver.decide_bounded_cost(inst.game, inst.target_bound)

    def _make_round(self, rng: random.Random) -> list:
        gen = self.cp.generators
        items = []
        for n, copies in self.COPIES_BY_VARIABLES:
            for prefix in itertools.product("ea", repeat=n):
                for m in self.CLAUSE_COUNTS:
                    for _ in range(copies):
                        clauses = tuple(
                            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(3))
                            for _ in range(m))
                        items.append(gen.QbfFormula(prefix, clauses))
        rng.shuffle(items)
        return items

    def round(self, index: int) -> Iterator[Op]:
        gen, solver = self.cp.generators, self.cp.solver

        def decide(phi):
            inst = gen.qbf_to_game(phi)
            return solver.decide_bounded_cost(inst.game, inst.target_bound)

        def check(res, phi):
            want = gen.eval_qbf(phi)
            return None if res.achievable == want \
                else f"decided {res.achievable}, eval_qbf gives {want}"

        for phi in self.pool[index % len(self.pool)]:
            yield Op("decide qbf at 3n+5", lambda phi=phi: decide(phi),
                     lambda res, phi=phi: check(res, phi), phi)


class FamiliesCli:
    """The lower-bound families through `cli.run` on files: generate,
    optimal (writes a certificate), verify the certificate, verify every
    reference strategy; answers against the manifest."""

    name = "families-cli"
    uses_seed = False
    FAMILIES = (("p0mem", 2), ("p0mem", 3), ("p1mem", 3), ("p1mem", 4),
                ("p1trade", 3), ("bintrade", 2), ("bintrade", 3))
    WARM_UP = (("p0mem", 1),)

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir

    def setup(self, cp) -> None:
        self.cp = cp
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        for family, d in self.WARM_UP:
            for op in self._family_ops(family, d):
                op.check(op.run())

    def round(self, index: int) -> Iterator[Op]:
        for family, d in self.FAMILIES:
            yield from self._family_ops(family, d)

    def _cli(self, argv: list[str], check: Callable[[str], Optional[str]]) -> Op:
        cli = self.cp.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(argv, out, err)
            return code, out.getvalue(), err.getvalue()

        def checked(result):
            code, out, err = result
            if code != 0 or err:
                return f"exit {code}: {err.strip()}"
            return check(out)

        return Op("costparity " + argv[0], run, checked, " ".join(argv))

    def _family_ops(self, family: str, d: int) -> Iterator[Op]:
        outdir = self.workdir / f"{family}-d{d}"
        base = outdir / f"{family}-d{d}"
        manifest_path = Path(f"{base}.manifest")
        game, cert = f"{base}.cpg", f"{base}.opt.strat"

        def has_manifest(out: str) -> Optional[str]:
            return None if manifest_path.is_file() else "no manifest written"

        yield self._cli(["generate", family, "--d", str(d), "--outdir", str(outdir)],
                        has_manifest)
        if not manifest_path.is_file():
            return
        bound, references = _parse_manifest(manifest_path.read_text())

        def expect(text: str) -> Callable[[str], Optional[str]]:
            return lambda out: None if out.splitlines()[:1] == [text] \
                else f"printed {out.strip()!r}, reference {text!r}"

        yield self._cli(["optimal", "--output", cert, game], expect(f"optimal {bound}"))
        yield self._cli(["verify", "--strategy", cert, game], expect(f"cost {bound}"))
        for name, cost in references:
            yield self._cli(["verify", "--strategy", f"{base}.{name}.strat", game],
                            expect(f"cost {cost}"))


def _parse_manifest(text: str) -> tuple[int, list[tuple[str, int]]]:
    """(published bound, [(reference name, claimed cost)]) of a manifest line."""
    fields = dict(part.split("=", 1) for part in text.split())
    references = []
    for entry in filter(None, fields["strategies"].split(",")):
        name, cost, _size = entry.split(":")
        references.append((name, int(cost)))
    return int(fields["bound"]), references


class StreettCounter:
    """The Streett counter family: decisions at d=3 around the optimum,
    a spoiler certificate and its cost, optimal cost at d=2 with its
    witness verified; all against 3(2^d − 1) + 2."""

    name = "streett-counter"
    uses_seed = False
    DECIDE_BOUNDS = (21, 22, 23, 24)
    SPOILER_BOUND = 22

    def __init__(self, seed: int, workdir: Path):
        pass

    def setup(self, cp) -> None:
        self.cp = cp
        family = cp.generators.streett_counter_family
        self.games = {d: family(d).game for d in (1, 2, 3)}
        streett, g1 = cp.streett, self.games[1]  # warm-up on d=1
        streett.streett_strategy_cost(
            g1, streett.decide_bounded_cost_streett(g1, counter_bound(1)).certificate)

    def round(self, index: int) -> Iterator[Op]:
        streett = self.cp.streett
        g2, g3 = self.games[2], self.games[3]
        opt2, opt3 = counter_bound(2), counter_bound(3)
        for b in self.DECIDE_BOUNDS:
            want = b >= opt3
            yield Op(f"decide streett counter d=3 b={b}",
                     lambda b=b: streett.decide_bounded_cost_streett(g3, b),
                     lambda res, want=want: None if res.achievable == want
                     else f"decided {res.achievable}, reference {want}",
                     f"counter d=3 bound {b}")

        def spoiler():
            res = streett.decide_bounded_cost_streett(g3, self.SPOILER_BOUND)
            return res, streett.streett_spoiler_cost(g3, res.certificate)

        # the certificate forces cost > 22 and Player 0 can hold 23
        yield Op(f"spoiler certificate d=3 b={self.SPOILER_BOUND}", spoiler,
                 lambda got: None if got[1] == opt3
                 else f"spoiler cost {got[1]}, reference {opt3}",
                 f"counter d=3 bound {self.SPOILER_BOUND}")

        def optimal():
            res = streett.optimal_cost_streett(g2)
            return res, streett.streett_strategy_cost(g2, res.witness)

        yield Op("optimal streett counter d=2", optimal,
                 lambda got: None if (got[0].value, got[1]) == (opt2, opt2)
                 else f"optimal {got[0].value}, witness cost {got[1]}, reference {opt2}",
                 "counter d=2")


WORKLOADS = {w.name: w for w in (QbfDecide, FamiliesCli, StreettCounter)}
