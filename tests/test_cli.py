import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from costparity import format_cpg, make_game, parse_strat
from costparity.cli import run
from conftest import delay_game, strategy_walk


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def delay_path(tmp_path):
    path = tmp_path / "delay-won.cpg"
    path.write_text(format_cpg(delay_game(True)))
    return str(path)


def test_validate_clean(delay_path):
    code, out, err = invoke("validate", delay_path)
    assert code == 0 and out.strip() == "ok" and err == ""


def test_validate_dirty(tmp_path):
    path = tmp_path / "bad.cpg"
    path.write_text("costparity 1 0 unary\n0 0 0 0:7\n")
    code, out, err = invoke("validate", str(path))
    assert code == 2
    assert "error: format" in err


def test_optimal_prints_value_and_witness(delay_path, tmp_path):
    code, out, _ = invoke("optimal", delay_path)
    assert code == 0
    assert out.splitlines()[0] == "optimal 2"
    strat = parse_strat((tmp_path / "delay-won.strat").read_text())
    assert strat.player == 0


def test_optimal_inf(tmp_path):
    path = tmp_path / "left.cpg"
    path.write_text(format_cpg(delay_game(False)))
    code, out, _ = invoke("optimal", str(path))
    assert code == 0
    assert out.splitlines()[0] == "optimal inf"


def test_optimal_budget_bounds_only_the_probed_products(tmp_path):
    # the least-bound search never builds the cap's product when a
    # smaller bound is achievable, so 5,000 states suffice for bintrade
    # d=3, whose cap product has about 29,000
    gen = str(tmp_path / "gen")
    assert invoke("generate", "bintrade", "--d", "3", "--outdir", gen)[0] == 0
    game_file = f"{gen}/bintrade-d3.cpg"
    code, out, err = invoke("optimal", "--product-budget", "5000", game_file)
    assert (code, out.splitlines()[0], err) == (0, "optimal 36", "")
    code, out, _ = invoke("verify", "--strategy", f"{gen}/bintrade-d3.strat", game_file)
    assert (code, out.strip()) == (0, "cost 36")


@pytest.mark.parametrize("family, suffix", [("p0mem", "cpg"), ("streett", "cst")])
def test_verify_budget_ends_in_one_error_line(tmp_path, monkeypatch, family, suffix):
    # the verifier's product stops at the product budget, like the solver's
    from costparity import semantics

    gen = tmp_path / "gen"
    assert invoke("generate", family, "--d", "1", "--outdir", str(gen))[0] == 0
    strat = sorted(gen.glob("*.strat"))[0]  # a reference strategy
    argv = ("verify", "--strategy", str(strat), str(gen / f"{family}-d1.{suffix}"))
    assert invoke(*argv)[0] == 0
    monkeypatch.setattr(semantics, "DEFAULT_PRODUCT_BUDGET", 3)
    code, out, err = invoke(*argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: budget: strategy product exceeds budget 3 states"]


def test_verify_spoiler_budget_ends_in_one_error_line(tmp_path, monkeypatch):
    # the spoiler's τ-arena fits the budget, and its tracked product at
    # a probed bound does not: that product stops at the same budget
    from costparity import semantics
    from costparity.streett import StreettTracker, parse_cst

    gen = tmp_path / "gen"
    assert invoke("generate", "streett", "--d", "2", "--outdir", str(gen))[0] == 0
    game_file, strat = gen / "streett-d2.cst", tmp_path / "tau.strat"
    assert invoke("solve", "--bound", "10", "--output", str(strat), str(game_file))[0] == 1
    argv = ("verify", "--strategy", str(strat), str(game_file))
    assert invoke(*argv)[:2] == (0, "cost 11\n")
    game, tau = parse_cst(game_file.read_text()), parse_strat(strat.read_text())
    budget = len(strategy_walk(game, tau)[0])
    assert budget < len(strategy_walk(game, tau, StreettTracker(game, 2))[0])
    monkeypatch.setattr(semantics, "DEFAULT_PRODUCT_BUDGET", budget)
    code, out, err = invoke(*argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: budget: strategy product exceeds budget {budget} states"]


@pytest.mark.parametrize("family", ["p0mem", "p1mem", "p1trade", "bintrade", "streett"])
def test_generate_budget_ends_in_one_error_line(tmp_path, monkeypatch, family):
    # a family whose strategy tables outgrow the product budget stops
    # while tabulating, before anything is written
    from costparity import core

    gen = tmp_path / "gen"
    monkeypatch.setattr(core, "DEFAULT_PRODUCT_BUDGET", 3)
    code, out, err = invoke("generate", family, "--d", "2", "--outdir", str(gen))
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: budget: strategy update table exceeds budget 3 entries"]
    assert not gen.exists()


def test_failed_generate_removes_only_its_own_files(tmp_path, monkeypatch):
    # running out of memory on the second strategy removes the game file
    # and the first strategy this run wrote, and nothing that was there
    from costparity import core

    kept = tmp_path / "notes.txt"
    kept.write_text("written before\n")
    format_strat, formatted = core.format_strat, []

    def format_or_fail(strat):
        formatted.append(strat)
        if len(formatted) == 2:
            raise MemoryError
        return format_strat(strat)

    monkeypatch.setattr(core, "format_strat", format_or_fail)
    code, out, err = invoke("generate", "p0mem", "--d", "2", "--outdir", str(tmp_path))
    assert code == 2 and err.splitlines() == ["error: budget: out of memory"]
    assert len(out.splitlines()) == 2  # the game file and the first strategy were written
    assert list(tmp_path.iterdir()) == [kept] and kept.read_text() == "written before\n"


def test_streett_commands_build_no_flat_state(tmp_path, monkeypatch):
    # Streett decisions and certificates run on the level graph alone:
    # the flat product is never unrolled
    from costparity.reduction import _LevelProduct

    def unroll(self):
        raise AssertionError("the flat product was unrolled")

    gen = str(tmp_path / "gen")
    assert invoke("generate", "streett", "--d", "2", "--outdir", gen)[0] == 0
    monkeypatch.setattr(_LevelProduct, "unroll", unroll)
    cst = f"{gen}/streett-d2.cst"
    for argv, expected in ((("solve", "--bound", "10", cst), (1, "NOT-ACHIEVABLE")),
                           (("solve", "--bound", "11", cst), (0, "ACHIEVABLE")),
                           (("optimal", cst), (0, "optimal 11"))):
        code, out, err = invoke(*argv)
        assert (code, out.splitlines()[0], err) == (*expected, "")


def test_python_m_costparity_runs_the_cli(tmp_path):
    gen = tmp_path / "gen"
    assert invoke("generate", "p0mem", "--d", "1", "--outdir", str(gen))[0] == 0
    assert "bound=3" in (gen / "p0mem-d1.manifest").read_text()
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "costparity", "optimal",
                           str(gen / "p0mem-d1.cpg")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "optimal 3"


def test_solve_exit_codes(delay_path):
    code, out, _ = invoke("solve", "--bound", "2", delay_path)
    assert code == 0 and out.splitlines()[0] == "ACHIEVABLE"
    code, out, _ = invoke("solve", "--bound", "1", delay_path)
    assert code == 1 and out.splitlines()[0] == "NOT-ACHIEVABLE"


@pytest.mark.parametrize("engine", ["explicit", "finite-duration"])
def test_solve_negative_bound_is_invalid(tmp_path, delay_path, engine):
    cst = tmp_path / "loop.cst"
    cst.write_text("coststreett 1 0 1\n0 0 0 0:1\npair 0 Q: 0 P:\n")
    invalid = (2, "", "error: invalid: bound must be non-negative\n")
    code, out, err = invoke("solve", "--engine", engine, "--bound", "-1", delay_path)
    assert (code, out, err) == invalid
    # the finite-duration engine decides .cpg games only
    code, out, err = invoke("solve", "--engine", engine, "--bound", "-1", str(cst))
    assert (code, out, err) == (invalid if engine == "explicit" else (
        2, "", "error: usage: solve --engine finite-duration applies to .cpg games only\n"))
    assert not cst.with_suffix(".strat").exists()


def test_optimal_streett_cap_hit_is_a_budget_error(tmp_path):
    # a Player 1 loop that requests pair 0 forever: no bound up to the
    # practical cap n·W·2^d = 2 is achievable, and nothing proves ∞
    cst = tmp_path / "loop.cst"
    cst.write_text("coststreett 1 0 1\n0 0 0 0:1\npair 0 Q: 0 P:\n")
    code, out, err = invoke("optimal", str(cst))
    assert (code, out, err) == (2, "", "error: budget: not achievable up to the practical cap 2\n")
    assert not cst.with_suffix(".strat").exists()


def test_out_of_memory_ends_in_one_error_line(tmp_path, monkeypatch):
    from costparity import cli

    def family(d):
        raise MemoryError

    monkeypatch.setitem(cli._FAMILIES, "p0mem", family)
    gen = tmp_path / "gen"
    code, out, err = invoke("generate", "p0mem", "--d", "12", "--outdir", str(gen))
    assert (code, out, err) == (2, "", "error: budget: out of memory\n")
    assert not gen.exists()


def test_solve_finite_duration_engine(delay_path):
    code, out, _ = invoke("solve", "--bound", "2", "--engine", "finite-duration",
                          delay_path)
    assert code == 0 and "ACHIEVABLE" in out
    code, _, err = invoke("solve", "--bound", "2", "--engine", "finite-duration",
                          "--budget", "1", delay_path)
    assert code == 2 and "error: budget" in err


@pytest.mark.parametrize("engine, option, value", [
    ("explicit", "--budget", "1"),
    ("finite-duration", "--product-budget", "1"),
    ("finite-duration", "--output", "x.strat"),
])
def test_solve_rejects_the_options_of_the_other_engine(tmp_path, delay_path, engine, option,
                                                       value):
    # an option the chosen engine would ignore is a usage error, and
    # nothing is decided or written
    if option == "--output":
        value = str(tmp_path / value)
    code, out, err = invoke("solve", "--engine", engine, option, value, "--bound", "2",
                            delay_path)
    assert (code, out) == (2, "")
    assert err == f"error: usage: solve {option} does not apply to --engine {engine}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["delay-won.cpg"]


def test_verify_roundtrip(delay_path, tmp_path):
    invoke("solve", "--bound", "2", delay_path)
    code, out, _ = invoke("verify", "--strategy",
                          str(tmp_path / "delay-won.strat"), delay_path)
    assert code == 0 and out.strip() == "cost 2"


def test_generate_validate_solve_roundtrip(tmp_path):
    gen = str(tmp_path / "gen")
    code, out, _ = invoke("generate", "p0mem", "--d", "2", "--outdir", gen)
    assert code == 0
    game_file = f"{gen}/p0mem-d2.cpg"
    assert invoke("validate", game_file)[0] == 0
    manifest = (tmp_path / "gen" / "p0mem-d2.manifest").read_text()
    assert "bound=8" in manifest
    assert invoke("solve", "--bound", "8", game_file)[0] == 0
    code, out, _ = invoke("verify", "--strategy", f"{gen}/p0mem-d2.sigma2.strat",
                          game_file)
    assert out.strip() == "cost 8"


def test_generate_qbf_from_qdimacs(tmp_path):
    f = tmp_path / "phi.qdimacs"
    f.write_text("p cnf 1 1\ne 1 0\n1 0\n")
    gen = str(tmp_path / "q")
    code, out, _ = invoke("generate", "qbf", "--qdimacs", str(f), "--outdir", gen)
    assert code == 0
    assert invoke("solve", "--bound", "8", f"{gen}/qbf-d1.cpg")[0] == 0
    assert invoke("solve", "--bound", "7", f"{gen}/qbf-d1.cpg")[0] == 1


def test_generate_streett_and_solve(tmp_path):
    gen = str(tmp_path / "s")
    code, _, _ = invoke("generate", "streett", "--d", "1", "--outdir", gen)
    assert code == 0
    assert invoke("validate", f"{gen}/streett-d1.cst")[0] == 0
    assert invoke("solve", "--bound", "5", f"{gen}/streett-d1.cst")[0] == 0
    assert invoke("solve", "--bound", "4", f"{gen}/streett-d1.cst")[0] == 1
    code, out, _ = invoke("verify", "--strategy",
                          f"{gen}/streett-d1.counter.strat",
                          f"{gen}/streett-d1.cst")
    assert code == 0 and out.strip() == "cost 5"
    code, out, _ = invoke("optimal", f"{gen}/streett-d1.cst")
    assert code == 0 and out.splitlines()[0] == "optimal 5"


def test_convert_subdivide(tmp_path):
    path = tmp_path / "bin.cpg"
    path.write_text(format_cpg(make_game(
        [(0, 0, 1), (1, 1, 2)], [(0, 1, 3), (1, 0, 0)], 0, "binary")))
    code, out, _ = invoke("convert", "--subdivide", str(path))
    assert code == 0
    converted = (tmp_path / "bin.unary.cpg").read_text()
    assert "unary" in converted.splitlines()[0]


def test_export_dot(delay_path):
    code, out, _ = invoke("export", "--dot", delay_path)
    assert code == 0 and out.startswith("digraph")
    # determinism
    assert out == invoke("export", "--dot", delay_path)[1]



@pytest.mark.parametrize("argv, usage", [(["--help"], "usage: costparity "),
                                         (["verify", "--help"], "usage: costparity verify ")])
def test_help_goes_to_out(argv, usage, capsys):
    code, out, err = invoke(*argv)
    assert (code, err) == (0, "")
    assert out.startswith(usage)
    assert capsys.readouterr() == ("", "")


def test_parser_is_built_once(monkeypatch, delay_path):
    from costparity import cli

    built = []
    real = cli.build_parser

    def spy():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    monkeypatch.setattr(cli, "_PARSER", None)
    for _ in range(3):
        assert invoke("validate", delay_path)[:2] == (0, "ok\n")
    assert invoke("solve", delay_path)[0] == 2
    assert len(built) == 1

def test_error_protocol(tmp_path, delay_path, monkeypatch):
    code, _, err = invoke("solve", delay_path)
    assert code == 2 and err.startswith("error: usage: ")
    code, _, err = invoke("validate", str(tmp_path / "missing.cpg"))
    assert code == 2 and err.startswith("error: io: ")
    code, _, err = invoke("solve", "--bound", "2", "--product-budget", "1",
                          delay_path)
    assert code == 2 and err.startswith("error: budget: ")
    bad = tmp_path / "bad.cst"
    for body in ("0 0 0 0:1\npair\n", "0 0 0 0:1\npair 0 P: 0\n",
                 "0 0 0 0:1\npair x Q: P: 0\n", "0 x 0 0:1\npair 0 Q: P: 0\n",
                 "0 0 0 0:a\npair 0 Q: P: 0\n"):
        bad.write_text("coststreett 1 0 1\n" + body)
        code, _, err = invoke("validate", str(bad))
        assert code == 2 and err.startswith("error: format: ")
        assert len(err.splitlines()) == 1
    # a state count no update table in the file can cover
    gen = str(tmp_path / "p0")
    assert invoke("generate", "p0mem", "--d", "1", "--outdir", gen)[0] == 0
    huge = tmp_path / "huge.strat"
    huge.write_text("strategy 0 20000000 0\n")
    code, _, err = invoke("verify", "--strategy", str(huge), f"{gen}/p0mem-d1.cpg")
    assert code == 2 and err.startswith("error: format: ")
    assert len(err.splitlines()) == 1
    # a player other than 0 or 1 is reported by validation, for both game kinds
    assert invoke("generate", "streett", "--d", "1", "--outdir", gen)[0] == 0
    player2 = tmp_path / "player2.strat"
    player2.write_text("strategy 2 1 0\n")
    for game in (f"{gen}/p0mem-d1.cpg", f"{gen}/streett-d1.cst"):
        code, out, err = invoke("verify", "--strategy", str(player2), game)
        assert code == 2 and out == ""
        assert err.startswith("error: strategy: ")
        assert "player must be 0 or 1, got 2" in err
        assert len(err.splitlines()) == 1
    # Streett budgets: the layered decision meets one (22 level-graph
    # nodes at bound 5), and the certificate's update table meets its
    # own, before anything is printed
    cst = f"{gen}/streett-d1.cst"
    for argv in (("solve", "--bound", "5", "--product-budget", "1", cst),
                 ("optimal", "--product-budget", "1", cst)):
        code, out, err = invoke(*argv)
        assert code == 2 and out == "" and err.startswith("error: budget: ")
        assert len(err.splitlines()) == 1
    assert invoke("solve", "--bound", "5", "--product-budget", "100", cst)[0] == 0
    from costparity import core

    monkeypatch.setattr(core, "DEFAULT_PRODUCT_BUDGET", 100)
    for argv in (("solve", "--bound", "5", cst), ("optimal", cst)):
        code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: budget: strategy update table exceeds budget 100 entries"]
    qdimacs = tmp_path / "bad.qdimacs"
    for body in ("p cnf 1 1\ne 1 0\n1 0 1 0\n", "p cnf 1 1\ne 1 0\n2 1 1 0\n",
                 "p cnf x 1\ne 1 0\n1 0\n", "p cnf 1 1\ne y 0\n1 0\n",
                 "p cnf 1 1\ne 1 0\n1 z 0\n", "p cnf 1 0\ne 1 0\n"):
        qdimacs.write_text(body)
        code, _, err = invoke("generate", "qbf", "--qdimacs", str(qdimacs),
                              "--outdir", str(tmp_path / "q"))
        assert code == 2 and err.startswith("error: format: ")
        assert len(err.splitlines()) == 1
    # the last body has no clause: refused as such, not as a broken game
    assert err.endswith(": no clause line: a formula needs at least one clause\n")


@pytest.mark.parametrize("vertex_lines", ["0 0 0 1:0\n1 0 0 1:0\n1 0 1 0:1\n",
                                          "0 0 2 1:0\n1 0 5 0:1\n2 0 0 2:0\n"],
                         ids=["duplicate-id", "owners-2-and-5"])
def test_cst_duplicate_ids_and_bad_owners_are_format_errors(tmp_path, vertex_lines):
    path = tmp_path / "bad.cst"
    path.write_text("coststreett 3 0 1\n" + vertex_lines + "pair 0 Q: 1 P:\n")
    for argv in (("validate", str(path)), ("solve", "--bound", "1", str(path))):
        code, out, err = invoke(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error: format: ") and len(err.splitlines()) == 1
    assert not path.with_suffix(".strat").exists()


@pytest.mark.parametrize("player", [0, 1])
def test_verify_rejects_ill_formed_streett_strategy(tmp_path, player):
    gen = str(tmp_path / "s")
    assert invoke("generate", "streett", "--d", "1", "--outdir", gen)[0] == 0
    strat = tmp_path / "partial.strat"
    strat.write_text(f"strategy {player} 1 0\n")
    code, out, err = invoke("verify", "--strategy", str(strat),
                            f"{gen}/streett-d1.cst")
    assert code == 2 and out == ""
    assert err.startswith("error: strategy: ill-formed strategy: ")
    assert len(err.splitlines()) == 1


def test_deterministic_outputs(delay_path):
    a = invoke("optimal", delay_path)
    b = invoke("optimal", delay_path)
    assert a == b


def test_roundtrip_every_family_at_manifest_bound(tmp_path):
    # generate -> validate -> solve at the manifest bound succeeds
    for family, d in [("p0mem", 1), ("p0mem", 2), ("p1mem", 1), ("p1mem", 2),
                      ("p1trade", 2), ("bintrade", 2), ("streett", 1)]:
        gen = str(tmp_path / f"{family}{d}")
        assert invoke("generate", family, "--d", str(d), "--outdir", gen)[0] == 0
        ext = "cst" if family == "streett" else "cpg"
        game_file = f"{gen}/{family}-d{d}.{ext}"
        assert invoke("validate", game_file)[0] == 0
        manifest = open(f"{gen}/{family}-d{d}.manifest").read()
        bound = int(manifest.split("bound=")[1].split()[0])
        assert invoke("solve", "--bound", str(bound), game_file)[0] == 0


@pytest.mark.parametrize("text, achievable", [
    # ∃x1 ∀x2 ∃x3: x1 = true, x3 = ¬x2 satisfies both clauses
    ("p cnf 3 2\ne 1 0\na 2 0\ne 3 0\n1 2 3 0\n-1 -2 -3 0\n", True),
    # ∀x1 ∃x2 ∀x3: x3 = x2 falsifies (x1 ∨ x2 ∨ ¬x3) or (¬x1 ∨ ¬x2 ∨ x3)
    ("p cnf 3 3\na 1 0\ne 2 0\na 3 0\n1 2 -3 0\n-1 -2 3 0\n2 3 0\n", False),
], ids=["true", "false"])
def test_qbf_certificate_solves_and_verifies(tmp_path, text, achievable):
    """The certificate of a QBF game holds the memory its consistent
    plays visit (49 states on the true formula, 321 on the false one)
    and verifies on the right side of 3n+5, n counting the variables
    normalization adds."""
    (tmp_path / "phi.qdimacs").write_text(text)
    assert invoke("generate", "qbf", "--qdimacs", str(tmp_path / "phi.qdimacs"),
                  "--outdir", str(tmp_path))[0] == 0
    (manifest,) = tmp_path.glob("qbf-d*.manifest")
    fields = dict(part.split("=", 1) for part in manifest.read_text().split())
    bound = int(fields["bound"])
    assert bound == 3 * int(fields["d"]) + 5
    game = str(manifest.with_suffix(".cpg"))
    cert = str(tmp_path / "phi.strat")
    code, out, err = invoke("solve", "--bound", str(bound), "--output", cert, game)
    assert (code, out.splitlines()[0], err) == \
        ((0, "ACHIEVABLE", "") if achievable else (1, "NOT-ACHIEVABLE", ""))
    strat = parse_strat(open(cert).read())
    assert strat.player == (0 if achievable else 1) and strat.size < 1000
    code, out, err = invoke("verify", "--strategy", cert, game)
    cost = int(out.split()[1])
    assert code == 0 and err == "" and (cost <= bound if achievable else cost > bound)


@pytest.mark.parametrize("family", ["p0mem", "bintrade"])
def test_generate_family_budget_ends_at_once(tmp_path, family):
    # at d=12 each reference strategy fits the per-table budget, but the
    # twelve need 15,015,936 update entries together: refused before
    # any table is built, so nothing is written
    gen = tmp_path / "gen"
    start = time.process_time()
    code, out, err = invoke("generate", family, "--d", "12", "--outdir", str(gen))
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: budget: reference strategies need 15015936 "
                                "update entries together, budget 10000000"]
    assert not gen.exists()
    assert time.process_time() - start < 5


@pytest.mark.parametrize("text", ["coststreett -2 0 3\npair 0 Q: P:\n", "coststreett -1 0 1\n"])
def test_negative_vertex_count_in_cst_is_a_format_error(tmp_path, text):
    # a negative count once sliced the pair lines out of the header and
    # left pairs unset, which ended in an AttributeError traceback
    path = tmp_path / "neg.cst"
    path.write_text(text)
    code, out, err = invoke("validate", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: format: {path}: expected {text.split()[1]} vertex "
                                f"and {text.split()[3]} pair lines"]


def test_budget_errors_name_the_level_graph(tmp_path):
    # both game classes decide on the layered engine's level graph, whose
    # nodes sit at vertices that are not pass-through: p0mem d=1 has 3
    # at every bound (6 with its 4 pass-through vertices), so a budget
    # of 3 decides it and 2 does not
    gen = str(tmp_path / "gen")
    for family in ("p0mem", "streett"):
        assert invoke("generate", family, "--d", "1", "--outdir", gen)[0] == 0
    p0mem = f"{gen}/p0mem-d1.cpg"
    cert = tmp_path / "b5.strat"
    code, out, _ = invoke("solve", "--bound", "5", "--product-budget", "3", "--output",
                          str(cert), p0mem)
    assert (code, out) == (0, f"ACHIEVABLE\nwrote {cert}\n")
    for game in (p0mem, f"{gen}/streett-d1.cst"):
        for argv in (("solve", "--bound", "5"), ("optimal",)):
            code, out, err = invoke(*argv, "--product-budget", "2", game)
            assert (code, out) == (2, "")
            assert err.splitlines() == ["error: budget: level graph exceeds budget 2 states"]


def test_rarely_taken_error_branches(tmp_path, delay_path):
    gen = str(tmp_path / "gen")
    assert invoke("generate", "streett", "--d", "1", "--outdir", gen)[0] == 0
    cst = f"{gen}/streett-d1.cst"
    missing = str(tmp_path / "missing")
    cases = [
        (("verify", "--strategy", missing, delay_path), f"io: cannot read {missing}: "),
        (("generate", "qbf", "--outdir", gen), "usage: generate qbf requires --qdimacs"),
        (("generate", "qbf", "--qdimacs", missing, "--outdir", gen),
         f"io: cannot read {missing}: "),
        (("generate", "streett", "--d", "-1", "--outdir", gen),
         "usage: d must be non-negative"),
        (("convert", delay_path), "usage: convert requires --subdivide"),
        (("convert", "--subdivide", cst), "usage: convert --subdivide applies to .cpg games only"),
        (("export", delay_path), "usage: export requires --dot"),
        (("export", "--dot", cst), "usage: export --dot applies to .cpg games only"),
    ] + [(("generate", family, "--d", "0", "--outdir", gen), "usage: d must be at least 1")
         for family in ("p0mem", "p1mem", "p1trade", "bintrade")]
    for argv, message in cases:
        code, out, err = invoke(*argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}"), argv


def test_export_dot_to_a_file(tmp_path, delay_path):
    target = tmp_path / "delay.dot"
    code, out, err = invoke("export", "--dot", "--output", str(target), delay_path)
    assert (code, out, err) == (0, f"wrote {target}\n", "")
    assert target.read_text() == invoke("export", "--dot", delay_path)[1]
