"""Mutated input files through the CLI keep the exit protocol.

Each example takes a small valid game, strategy or QDIMACS file, makes
up to three edits to it (a number for a digit, or a token of the file
formats for a span of up to two characters), and runs one command on
the result.  Whatever the input, the command ends with exit 0, 1 or 2,
an exit of 2 comes with exactly one ``error: `` line on stderr, and no
exception escapes ``cli.run``.  Each command also ends with exit 0 or 1
on some of its inputs, so its options are valid and it really runs.
"""

import io

import pytest
from hypothesis import given, settings, strategies as st

from costparity import format_cpg
from costparity.cli import run
from conftest import delay_game

CST = "coststreett 2 0 1\n0 0 0 1:1\n1 0 1 0:1,1:0\npair 0 Q: 0 P: 1\n"
QDIMACS = "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n"
NUMBERS = ("0", "1", "2", "3", "5", "-1", "99999")
TOKENS = ("", "0", "1", "2", "-1", "7", "99999", " ", "\n", ":", ",", "|", "x", "#",
          "Q:", "P:", "pair", "u", "n", "e", "a", "p cnf", "binary", "strategy")

# command -> (the file it mutates, its arguments before the file arguments)
CASES = {
    "validate-cpg": ("cpg", ["validate"]),
    "validate-cst": ("cst", ["validate"]),
    "solve-explicit-cpg": ("cpg", ["solve", "--product-budget", "5000"]),
    "solve-explicit-cst": ("cst", ["solve", "--product-budget", "5000"]),
    "solve-finite-duration": ("cpg", ["solve", "--engine", "finite-duration",
                                      "--budget", "2000"]),
    "optimal-cpg": ("cpg", ["optimal", "--product-budget", "5000"]),
    "optimal-cst": ("cst", ["optimal", "--product-budget", "5000"]),
    "verify-cpg-strat": ("cpg.strat", ["verify"]),
    "verify-cst-strat": ("cst.strat", ["verify"]),
    "verify-cpg": ("cpg", ["verify"]),
    "generate-qbf": ("qdimacs", ["generate", "qbf"]),
}


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The unmutated files, the strategies being certificates of their games."""
    d = tmp_path_factory.mktemp("seeds")
    texts = {"cpg": format_cpg(delay_game(True)), "cst": CST, "qdimacs": QDIMACS}
    for kind in ("cpg", "cst"):
        game = d / f"game.{kind}"
        game.write_text(texts[kind])
        assert invoke("optimal", "-o", str(d / "cert.strat"), str(game))[0] == 0
        texts[f"{kind}.strat"] = (d / "cert.strat").read_text()
    return texts


@st.composite
def mutations(draw, text):
    # mutation sites are drawn from a seeded Random: hypothesis's own
    # integers favour small values, which would keep hitting the header
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(rng.randint(1, 3)):
        digits = [k for k, ch in enumerate(text) if ch.isdigit()]
        if digits and rng.random() < 0.5:  # a number for a digit
            i = rng.choice(digits)
            text = text[:i] + rng.choice(NUMBERS) + text[i + 1:]
        else:  # a token for a span of up to two characters
            i = rng.randrange(len(text) + 1)
            j = min(len(text), i + rng.randint(0, 2))
            text = text[:i] + rng.choice(TOKENS) + text[j:]
    return text


@pytest.mark.parametrize("case", sorted(CASES))
def test_mutated_inputs_keep_the_exit_protocol(case, seeds, tmp_path_factory):
    target, head = CASES[case]
    work = tmp_path_factory.mktemp(case)
    codes = set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.data())
    def check(data):
        text = data.draw(mutations(seeds[target]))
        suffix = target.split(".")[0]
        game = work / f"game.{suffix}"
        argv = list(head)
        if target == "qdimacs":
            (work / "phi.qdimacs").write_text(text)
            argv += ["--qdimacs", str(work / "phi.qdimacs"), "--outdir", str(work / "gen")]
        else:
            game.write_text(seeds[suffix] if target.endswith(".strat") else text)
            if head[0] == "verify":
                strat = work / "in.strat"
                strat.write_text(text if target.endswith(".strat") else seeds[f"{suffix}.strat"])
                argv += ["--strategy", str(strat)]
            if head[0] == "solve":
                argv += ["--bound", str(data.draw(st.integers(0, 4)))]
            if head[0] == "optimal" or (head[0] == "solve" and "finite-duration" not in head):
                argv += ["--output", str(work / "out.strat")]
            argv.append(str(game))
        code, _, err = invoke(*argv)
        codes.add(code)
        assert code in (0, 1, 2), (argv, text)
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, text, err)

    check()
    # some mutated inputs must get past the options and the parser, or
    # the command under test never ran
    assert codes & {0, 1}, (case, codes)
