"""Golden output: every CLI call on the lower-bound families, byte for byte.

One SHA-256 digest covers the exit code, stdout and stderr of each
``cli.run`` call and the contents of every file the calls write, with
the temporary directory replaced by a fixed token, except the
certificates that ``solve``/``optimal`` write (``*.opt.strat``,
``*.b<k>.strat``).  Those are hashed on their own, the parity games'
and the Streett game's apart, so a change to how either class's
certificates are built shows up apart from the other class's and from
any change to a decision, a printed cost, a message or a generated
file.

A second digest covers what the CLI families never reach: the
finite-duration engine's (achievable, nodes) on seeded random unary and
binary games, and the classical Streett solver's strategies on seeded
random Streett games.  A third covers the layered engine's winners and
positional moves at every state of its product, on seeded QBF games and
seeded random cost games.
"""

import hashlib
import io
import random
import re

from conftest import layered_corpus, product_winner, random_cost_game, random_streett_game
from costparity import decide_bounded_cost, decide_bounded_cost_finite_duration, format_strat
from costparity.cli import run
from costparity.streett import solve_streett

INSTANCES = [("p0mem", 1), ("p0mem", 2), ("p1mem", 1), ("p1mem", 2),
             ("p1trade", 2), ("bintrade", 2), ("streett", 1)]

GOLDEN_DIGEST = "4c5d20748ef99524fb6e99534151518e282429ae967561b51c6ff983049e10aa"
# GOLDEN_DIGEST also pins each certificate's cost, through ``verify``
PARITY_CERT_DIGEST = "0bfe355d8fac3df2e19d6433c85e8e366f0e4d09611a0ed986364abe393453c6"
STREETT_CERT_DIGEST = "8e78e39cd8ee4c0b706f90130f675ccd0d0a893ed99833f4a45c7f2d7517ab29"

# certificates written by ``optimal --output`` and ``solve --output``
_CERTIFICATE = re.compile(r"\.(opt|b\d+)\.strat$")


def _run_calls(tmp_path):
    """Runs every call; returns (transcript, written files)."""
    root = str(tmp_path)
    log = []

    def call(*argv):
        out, err = io.StringIO(), io.StringIO()
        code = run(list(argv), out, err)
        log.append((argv, code, out.getvalue(), err.getvalue()))

    for family, d in INSTANCES:
        gen = f"{root}/{family}{d}"
        base = f"{gen}/{family}-d{d}"
        game = f"{base}.{'cst' if family == 'streett' else 'cpg'}"
        call("generate", family, "--d", str(d), "--outdir", gen)
        bound = int(re.search(r"bound=(\d+)", open(f"{base}.manifest").read())[1])
        call("optimal", "--output", f"{base}.opt.strat", game)
        for b in (bound - 1, bound):
            call("solve", "--bound", str(b), "--output", f"{base}.b{b}.strat", game)
        for strat in sorted(p for p in (tmp_path / f"{family}{d}").iterdir()
                            if p.suffix == ".strat"):
            call("verify", "--strategy", str(strat), game)
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    return log, [(p.relative_to(tmp_path).as_posix(), p.read_bytes()) for p in files]


def test_cli_outputs_match_golden_digest(tmp_path):
    log, files = _run_calls(tmp_path)
    root = str(tmp_path)
    h, parity_cert, streett_cert = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for argv, code, out, err in log:
        record = "\0".join([" ".join(argv), str(code), out, err])
        h.update(record.replace(root, "<tmp>").encode() + b"\1")
    for name, data in files:
        if _CERTIFICATE.search(name):
            sink = streett_cert if name.startswith("streett") else parity_cert
        else:
            sink = h
        sink.update(name.encode() + b"\0" + data + b"\1")
    assert (len(log), len(files)) == (59, 45)
    assert sum(bool(_CERTIFICATE.search(name)) for name, _ in files) == 21
    assert all(code in (0, 1) and not err for _, code, _, err in log)
    assert h.hexdigest() == GOLDEN_DIGEST
    assert (parity_cert.hexdigest(), streett_cert.hexdigest()) == \
        (PARITY_CERT_DIGEST, STREETT_CERT_DIGEST)


ENGINE_DIGEST = "f417da2da7d3e362af19cc27b7adff44a9bc67df55d2d24182cc16e6df6c5f43"


def test_engine_and_streett_strategies_match_golden_digest():
    rng = random.Random(3)
    h = hashlib.sha256()
    for _ in range(200):
        g = random_cost_game(rng, rng.randint(1, 4), 3)
        fd = decide_bounded_cost_finite_duration(g, rng.randint(0, 3), node_budget=20_000)
        h.update(repr((fd.achievable, fd.nodes)).encode() + b"\1")
    # binary games with costs up to 3 and bounds that leave room for the
    # shortcut rule to fast-forward cost-positive cycles
    decided = 0
    for _ in range(200):
        g = random_cost_game(rng, rng.randint(2, 4), 3, max_cost=3, encoding="binary")
        b = rng.randint(2, 12)
        fd = decide_bounded_cost_finite_duration(g, b, node_budget=20_000)
        h.update(repr((fd.achievable, fd.nodes)).encode() + b"\1")
        if not fd.exhausted:
            assert fd.achievable == decide_bounded_cost(g, b).achievable
            decided += 1
    assert decided >= 190
    for _ in range(200):
        res = solve_streett(random_streett_game(rng))
        for strat in (res.player0_strategy, res.player1_strategy):
            if strat is not None:
                h.update(format_strat(strat).encode() + b"\1")
    assert h.hexdigest() == ENGINE_DIGEST


LAYERED_DIGEST = "76ed44ecaea26be7205e064dd29da5ff6cb4b5883ce527682efe61dd431dc1df"


def _hash_layered_solve(h, game, bound):
    res = decide_bounded_cost(game, bound).certified
    move0, move1 = res.move_function(0), res.move_function(1)
    rows = [[(product_winner(res, v, o, r), move0(v, o, r), move1(v, o, r))
             for o in range(game.n + 1)] for v, r in res.nodes]
    h.update(repr(rows).encode() + b"\1")


def test_layered_solve_matches_golden_digest():
    """Pins every overflow level's winners and both players' moves,
    including the levels served by the last fixpoint iterate, on the
    pass-through product that certificates read (``certified``); the
    decisions' walked product is checked against it and the full one in
    test_pass_through."""
    h = hashlib.sha256()
    for game, bound in layered_corpus():
        _hash_layered_solve(h, game, bound)
    assert h.hexdigest() == LAYERED_DIGEST
