"""Golden output: every CLI call on the lower-bound families, byte for byte.

One SHA-256 digest covers the exit code, stdout and stderr of each
``cli.run`` call and the contents of every file the calls write, with
the temporary directory replaced by a fixed token.  A refactor that
changes any decision, certificate, cost or message changes the digest.
"""

import hashlib
import io
import re

from costparity.cli import run

INSTANCES = [("p0mem", 1), ("p0mem", 2), ("p1mem", 1), ("p1mem", 2),
             ("p1trade", 2), ("bintrade", 2), ("streett", 1)]

GOLDEN_DIGEST = "547610584cb59a3311654077c4933fa937d21ff06e5844403ca280284edf857d"


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
    h = hashlib.sha256()
    for argv, code, out, err in log:
        record = "\0".join([" ".join(argv), str(code), out, err])
        h.update(record.replace(root, "<tmp>").encode() + b"\1")
    for name, data in files:
        h.update(name.encode() + b"\0" + data + b"\1")
    assert (len(log), len(files)) == (59, 45)
    assert all(code in (0, 1) and not err for _, code, _, err in log)
    assert h.hexdigest() == GOLDEN_DIGEST
