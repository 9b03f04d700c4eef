"""costparity benchmark: one workload, one run, one result line.

    python3 perfbench/run.py --workload qbf-decide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``.  The workload runs in a child process (worker.py) that caps its
own address space, so a blow-up is counted as a failed operation instead
of exhausting the machine.  The last line on stdout is the JSON result:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
The line before it holds the details: the seed, the calibration series,
the raw times and any failures.  The same details, and with ``--trace 1``
the spans, are written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "costparity" / "__init__.py").is_file():
        print(f"error: no costparity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(Path(__file__).with_name("worker.py")),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(child.stdout)
        print(f"error: worker exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
