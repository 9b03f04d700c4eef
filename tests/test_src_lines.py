import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_src_line_counts_add_up_to_the_raw_lines():
    """``tools/src_lines.py`` splits every line of ``src/costparity/*.py``
    into exactly one of code, docstring, comment and blank."""
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py")],
                         capture_output=True, text=True, check=True).stdout
    counts = {kind: int(k.replace(",", "")) for kind, k in re.findall(r"(\w+) ([\d,]+)", out)}
    assert list(counts) == ["code", "docstring", "comment", "blank", "raw"]
    raw = sum(len(path.read_text().splitlines())
              for path in (ROOT / "src" / "costparity").glob("*.py"))
    assert counts["code"] + counts["docstring"] + counts["comment"] + counts["blank"] \
        == counts["raw"] == raw
    assert min(counts.values()) > 0
