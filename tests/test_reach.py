import importlib.util
import io
from pathlib import Path

from costparity import cli, core
from costparity.generators import p0_memory_family

ROOT = Path(__file__).resolve().parent.parent


def test_reach_traces_the_functions_a_cli_validate_calls(tmp_path):
    """``tools/reach.py`` names what one ``validate`` calls: the parser,
    and not the verifier's strategy product."""
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    game = tmp_path / "game.cpg"
    game.write_text(core.format_cpg(p0_memory_family(1).game))
    out = io.StringIO()
    names = reach.reached(lambda: cli.run(["validate", str(game)], out, io.StringIO()))
    assert out.getvalue() == "ok\n"
    assert "core.parse_cpg" in names and "semantics.strategy_product" not in names
    assert names <= set(reach.defined())
