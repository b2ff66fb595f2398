"""The core package stays pure standard library: every module imports only
the standard library and tradelab itself, and the command line and the
broker import with the test-only dependencies blocked."""

import ast
import subprocess
import sys
from pathlib import Path

import tradelab

PACKAGE = Path(tradelab.__file__).parent


def imported_top_levels(path: Path) -> set[str]:
    """The top-level module of every absolute import in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_core_modules_import_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    foreign = {path.name: sorted(name for name in imported_top_levels(path)
                                 if name != "tradelab" and name not in sys.stdlib_module_names)
               for path in sources}
    assert {name: found for name, found in foreign.items() if found} == {}


def test_cli_and_broker_import_without_test_dependencies():
    blocked = ("import sys\n"
               "for name in ('numpy', 'hypothesis'):\n"
               "    sys.modules[name] = None\n"
               "import tradelab.cli, tradelab.broker\n")
    result = subprocess.run([sys.executable, "-c", blocked], cwd=PACKAGE.parent,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
