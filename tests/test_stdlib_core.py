"""The core package stays pure standard library: every module imports only
the standard library and tradelab itself, and the command line and the
broker import with the test-only dependencies blocked. Every name a module
imports at module level is used in it."""

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


def unused_imports(path: Path) -> list[str]:
    """The names a module-level import of the file binds that the file never
    names again; an import whose first line, or the alias's own line, is
    marked ``# noqa: F401`` is a deliberate re-export and exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            if any("# noqa: F401" in lines[line - 1] for line in (node.lineno, alias.lineno)):
                continue
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


def test_core_modules_use_every_name_they_import():
    assert [found for path in sorted(PACKAGE.glob("*.py")) for found in unused_imports(path)] == []


def test_cli_and_broker_import_without_test_dependencies():
    blocked = ("import sys\n"
               "for name in ('numpy', 'hypothesis'):\n"
               "    sys.modules[name] = None\n"
               "import tradelab.cli, tradelab.broker\n")
    result = subprocess.run([sys.executable, "-c", blocked], cwd=PACKAGE.parent,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
