"""Static checks of the package sources that need nothing beyond the
standard library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eqsat"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses, as "line N: name"."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_finds_unused_names():
    source = "import os\nimport a.b\nfrom c import d, e as f\nprint(a, f)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: d"]


def test_no_unused_imports_in_package():
    # __init__.py imports names only to re-export them
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}
