"""No module of the package imports a name it never uses.

No linter runs on this repository, so an import that a deletion leaves
behind (a dataclasses `field`, say) would otherwise stay. This reads each
src/fairline/*.py file as a syntax tree. __init__.py is skipped: its imports
are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fairline"
MODULES = {p.name: p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def _unused_imports(source: str) -> list[str]:
    """The names source binds by an import and never reads, as `name (line N)`."""
    tree = ast.parse(source)
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # import a.b binds a
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_walk_sees_the_training_modules():
    assert {"subspace.py", "baseline.py"} <= set(MODULES)


def test_an_unused_import_is_reported():
    source = ("import os.path\nimport numpy as np\nfrom dataclasses import dataclass, field\n"
              "from . import checkpoint as ckpt\n\n@dataclass\nclass A:\n    x: int = 0\n"
              "\nckpt.write_checkpoint(os.sep)\n")
    assert _unused_imports(source) == ["np (line 2)", "field (line 3)"]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_uses(name):
    assert _unused_imports(MODULES[name].read_text(encoding="utf-8")) == []
