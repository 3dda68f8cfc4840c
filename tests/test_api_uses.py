"""Every fairline name the benchmark, the scripts and README's library
example use must still exist.

perfbench/ and scripts/ import fairline and call it by attribute (fl.<name>,
cli.main) or import names from it (from fairline.data import write_csv).
Of these files, the tests under tests/ import only perfbench/spans.py, so a
deletion or rename in src/ would otherwise break only the benchmark run or
a script; README's python code blocks are run by nobody. This reads every
.py file under those directories, and each such block, as a syntax tree and
resolves each such name against the package.
"""

import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("perfbench", "scripts") for p in (ROOT / d).rglob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
# name -> Python source: each file, then each README block
CODE = {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8") for p in SOURCES}
CODE.update((f"README.md#python-{i}", block) for i, block in enumerate(README_BLOCKS, 1))


def _attribute(obj, name: str):
    """obj.name, or the submodule obj.name when obj is a package; None if
    neither exists."""
    if hasattr(obj, name):
        return getattr(obj, name)
    try:
        return importlib.import_module(f"{obj.__name__}.{name}")
    except ImportError:
        return None


def _unresolved(source: str, name: str) -> list[str]:
    """The fairline names source uses that do not resolve, as written there."""
    tree = ast.parse(source, filename=name)
    bound = {}  # local name -> the fairline module it is bound to
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fairline":
                    module = importlib.import_module(alias.name)
                    # import fairline.x binds fairline; import fairline.x as y binds x
                    bound[alias.asname or "fairline"] = (
                        module if alias.asname else importlib.import_module("fairline"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module.split(".")[0] == "fairline"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = _attribute(module, alias.name)
                if obj is None:
                    missing.append(f"from {node.module} import {alias.name}")
                elif isinstance(obj, ModuleType):
                    bound[alias.asname or alias.name] = obj
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound
                and _attribute(bound[node.value.id], node.attr) is None):
            missing.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return missing


def test_the_walk_sees_the_benchmark_and_the_scripts():
    assert {"perfbench/workloads.py", "scripts/bits.py"} <= set(CODE)


def test_the_walk_sees_the_readme_library_example():
    assert any("fl.train_subspace(" in block for block in README_BLOCKS)


def test_a_renamed_name_is_reported():
    assert _unresolved("import fairline as fl\nfl.alpha_sweeps(m, t)\n", "x.py") == [
        "fl.alpha_sweeps (line 2)"]


@pytest.mark.parametrize("name", CODE)
def test_every_fairline_name_used_resolves(name):
    assert _unresolved(CODE[name], name) == []
