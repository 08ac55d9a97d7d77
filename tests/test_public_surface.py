"""The package's public names, its imports and the README's library example."""

import ast
import contextlib
import io
import pathlib
import re
import sys

import eaqmds

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in eaqmds.__all__ if not hasattr(eaqmds, name)]
    assert missing == []


def test_readme_python_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                          flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "[[8, 3, 4; 1]]_5"
    assert lines[1:] and all(line.endswith(" exact-distance") for line in lines[1:])


def test_package_imports_only_the_standard_library():
    """README: no runtime dependencies beyond the standard library."""
    sources = sorted((ROOT / "src" / "eaqmds").glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"eaqmds"}]
    assert foreign == []
