"""The package's public names and the README's library example."""

import contextlib
import io
import pathlib
import re

import eaqmds

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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
