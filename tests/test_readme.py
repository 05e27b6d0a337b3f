"""Every `python` code block of README.md runs as written."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples open files under tests/data
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
