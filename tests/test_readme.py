"""Every `python` code block of README.md runs as written, and so does every
`tempoweave` command of its `sh` blocks."""

import re
import shlex
from pathlib import Path

import pytest

from tempoweave import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.DOTALL | re.MULTILINE)
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```", README,
                                         re.DOTALL | re.MULTILINE)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("tempoweave ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples open files under tests/data
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_cli_commands_run(tmp_path, monkeypatch):
    """The commands run in order in a fresh directory, so `trace.jsonl` is
    written there, and each exits with a verdict code (0, 2 or 3)."""
    (tmp_path / "tests").symlink_to(ROOT / "tests")  # the examples name tests/data
    monkeypatch.chdir(tmp_path)
    assert [line.split()[1] for line in COMMANDS] == [
        "simulate", "check-trace", "eval", "validate"]
    codes = [(line, cli.main(shlex.split(line)[1:])) for line in COMMANDS]
    assert all(code in (0, 2, 3) for _, code in codes), codes
    assert (tmp_path / "trace.jsonl").is_file()
