"""The README's Python examples run as written, and its CLI examples print
what the CLI prints."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from valsym.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def cli_examples() -> list[tuple[str, list[str]]]:
    """Each fenced `$ valsym ...` example: its arguments and its output lines."""
    blocks = re.findall(r"^```\n\$ valsym (.*?)\n(.*?)^```", README.read_text(), re.M | re.S)
    return [(args, output.splitlines()) for args, output in blocks]


def columns_but_elapsed(lines: list[str]) -> list[list[str]]:
    """Each line's whitespace-separated columns, less a table's elapsed_s
    column, the one figure that changes from run to run."""
    rows = [line.split() for line in lines]
    for header in rows:
        if "elapsed_s" in header:
            col, width = header.index("elapsed_s"), len(header)
            return [r[:col] + r[col + 1:] if len(r) == width else r for r in rows]
    return rows


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) >= 2  # the quick start and the custom model
    namespace: dict = {}
    outputs = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        outputs.append(out.getvalue())
    assert outputs[0].split() == ["6", "19"]


def test_readme_cli_examples_print_as_shown():
    examples = cli_examples()
    assert examples  # the compare table
    for args, expected in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(shlex.split(args)) == 0
        assert columns_but_elapsed(out.getvalue().splitlines()) == columns_but_elapsed(expected)
