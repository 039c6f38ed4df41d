"""The README's Python examples run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


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
