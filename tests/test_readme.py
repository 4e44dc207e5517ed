"""The README's Quick start runs as written against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    text = README.read_text()
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under ## Quick start"
    exec(compile(block.group(1), f"{README}:Quick start", "exec"), {})
