"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks, "README has no python block"
    for block in blocks:
        scope: dict = {}
        exec(compile(block, str(README), "exec"), scope)
    assert len(scope["labels"]) == len(scope["seq"].chars)
