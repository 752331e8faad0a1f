"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_quick_start_runs():
    # The block holds the 1e-12 cross-check of the factored circuit blocks
    # against the dense solve, so a drift in either fails here.
    text = README.read_text(encoding="utf-8")
    assert "\n## Library quick start\n" in text
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert block is not None, "the quick start has no python block"
    exec(compile(block.group(1), f"{README.name} (Library quick start)", "exec"), {})
