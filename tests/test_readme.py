"""README.md's documented library use, run as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_surface_block_runs_as_written(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert block, "no python block under '## Library surface'"
    monkeypatch.chdir(ROOT)  # the block loads codes/ by a relative path
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme"})
