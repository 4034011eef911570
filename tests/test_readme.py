from __future__ import annotations

import re
from pathlib import Path

from stellarpair.inducedness import STRONGLY_INDUCED

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block is not None, "README.md has no python block"
    namespace: dict = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["pair"].status.verdict == STRONGLY_INDUCED
    assert all(step.strongly_induced for step in namespace["report"].steps)
