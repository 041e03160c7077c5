"""The README's Python quick start runs as written, so the documented API
cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(
        r"## Quick start \(Python\)\n+```python\n(.*?)```", README.read_text(), re.S
    )
    assert block, "README has no Python quick-start block"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["params"].scale == "reduced"
    assert namespace["fixed"].converged
    assert namespace["detector"].kind == "detector"
    assert capsys.readouterr().out.startswith("True ")
