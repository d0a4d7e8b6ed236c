"""README's Quick start runs as printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The first ``python`` block under README's Quick start heading."""
    section = README.read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs():
    """The block runs, and the numbers its comments print hold: the plane
    wave solves the system, and the gauge pair matches."""
    namespace = {}
    exec(compile(quick_start(), "README.md (Quick start)", "exec"), namespace)
    res = namespace["res"]
    assert res.shape == (2, 4, 4) and abs(res).max() < 1e-8
    direct, predicted = namespace["direct"], namespace["predicted"]
    assert abs(direct - predicted).max() < 1e-8 * max(abs(predicted).max(), 1)
