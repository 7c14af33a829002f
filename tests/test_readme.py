"""The README's library snippet runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_thirty_seconds_of_library_snippet_runs():
    # The names it imports, the arguments it passes and the band it reads
    # must not go stale.
    section = README.read_text(encoding="utf-8").split(
        "## Thirty seconds of library", 1
    )[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    point, lo, hi = namespace["point"], namespace["lo"], namespace["hi"]
    assert ((lo <= point) & (point <= hi)).all()
