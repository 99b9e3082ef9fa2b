"""The documented API: the README's library quickstart runs as written."""

import contextlib
import io
import re
from pathlib import Path

import cooptile

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in cooptile.__all__ if not hasattr(cooptile, name)]
    assert missing == []


def test_library_quickstart_runs():
    [block] = re.findall(r"^## Library quickstart\n\n```python\n(.*?)^```", README.read_text(),
                         flags=re.MULTILINE | re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    accuracy = float(out.getvalue())
    assert 0.8 <= accuracy <= 1.0
