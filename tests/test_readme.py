"""The README's quick start runs against the current API."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    reserves, ratio = out.getvalue().splitlines()
    # the spike at 400 is ignored: the reserve stays near Exp(1)'s 1
    assert 0.9 < float(reserves.strip("[]")) < 1.0
    assert 0.999 < float(ratio) <= 1.0
