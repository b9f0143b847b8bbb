"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    # "print(...)  # expected, remark": the text before the first comma is the output
    expected = [line.split("#", 1)[1].split(",")[0].strip() for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["Feasibility.QUASI_ONLY", "-1/2"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
