"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_commented_outputs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert expected == ["9/400", "NearStretchedE"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
