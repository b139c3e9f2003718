"""The README's library and command-line examples run and print what the README shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from sonsixj.cli import main

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


def command_line_examples():
    """(argv, expected stdout) for each ``$ sonsixj ...`` example of the Command line section."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line"):text.index("## Library example")]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = []
    for chunk in block.split("$ sonsixj ")[1:]:
        command, _, output = chunk.partition("\n")
        examples.append((shlex.split(command), output.rstrip("\n") + "\n"))
    return examples


EXAMPLES = command_line_examples()


def test_command_line_examples_are_all_found():
    kinds = [argv[0] for argv, _ in EXAMPLES]
    assert kinds == ["sixj", "threej", "sixj", "calpha", "dim", "sp_u", "sp_dim", "orbit", "verify", "sweep"]


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_command_line_example_prints_what_the_readme_shows(capsys, argv, expected):
    # "..." stands for anything, and verify's elapsed time varies from run to run
    def mask(text):
        return re.sub(r"\(\d+\.\ds\)", "(time)", text)

    pattern = re.escape(mask(expected)).replace(re.escape("..."), ".*")
    assert main(argv) == 0
    out = mask(capsys.readouterr().out)
    assert re.fullmatch(pattern, out, re.S), out[:500]
