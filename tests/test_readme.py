"""README states facts that the code fixes; these tests keep the two equal."""

import re
from pathlib import Path

from casener.crf import _VERSION as MODEL_VERSION
from casener.truecase import _VERSION as TRUECASER_VERSION

_README = Path(__file__).resolve().parent.parent / "README.md"


def test_saved_files_names_the_format_versions():
    section = _README.read_text("utf-8").split("\n## Saved files\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    found = re.search(
        r"format\s+version:\s+(\d+)\s+for\s+models\s+and\s+(\d+)\s+for\s+"
        r"truecasers", section,
    )
    assert found, "README's Saved files section no longer names the versions"
    assert (int(found[1]), int(found[2])) == (MODEL_VERSION,
                                            TRUECASER_VERSION)


def test_python_api_block_prints_the_quick_start_baseline_row(capsys):
    """The Python API example trains the quick-start baseline, so the grid
    it prints is that row of the quick-start report."""
    text = _README.read_text("utf-8")
    row = re.search(r"\n# baseline\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\n", text)
    assert row, "README's quick start no longer shows the baseline row"
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "README's Python API section has no python block"
    exec(compile(block[1], "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[:3] == [f"{variant} {f1}" for variant, f1 in
                           zip(("original", "lower", "upper"), row.groups())]
