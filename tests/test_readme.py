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
