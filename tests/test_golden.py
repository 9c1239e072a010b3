"""Reports of a small synthetic run stay byte-identical to committed files.

The files under `tests/data` were written by

    casener grid --data synth --synth-seed 7 --synth-train-sentences 150 \
        --synth-test-sentences 40 --max-epochs 40 --report golden_grid
    casener experiment --strategy truecasing <the same data and training
        flags> --report golden_truecasing

A refactor that changes any byte of a report fails here; a change that
means to change the reports regenerates the files with these commands.
"""

from pathlib import Path

import pytest

from casener.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "data"
DATA_FLAGS = [
    "--data", "synth", "--synth-seed", "7", "--synth-train-sentences", "150",
    "--synth-test-sentences", "40", "--max-epochs", "40",
]


@pytest.mark.parametrize("name, command", [
    ("golden_grid", ["grid"]),
    ("golden_truecasing", ["experiment", "--strategy", "truecasing"]),
])
def test_reports_match_golden(tmp_path, capsys, name, command):
    report = tmp_path / name
    assert main([*command, *DATA_FLAGS, "--report", str(report)]) == EXIT_OK
    for suffix in (".txt", ".kv"):
        expected = (GOLDEN / name).with_suffix(suffix).read_bytes()
        assert report.with_suffix(suffix).read_bytes() == expected, suffix
