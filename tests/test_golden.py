"""Reports stay byte-identical to committed files.

The small-run files under `tests/data` were written by

    casener grid --data synth --synth-seed 7 --synth-train-sentences 150 \
        --synth-test-sentences 40 --max-epochs 40 --report golden_grid
    casener experiment --strategy truecasing <the same data and training
        flags> --report golden_truecasing

and the standard seed-42 grid's by

    casener grid --data synth --report golden_seed42

`golden_seed42.tags` holds, for each of that grid's 12 cells, the sha256
of its predicted tags (`_digest`), one `<strategy>.<variant>=<hex>` line
each; a failing run prints the lines it computed in its diff.

A refactor that changes any byte of a report, or any predicted tag of the
seed-42 grid, fails here; a change that means to change them regenerates
the files with these commands.
"""

import hashlib
from pathlib import Path

import pytest

from casener import evaluation
from casener.cli import EXIT_OK, main
from casener.harness import ExperimentConfig, Strategy, run_grid
from casener.synth import default_config
from casener.transforms import CaseVariant

GOLDEN = Path(__file__).resolve().parent / "data"
DATA_FLAGS = [
    "--data", "synth", "--synth-seed", "7", "--synth-train-sentences", "150",
    "--synth-test-sentences", "40", "--max-epochs", "40",
]


def _assert_report_matches(report: Path, name: str) -> None:
    for suffix in (".txt", ".kv"):
        # Strict UTF-8 decoding keeps the comparison byte for byte (it
        # maps distinct bytes to distinct text, and fails on invalid
        # bytes), and pytest prints a line diff of text.
        expected = (GOLDEN / name).with_suffix(suffix).read_bytes()
        written = report.with_suffix(suffix).read_bytes()
        assert written.decode("utf-8") == expected.decode("utf-8"), suffix


@pytest.mark.parametrize("name, command", [
    ("golden_grid", ["grid"]),
    ("golden_truecasing", ["experiment", "--strategy", "truecasing"]),
])
def test_reports_match_golden(tmp_path, capsys, name, command):
    report = tmp_path / name
    assert main([*command, *DATA_FLAGS, "--report", str(report)]) == EXIT_OK
    _assert_report_matches(report, name)


def _digest(predictions) -> str:
    """sha256 of one cell's tags: a line per sentence, tags space-separated."""
    text = "".join(" ".join(tags.tags) + "\n" for tags in predictions)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_seed42_grid_matches_golden(tmp_path, monkeypatch):
    # `variant_grid` tags each config's three variants in one `tag_corpus`
    # call, in `CaseVariant` order; the spy keeps what was scored.
    tagged = []
    tag_corpus = evaluation.tag_corpus

    def spy(*args, **kwargs):
        tagged.append(tag_corpus(*args, **kwargs))
        return tagged[-1]

    monkeypatch.setattr(evaluation, "tag_corpus", spy)
    report = tmp_path / "golden_seed42"
    configs = [ExperimentConfig(strategy, synth=default_config(42))
               for strategy in Strategy]
    results, text = run_grid(configs, report_path=str(report))

    _assert_report_matches(report, "golden_seed42")
    assert text == report.with_suffix(".txt").read_text("utf-8")
    assert len(tagged) == len(results)
    lines = []
    for result, predictions in zip(results, tagged):
        n = len(predictions) // len(CaseVariant)
        lines += [
            f"{result.config.strategy.value}.{variant.value}="
            f"{_digest(predictions[i * n : (i + 1) * n])}\n"
            for i, variant in enumerate(CaseVariant)
        ]
    expected = (GOLDEN / "golden_seed42.tags").read_text("utf-8")
    assert "".join(lines) == expected
