"""Tests of the benchmark itself: inputs, checks, tracer and the command.

Run from the repository root:  python3 -m pytest perfbench
The tests that start the benchmark command take several minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from casener import synth  # noqa: E402
from casener.corpus import Scheme, TagValidationError, validate_tags  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

COUNTS = (
    "crf.objective_calls",
    "crf.lbfgs_iterations.baseline",
    "features.extract_calls_per_train_token",
    "crf.models_trained",
    "crf.distinct_models_ratio",
    "crf.model_bytes",
)


def run_command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("cls", [workloads.GridSynth, workloads.TrainLong])
def test_inputs_are_deterministic_per_seed(cls):
    a, b, c = cls(3), cls(3), cls(4)
    for wl in (a, b, c):
        wl.setup()
    if cls is workloads.GridSynth:
        assert (a.train, a.corpora, a.configs) == (b.train, b.corpora, b.configs)
        assert a.train != c.train
    else:
        assert a.docs == b.docs
        assert a.docs != c.docs


def test_tag_bulk_inputs_are_deterministic_per_seed():
    assert workloads.TagBulk(3).corpora() == workloads.TagBulk(3).corpora()
    assert workloads.TagBulk(3).corpora() != workloads.TagBulk(4).corpora()


@pytest.mark.parametrize("seed", [7, 42])
def test_joined_documents_are_long_valid_iobes(seed):
    train, _ = synth.generate(synth.default_config(seed))
    docs = workloads.join_documents(train, seed)
    lengths = [len(ann.sentence) for ann in docs]
    assert len(set(lengths)) >= 50
    assert sum(lengths) == workloads.tokens(train)
    for ann in docs:
        validate_tags(ann.gold.tags, Scheme.IOBES)
        assert workloads.iobes_legal(ann.gold.tags)
    # Every document but the last joins 2-12 whole sentences, in order.
    assert [tok for ann in docs for tok in ann.sentence] == [
        tok for ann in train for tok in ann.sentence
    ]
    assert min(lengths[:-1]) >= 2 * 5 and max(lengths) <= 12 * 8


_TAGS = st.sampled_from(["O", "B-PER", "I-PER", "E-PER", "S-PER", "B-LOC", "E-LOC", "S-LOC"])


@given(st.lists(_TAGS, min_size=1, max_size=8))
def test_iobes_check_agrees_with_package_validator(tags):
    try:
        validate_tags(tags, Scheme.IOBES)
        legal = True
    except TagValidationError:
        legal = False
    assert workloads.iobes_legal(tuple(tags)) == legal


def test_tracer_fails_loudly_on_a_missing_name():
    t = tracer.Tracer(tracer.TARGETS + (("casener.crf", "no_such_name", "x", None, None),))
    import casener.crf as crf

    original = crf.decode
    with pytest.raises(tracer.TraceTargetError, match="no_such_name"):
        with t.installed():
            pass
    assert crf.decode is original  # what was wrapped before the failure is restored


def test_tracer_wraps_only_while_installed():
    import casener.crf as crf

    original = crf.decode
    t = tracer.Tracer()
    with t.installed():
        assert crf.decode is not original
        train, _ = synth.generate(synth.default_config(1, train_sentences=20, test_sentences=1))
        model = crf.train(train, crf.TemplateSet.CASE_AWARE, crf.TrainConfig(max_epochs=3))
        crf.decode(model, train.sentences[0].sentence)
    assert crf.decode is original
    assert t.stat("crf.train").calls == 1
    assert t.stat("crf.decode").work == len(train.sentences[0].sentence)
    train_tokens = workloads.tokens(train)
    assert t.stat("features.fit").work == train_tokens
    assert t.calls_under("features.extract", "features.fit") == train_tokens
    assert t.calls_under("features.extract", "crf.encode") == train_tokens
    assert t.stat("crf.objective").calls >= 1


def test_tracer_can_wrap_only_some_spans():
    import casener.crf as crf

    train, save = crf.train, crf.save
    with tracer.Tracer().installed(only=workloads.CHECK_SPANS):
        assert crf.train is train and crf.save is not save
    assert crf.save is save


def test_without_the_package_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_command("--workload", "tag_bulk", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_every_workload_passes_its_checks_on_seed_7():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        result = result_of(
            run_command("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
        )
        assert result["failed"] == 0 and result["correct"], workload
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(v["value"] > 0 for v in result["metrics"].values())


def iteration_lines(proc: subprocess.CompletedProcess) -> list[str]:
    """Every strategy's L-BFGS iteration count, as printed or in the JSON."""
    return [line for line in proc.stdout.splitlines() if line.startswith("crf.lbfgs_iterations.")]


@pytest.mark.parametrize(
    "workload, models_trained, distinct_ratio",
    [("grid_synth", 4, 0.75), ("train_long", 1, 1.0)],
)
def test_traced_counts_repeat_exactly_between_runs(workload, models_trained, distinct_ratio):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = ("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    procs = run_command(*args), run_command(*args)
    first, second = map(result_of, procs)
    assert first["failed"] == second["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    lines = iteration_lines(procs[0])
    assert len(lines) == (4 if workload == "grid_synth" else 1)
    assert lines == iteration_lines(procs[1])
    assert first["metrics"]["features.extract_calls_per_train_token"]["value"] == 2.0
    assert first["metrics"]["crf.models_trained"]["value"] == models_trained
    assert first["metrics"]["crf.distinct_models_ratio"]["value"] == distinct_ratio
