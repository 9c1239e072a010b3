"""Acceptance suite: one test per acceptance criterion.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s`` to see
them as they happen).  The synthetic strategy grid (criteria 4 and 5) is one
`run_grid`, which trains three models at full scale (truecasing reuses the
baseline model) and takes a minute or so; everything else is fast.
Criterion 6 needs CoNLL-2003 English data and is skipped unless
``CASENER_CONLL2003_DIR`` points at a directory containing ``eng.train`` and
``eng.testb``.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np
import pytest

from casener.corpus import Corpus, Scheme, TagSequence
from casener.crf import (
    TrainConfig,
    decode,
    log_likelihood_and_gradient,
    log_partition,
    score_sequence,
)
from casener.crf import _encode, _neg_ll_and_grad, _pack  # objective internals
from casener.evaluation import evaluate
from casener.harness import ExperimentConfig, Strategy, run_experiment, run_grid
from casener.synth import default_config
from casener.transforms import CaseVariant
from conftest import random_model, random_sentence, random_tagging
from oracles import (
    conlleval_counts,
    enumerate_best_legal_path_fast,
    enumerate_log_partition_fast,
    finite_difference_flat,
)


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name}: {detail}"


TAG_SPACES = (
    ("O", "S-A"),
    ("O", "S-A", "S-B"),
    ("O", "B-A", "I-A", "E-A"),
    ("O", "B-A", "I-A", "E-A", "S-A"),
)


def test_criterion_1_exact_inference():
    """log_partition matches enumeration within 1e-9; decode matches the
    brute-force legal argmax, on 200 random models with n<=6, K<=5."""
    rng = random.Random(202)
    start = time.time()
    max_z_err = 0.0
    max_score_err = 0.0
    for trial in range(200):
        model = random_model(rng, tags=TAG_SPACES[trial % len(TAG_SPACES)])
        sentence = random_sentence(rng, max_len=6)
        z = log_partition(model, sentence)
        z_ref = enumerate_log_partition_fast(model, sentence)
        max_z_err = max(max_z_err, abs(z - z_ref))
        got = decode(model, sentence)
        want_tags, want_score = enumerate_best_legal_path_fast(model, sentence)
        got_score = score_sequence(model, sentence, got)
        max_score_err = max(max_score_err, abs(got_score - want_score))
        assert got.tags == want_tags, (trial, got.tags, want_tags)
    elapsed = time.time() - start
    ok = max_z_err < 1e-9 and max_score_err < 1e-9 and elapsed < 60
    _criterion(
        "criterion 1 (exact inference)",
        ok,
        f"200 models: max |logZ err| {max_z_err:.2e}, "
        f"max |decode score err| {max_score_err:.2e}, paths equal, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_gradient_correctness():
    """Analytic gradient vs central finite differences (step 1e-5): max
    relative error < 1e-4 over coordinates >= 1e-8, on 20 tiny models."""
    from casener.corpus import AnnotatedSentence

    rng = random.Random(303)
    start = time.time()
    worst = 0.0
    for trial in range(20):
        corpus = Corpus(tuple(
            AnnotatedSentence(s, random_tagging(rng, len(s)))
            for s in (random_sentence(rng, max_len=5) for _ in range(5))
        ))
        model = random_model(rng, corpus, scale=0.5)
        sigma = rng.choice([0.7, 1.0, 2.0])
        enc = _encode(corpus, model.feature_map, model.template_set)
        w = _pack(model.emission, model.begin, model.end, model.transition)

        ll, grad = log_likelihood_and_gradient(model, corpus, sigma)
        neg_ll, neg_grad = _neg_ll_and_grad(w, enc, sigma)
        assert abs(ll + neg_ll) < 1e-9  # public API agrees with objective
        assert np.allclose(grad, -neg_grad, atol=1e-12)

        numeric = finite_difference_flat(
            lambda v: -_neg_ll_and_grad(v, enc, sigma)[0], w, step=1e-5
        )
        mask = (np.abs(grad) >= 1e-8) | (np.abs(numeric) >= 1e-8)
        if mask.any():
            rel = np.abs(grad[mask] - numeric[mask]) / np.maximum(
                np.abs(numeric[mask]), 1e-8
            )
            worst = max(worst, float(rel.max()))
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 60
    _criterion(
        "criterion 2 (gradient correctness)",
        ok,
        f"20 models: max relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_metric_correctness():
    """evaluate() agrees exactly with an independent conlleval-style span
    counter on 50 randomized corpora plus degenerate cases."""
    rng = random.Random(404)
    checked = 0
    for trial in range(50):
        n = rng.randint(1, 12)
        gold = [random_tagging(rng, rng.randint(1, 9)) for _ in range(n)]
        if trial == 0:  # zero-prediction degenerate case
            pred = [
                TagSequence(("O",) * len(g), Scheme.IOBES) for g in gold
            ]
        elif trial == 1:  # zero-gold degenerate case
            pred = [random_tagging(rng, len(g)) for g in gold]
            gold = [TagSequence(("O",) * len(g), Scheme.IOBES) for g in gold]
        else:
            pred = [random_tagging(rng, len(g)) for g in gold]
        metrics = evaluate(pred, gold)
        tp, pred_n, gold_n, per_type = conlleval_counts(pred, gold)
        assert (metrics.true_positives, metrics.predicted_count,
                metrics.gold_count) == (tp, pred_n, gold_n)
        for etype, counts in per_type.items():
            sub = metrics.per_type[etype]
            assert (sub.true_positives, sub.predicted_count,
                    sub.gold_count) == counts
        checked += 1
    _criterion(
        "criterion 3 (metric correctness)",
        checked == 50,
        f"{checked}/50 corpora agree exactly with the conlleval oracle, "
        f"including zero-prediction and zero-gold cases",
    )


def _strategy_grids(**data) -> dict:
    """Strategy -> F1 grid, from one `run_grid` of all four strategies on
    the data source `data` (ExperimentConfig fields), stock hyperparameters."""
    results, _ = run_grid(
        [ExperimentConfig(strategy=strategy, **data) for strategy in Strategy]
    )
    return {result.config.strategy: result.grid for result in results}


@pytest.fixture(scope="module")
def synthetic_grid():
    """The full strategy grid on the standard synthetic dataset
    (seed 42, 2000 train / 500 test, noise rate 0.05)."""
    start = time.time()
    grids = _strategy_grids(synth=default_config())
    return grids, time.time() - start


def _f1(grids, strategy, variant) -> float:
    return 100.0 * grids[strategy][variant].f1


def test_criterion_4_strategy_invariants(synthetic_grid):
    grids, _ = synthetic_grid
    rows = {}
    for strategy in (Strategy.CASELESS, Strategy.TRUECASING):
        cells = [grids[strategy][v].f1 for v in CaseVariant]
        rows[strategy.value] = cells
    ok = all(cells[0] == cells[1] == cells[2] for cells in rows.values())
    detail = "; ".join(
        f"{name}: {100 * cells[0]:.2f}/{100 * cells[1]:.2f}/{100 * cells[2]:.2f}"
        for name, cells in rows.items()
    )
    _criterion(
        "criterion 4 (caseless/truecasing rows constant)", ok, detail
    )


def test_criterion_5a_baseline_degrades(synthetic_grid):
    grids, _ = synthetic_grid
    orig = _f1(grids, Strategy.BASELINE, CaseVariant.ORIGINAL)
    lower = _f1(grids, Strategy.BASELINE, CaseVariant.LOWER)
    upper = _f1(grids, Strategy.BASELINE, CaseVariant.UPPER)
    ok = (orig - lower >= 10.0) and (orig - upper >= 10.0)
    _criterion(
        "criterion 5a (baseline brittle to case noise)",
        ok,
        f"baseline F1 {orig:.1f}/{lower:.1f}/{upper:.1f}: drops "
        f"{orig - lower:.1f} and {orig - upper:.1f} points (need >= 10)",
    )


def test_criterion_5b_augmentation_robust(synthetic_grid):
    grids, _ = synthetic_grid
    aug_l = _f1(grids, Strategy.AUGMENT, CaseVariant.LOWER)
    aug_u = _f1(grids, Strategy.AUGMENT, CaseVariant.UPPER)
    base_l = _f1(grids, Strategy.BASELINE, CaseVariant.LOWER)
    base_u = _f1(grids, Strategy.BASELINE, CaseVariant.UPPER)
    ok = (aug_l >= base_l + 10.0) and (aug_u >= base_u + 10.0)
    _criterion(
        "criterion 5b (augmentation recovers robustness)",
        ok,
        f"lower {aug_l:.1f} vs {base_l:.1f} (+{aug_l - base_l:.1f}), "
        f"upper {aug_u:.1f} vs {base_u:.1f} (+{aug_u - base_u:.1f}) "
        f"(need >= +10)",
    )


def test_criterion_5c_augmentation_preserves_original(synthetic_grid):
    grids, _ = synthetic_grid
    aug = _f1(grids, Strategy.AUGMENT, CaseVariant.ORIGINAL)
    base = _f1(grids, Strategy.BASELINE, CaseVariant.ORIGINAL)
    ok = aug >= base - 2.0
    _criterion(
        "criterion 5c (augmentation preserves well-formed performance)",
        ok,
        f"augment {aug:.1f} vs baseline {base:.1f} on original "
        f"({aug - base:+.1f} points, need >= -2)",
    )


def test_criterion_5d_augmentation_beats_caseless(synthetic_grid):
    grids, _ = synthetic_grid
    aug = _f1(grids, Strategy.AUGMENT, CaseVariant.ORIGINAL)
    caseless = _f1(grids, Strategy.CASELESS, CaseVariant.ORIGINAL)
    ok = aug >= caseless + 2.0
    _criterion(
        "criterion 5d (augmentation beats caseless on original)",
        ok,
        f"augment {aug:.1f} vs caseless {caseless:.1f} "
        f"({aug - caseless:+.1f} points, need >= +2)",
    )


def test_criterion_5_runtime(synthetic_grid):
    _, elapsed = synthetic_grid
    _criterion(
        "criterion 5 (grid runtime)",
        elapsed < 600,
        f"full 4-strategy grid trained and scored in {elapsed:.0f}s "
        f"(target < 600s)",
    )


CONLL_DIR = os.environ.get("CASENER_CONLL2003_DIR")


@pytest.mark.skipif(
    not CONLL_DIR,
    reason="set CASENER_CONLL2003_DIR to a directory with eng.train/eng.testb "
    "to run the conditional CoNLL-2003 check",
)
def test_criterion_6_conll2003_orderings():
    """With user-supplied CoNLL-2003 English data: the 4x3 grid completes and
    reproduces the published ordering relations; exact F1 values are reported
    but not asserted."""
    train_path = os.path.join(CONLL_DIR, "eng.train")
    test_path = os.path.join(CONLL_DIR, "eng.testb")
    assert os.path.exists(train_path) and os.path.exists(test_path)
    start = time.time()
    grids = _strategy_grids(train_path=train_path, test_path=test_path)
    elapsed = time.time() - start
    f1 = lambda s, v: 100 * grids[s][v].f1  # noqa: E731
    O, L, U = CaseVariant.ORIGINAL, CaseVariant.LOWER, CaseVariant.UPPER
    for strategy in Strategy:
        print(
            f"\nCoNLL-2003 {strategy.value}: "
            f"{f1(strategy, O):.1f}/{f1(strategy, L):.1f}/{f1(strategy, U):.1f}"
        )
    orderings = (
        f1(Strategy.BASELINE, O) > f1(Strategy.AUGMENT, O),
        f1(Strategy.AUGMENT, O) > f1(Strategy.CASELESS, O),
        f1(Strategy.AUGMENT, L) > f1(Strategy.BASELINE, L),
        f1(Strategy.AUGMENT, U) > f1(Strategy.BASELINE, U),
    )
    ok = all(orderings) and elapsed < 4 * 3600
    _criterion(
        "criterion 6 (CoNLL-2003 orderings)",
        ok,
        f"orderings {orderings}, grid completed in {elapsed / 60:.0f} min",
    )


def test_criterion_7_determinism(tmp_path):
    """Identical config and seed produce byte-identical models and reports."""
    outputs = []
    for name in ("run-a", "run-b"):
        base = str(tmp_path / name)
        model_path = str(tmp_path / (name + ".crf"))
        run_experiment(ExperimentConfig(
            strategy=Strategy.AUGMENT,
            synth=default_config(seed=13, train_sentences=200,
                                 test_sentences=50),
            train_config=TrainConfig(max_epochs=60),
            seed=13,
            report_path=base,
            model_path=model_path,
        ))
        outputs.append((
            open(base + ".txt", "rb").read(),
            open(base + ".kv", "rb").read(),
            open(model_path, "rb").read(),
        ))
    ok = outputs[0] == outputs[1]
    _criterion(
        "criterion 7 (determinism)",
        ok,
        f"re-run byte-identical: report.txt {len(outputs[0][0])}B, "
        f"report.kv {len(outputs[0][1])}B, model {len(outputs[0][2])}B",
    )
