"""`lbfgs.minimize` takes scipy's L-BFGS-B iterates.

Each case runs both optimizers from the same start and requires equal
iteration and evaluation counts, equal success, and points equal to a
relative 1e-6.  The cases are well conditioned enough that rounding stays
at rounding level.  Chaotic ones are left out: the direction's inner
products round differently in the two codes, and on some problems that
difference grows until the paths part.  From (-1, 2), Beale's function
took 179 iterations and 249 evaluations under scipy and 1,396 and 1,910
here; Rosenbrock's with n = 30 from the first start below took 172/207
and 174/204.  In both the iterates first differed by more than 1e-12 after
17 and 53 evaluations and then drifted apart geometrically.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from casener import crf, lbfgs
from casener.harness import Strategy, training_view
from casener.synth import default_config, generate

#: scipy's default L-BFGS-B `maxiter` and `ftol`.
_SCIPY_MAXITER, _SCIPY_FTOL = 15000, 2.220446049250313e-09


def _assert_same_as_scipy(fg, x0, max_iterations=_SCIPY_MAXITER,
                          ftol=_SCIPY_FTOL):
    ref = scipy.optimize.minimize(
        fg, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": max_iterations, "ftol": ftol},
    )
    got = lbfgs.minimize(fg, x0, max_iterations, ftol)
    assert (got.nit, got.nfev, got.converged) == (ref.nit, ref.nfev,
                                                  ref.success)
    np.testing.assert_allclose(got.x, ref.x, rtol=1e-6,
                               atol=1e-6 * np.abs(ref.x).max())
    return got


def _rosenbrock(x):
    return float(scipy.optimize.rosen(x)), scipy.optimize.rosen_der(x)


@pytest.mark.parametrize("strategy, nit, nfev", [
    (Strategy.BASELINE, 41, 43),
    (Strategy.CASELESS, 43, 49),
    (Strategy.AUGMENT, 66, 76),
])
def test_seed_42_training_problems(strategy, nit, nfev):
    # The merged problem `crf.train` hands the optimizer, at TrainConfig's
    # defaults; the counts are the ones the seed-42 reports print.
    train, _ = generate(default_config(seed=42))
    corpus, template_set = training_view(train, strategy)
    enc, _ = crf._merged(crf._encoded(corpus, template_set)[1])
    cfg = crf.TrainConfig()
    got = _assert_same_as_scipy(
        lambda w: crf._neg_ll_and_grad(w, enc, cfg.l2_sigma),
        np.zeros_like(enc.observed), cfg.max_epochs, cfg.tolerance,
    )
    assert (got.nit, got.nfev, got.converged) == (nit, nfev, True)


@pytest.mark.parametrize("n", [2, 5, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rosenbrock(n, seed):
    _assert_same_as_scipy(
        _rosenbrock, np.random.default_rng(seed).uniform(-2.0, 2.0, n)
    )


@pytest.mark.parametrize("n", [5, 50])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_convex_quadratic(n, seed):
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((n, n))
    a = root @ root.T + 0.1 * n * np.eye(n)
    b = rng.standard_normal(n)
    _assert_same_as_scipy(
        lambda x: (float(0.5 * x @ a @ x - b @ x), a @ x - b), np.zeros(n)
    )


def test_iteration_cap_is_not_convergence():
    got = _assert_same_as_scipy(_rosenbrock, np.array([-1.2, 1.0]),
                                max_iterations=5)
    assert (got.nit, got.converged) == (5, False)


def test_failed_line_search_and_repeated_points():
    # The gradient points uphill, so every trial raises f and the search
    # shrinks its step until x + stp * d rounds to x, which the memo
    # evaluates once: scipy stops after 18 evaluations, converged False.
    calls = []

    def uphill(x):
        calls.append(x)
        return float(x @ x), -2.0 * x

    got = _assert_same_as_scipy(uphill, np.ones(3))
    assert (got.nit, got.nfev, got.converged) == (0, 18, False)
    assert len(calls) == 2 * got.nfev  # scipy's run and this one
    np.testing.assert_array_equal(got.x, np.ones(3))


def test_start_at_a_stationary_point():
    got = _assert_same_as_scipy(lambda x: (float(x @ x), 2.0 * x),
                                np.zeros(4))
    assert (got.nit, got.nfev, got.converged) == (0, 1, True)


def test_training_and_tagging_never_import_scipy_optimize(tmp_path):
    # `casener train` and `casener tag` run in a fresh interpreter; loading
    # scipy's optimizers there would cost every command about 27 MiB.
    script = (
        "import json, sys\n"
        "from casener.cli import main\n"
        "d = sys.argv[1]\n"
        "codes = [\n"
        "    main(['synth', '--seed', '7', '--train-sentences', '20',\n"
        "          '--test-sentences', '5', '--out-train', d + '/train.conll',\n"
        "          '--out-test', d + '/test.conll']),\n"
        "    main(['train', '--train', d + '/train.conll', '--model',\n"
        "          d + '/model.crf', '--max-epochs', '5']),\n"
        "    main(['tag', '--model', d + '/model.crf', '--input',\n"
        "          d + '/test.conll', '--output', d + '/tagged.conll']),\n"
        "]\n"
        "print(json.dumps([codes, 'scipy.optimize' in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env,
        cwd=Path(__file__).parent.parent, capture_output=True, text=True,
        check=True,
    )
    codes, imported = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert (tmp_path / "tagged.conll").stat().st_size > 0
    assert not imported
