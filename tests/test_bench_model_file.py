"""`scripts/bench_model_file.py` checks its arguments before it trains."""

import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def test_fewer_than_two_calls_rejected_before_training():
    # The quartiles of the per-call times need two calls.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "bench_model_file.py"),
         "--calls", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.endswith(
        "error: --calls must be at least 2: quartiles need two times\n"
    )
