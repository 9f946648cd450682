"""The benchmark's tracer rebinds functions of artloc by name; every name it
lists must still resolve, and the notes it reads off their arguments must
still be there, or `perfbench/run.py --trace 1` breaks."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _wrapped() -> tuple:
    """WRAPPED of perfbench/tracing.py, loaded without touching the file."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


def test_every_traced_name_resolves_in_artloc():
    wrapped = _wrapped()
    assert ("modules", "minimal_free_resolution", None, None) in wrapped
    assert ("modules", "ext1", None, None) in wrapped
    missing = []
    for layer, name, _, _ in wrapped:
        obj = importlib.import_module(f"artloc.{layer}")
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"artloc.{layer}.{name}")
    assert missing == []


def test_a_traced_job_runs(tmp_path):
    """One benchmark job under the tracer: its notes read `.rows`/`.cols` of
    what the linalg entry points receive, so a signature change there fails
    the job even when every name still resolves."""
    stats = tmp_path / "stats.json"
    argv = [sys.executable, "perfbench/job.py", str(stats), "0", "trace", "--"]
    argv += ["filt", "rings/goto.ring", "--depth", "2", "--quiet"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(stats.read_text())["raised"] is None
    assert np.load(str(stats) + ".spans.npy").size > 0
