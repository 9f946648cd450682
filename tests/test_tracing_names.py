"""The benchmark's tracer rebinds functions of artloc by name; every name it
lists must still resolve, or `perfbench/run.py --trace 1` breaks."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

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
