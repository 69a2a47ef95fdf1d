"""The benchmark's tracer wraps crosscap functions by name; they must exist."""
from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for name, targets in tracing.TARGETS.items():
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr}"
    tracer = tracing.Tracer()
    pairs = [pair for targets in tracing.TARGETS.values() for pair in targets]
    before = {(owner, attr): getattr(owner, attr) for owner, attr in pairs}
    tracer.install()
    try:
        for (owner, attr), fn in before.items():
            assert getattr(owner, attr) is not fn, f"{owner!r}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for (owner, attr), fn in before.items():
        assert getattr(owner, attr) is fn
