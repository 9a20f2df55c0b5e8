"""The benchmark's tracer wraps lpvsim functions by name: all must exist.

``perfbench/tracing.py`` imports only the standard library, so it loads by
file path here; a removed or renamed function fails this test instead of a
traced benchmark run.
"""

import importlib
import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, fn) for module, entries in tracing.LAYERS.items()
             for fn, _, _ in entries]
    assert len(names) >= 20
    missing = [f"lpvsim.{module}.{fn}" for module, fn in names
               if not callable(getattr(importlib.import_module(f"lpvsim.{module}"), fn, None))]
    assert missing == []
