"""The benchmark's tracer wraps kvcompose functions by name; a renamed or
deleted function would break ``perfbench/run.py --trace 1`` unseen."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/ is not in this checkout")
def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"kvcompose.{module}.{name}"
        for module, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"kvcompose.{module}"), name, None))
    ]
    assert missing == []
