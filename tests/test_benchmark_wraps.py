"""The benchmark's traced run wraps library functions at named module attributes.

perfbench/layers.py lists them in WRAPS. Deleting or renaming one of those
attributes breaks only the benchmark's own suite, which the default test run
does not collect; this test catches it here. It reads perfbench/ and changes
nothing there.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from layers import WRAPS  # noqa: E402
from tracer import _resolve  # noqa: E402


def test_every_benchmark_wrap_resolves():
    assert WRAPS
    missing = []
    for module, path, _, _ in WRAPS:
        try:
            owner, attr = _resolve(module, path)
            ok = callable(getattr(owner, attr))
        except (ImportError, AttributeError):
            ok = False
        if not ok:
            missing.append(f"{module}.{path}")
    assert not missing, f"benchmark wraps with no target: {missing}"
