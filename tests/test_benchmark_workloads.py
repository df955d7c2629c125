"""Every gated benchmark workload runs and passes its own check at tiny scale.

The benchmark's checks live in perfbench/checks.py and run only when the
benchmark does; a solver change that makes a gated op fail its check would
otherwise pass this suite. This test imports perfbench/ and changes nothing
there.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gated_workload_passes_its_check_at_tiny_scale(name, tmp_path):
    workload = WORKLOADS[name]("tiny", 1, str(tmp_path))
    inp = workload.make_input(0)
    result = workload.check(inp, workload.op(inp))
    assert result["ok"], result
