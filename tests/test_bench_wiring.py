"""The benchmark's traced functions must exist where the benchmark looks them up.

``perfbench.workloads._present`` drops trace targets whose attribute is
missing, so a renamed or moved function would silently stop being traced
and its per-layer figures would read 0.  With the filter replaced by the
identity, every declared target must resolve.
"""

import sys
from pathlib import Path

import pytest

# The benchmark package lives at the repository root, next to src/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["wingtip-train", "scan-features", "scan-invariance"])
def test_every_trace_target_resolves(name, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "_present", lambda targets: list(targets))
    targets = workloads.WORKLOADS[name](seed=0, workdir=str(tmp_path)).targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({span})"
        for owner, attr, span, _ in targets
        if not hasattr(owner, attr)
    ]
    assert not missing, f"{name}: trace targets that do not resolve: {missing}"
