"""The benchmark's traced functions must exist, and be called, where the benchmark looks them up.

``perfbench.workloads._present`` drops trace targets whose attribute is
missing, so a renamed or moved function would silently stop being traced
and its per-layer figures would read 0.  With the filter replaced by the
identity, every declared target must resolve.  A target that resolves but
is bypassed (the program calls the function through another module) reads
0 as well, so each workload also runs once on tiny inputs with every
target wrapped by a call counter.
"""

import sys
from pathlib import Path

import pytest

# The benchmark package lives at the repository root, next to src/.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import workloads  # noqa: E402
from sipf import riattn  # noqa: E402


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


# Tiny versions of the workloads' inputs: the code path stays the same.
_TINY = {
    "wingtip-train": {"EPOCHS": 1},
    "scan-features": {"N": 40},
    "scan-invariance": {"N": 40, "TRIALS": 2},
    "scan-encode": {"N": 300},
}


@pytest.mark.parametrize("name", sorted(_TINY))
def test_every_trace_target_is_called(name, monkeypatch, tmp_path):
    workload = workloads.WORKLOADS[name](seed=0, workdir=str(tmp_path))
    for attr, value in _TINY[name].items():
        setattr(workload, attr, value)
    workload.setup()
    counts = {}
    for owner, attr, span, _ in workload.targets():
        key = f"{getattr(owner, '__name__', 'lib')}.{attr} ({span})"
        counts[key] = 0

        def counted(*args, _fn=getattr(owner, attr), _key=key, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    assert workload.call() in (None, 0)
    uncalled = [key for key, n in counts.items() if n < 1]
    assert counts and not uncalled, f"{name}: trace targets never called: {uncalled}"


def test_scan_encode_repeats_bitwise_over_several_blocks(tmp_path):
    """Two scan-encode passes at 300 points, each over several attention blocks, through the workload's own check."""
    workload = workloads.WORKLOADS["scan-encode"](seed=0, workdir=str(tmp_path))
    workload.N = 300
    assert workload.N > 2 * riattn._CHUNK_ROWS
    workload.setup()
    records = []
    for _ in range(2):
        assert workload.call() is None
        records.append({"captured": workload.capture(), "failure": None})
    workload.check(records)
    assert [r["failure"] for r in records] == [None, None]


def test_wingtip_train_repeats_bytewise(tmp_path):
    """Two 2-epoch wingtip-train calls log byte-identical metrics, through the workload's own check."""
    workload = workloads.WORKLOADS["wingtip-train"](seed=0, workdir=str(tmp_path))
    workload.EPOCHS = 2
    workload.setup()
    records = []
    for _ in range(2):
        assert workload.call() is None
        records.append({"captured": workload.capture(), "failure": None})
    workload.check(records)
    assert [r["failure"] for r in records] == [None, None]
    assert len(workload.result.metrics) == 2


# Small versions of the scan commands; 600 points with k = 20 write about six CSV chunks.
_CHECKED = {
    "scan-features": {"N": 600},
    "scan-invariance": {"N": 600, "TRIALS": 2},
}


@pytest.mark.parametrize("name", sorted(_CHECKED))
def test_scan_command_passes_its_workload_check(name, tmp_path):
    """A 600-point scan command through the workload's own check: the features CSV against the
    reference digest built with plain ``format(v, ".17g")``, the invariance report against 1e-8."""
    workload = workloads.WORKLOADS[name](seed=0, workdir=str(tmp_path))
    for attr, value in _CHECKED[name].items():
        setattr(workload, attr, value)
    workload.setup()
    assert workload.call() == 0
    records = [{"captured": workload.capture(), "failure": None}]
    workload.check(records)
    assert records[0]["failure"] is None
