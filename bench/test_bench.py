"""The benchmark's own tests: span arithmetic, the output checker, and one
short op per workload.

Run from the root of a source checkout:  python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_subtracts_nested_children():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds a1 [20, 25)
    recorded = [
        spans.Span("runner.run", 0, 100),
        spans.Span("runner.synthesize", 10, 40, parent=0),
        spans.Span("channel.mix", 20, 25, parent=1),
        spans.Span("metrics.evm", 50, 90, parent=0),
    ]
    assert spans.self_times(recorded) == [100 - 30 - 40, 30 - 5, 5, 40]


def test_self_time_counts_overlapping_children_once():
    recorded = [
        spans.Span("cli.main", 0, 100),
        spans.Span("runner.run", 10, 60, parent=0),
        spans.Span("runner.run", 40, 80, parent=0),
        spans.Span("runner.run", 90, 120, parent=0),   # clipped at 100
    ]
    assert spans.self_times(recorded)[0] == 100 - 70 - 10


def test_tracer_records_parent_and_peak_alloc():
    import tracemalloc

    import numpy as np

    tracer = spans.Tracer()
    outer = tracer.wrap("x.outer", lambda: inner() and None)
    inner = tracer.wrap("x.inner", lambda: np.ones(1 << 20).sum())
    tracemalloc.start()
    try:
        tracer.memory = tracer.active = True
        outer()
    finally:
        tracer.active = False
        tracemalloc.stop()
    names = [s.name for s in tracer.spans]
    assert names == ["x.outer", "x.inner"]
    assert tracer.spans[1].parent == 0
    # the 8 MiB array is freed inside inner; both spans saw it
    for s in tracer.spans:
        assert s.peak_alloc >= 8 * 2**20
        assert s.end > s.start


def test_install_replaces_every_bound_name():
    import rfcancel.canceller as canceller
    import rfcancel.channel as channel
    import rfcancel.demod as demod
    import rfcancel.runner as runner

    tracer = spans.Tracer()
    original = channel.fractional_delay
    spans.install(tracer)
    try:
        for module in (channel, canceller, demod):
            assert module.fractional_delay.__wrapped__ is original
        assert runner.apply_path.__wrapped__ is not None
        assert runner.mix is channel.mix
    finally:
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name == "rfcancel" or name.startswith("rfcancel."):
                for attr, value in list(vars(module).items()):
                    if hasattr(value, "__wrapped__") and callable(value):
                        setattr(module, attr, value.__wrapped__)


@pytest.fixture(scope="module")
def long_record_report(tmp_path_factory):
    """One real report.json from the program on a 1x long_record input."""
    from rfcancel import cli

    _, trees = run.workload_inputs("long_record", None, quick=True, scale=1)
    tree = trees[0]
    d = tmp_path_factory.mktemp("lr")
    cfg = d / "in.yaml"
    import yaml

    cfg.write_text(yaml.safe_dump(tree))
    assert cli.main(["run", "--config", str(cfg), "--out", str(d)]) == 0
    return tree, json.loads((d / "report.json").read_text())


def test_checker_accepts_program_report(long_record_report):
    tree, report = long_record_report
    assert checks.check_run_report(tree, report, []) == []


@pytest.mark.parametrize("field,delta", [
    ("depth_db", 1.0),
    ("depth_db", -1.0),
    ("gain_re", 0.01),
    ("gain_im", -0.01),
    ("delay_s", 5e-12),
])
def test_checker_rejects_perturbed_report(long_record_report, field, delta):
    tree, report = long_record_report
    bad = json.loads(json.dumps(report))
    if field == "depth_db":
        bad[field] += delta
    else:
        bad["taps"][field] += delta
    assert checks.check_run_report(tree, bad, []) != []


def test_butterworth_matches_scipy():
    from scipy import signal

    f = [-7e9, 1e9, 9e9, 2.3e10]
    b, a = signal.butter(4, 1.0, analog=True)
    _, h = signal.freqs(b, a, worN=[abs(x) / 9e9 for x in f])
    want = [h_i.conjugate() if x < 0 else h_i for x, h_i in zip(f, h)]
    assert checks.butterworth(f, 9e9, 4) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_one_short_op(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--quick", "--trace", str(trace), "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
