"""Tests of the benchmark's own machinery: wrapping, self times and counts.

Run from the repository root:  python3 -m pytest perfbench
Each workload runs at a reduced size so the whole file takes a few seconds.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import LIBRARY_SPANS, PAIR_FUNCTIONS, Tracer  # noqa: E402
from workloads import Certify, SimLong, Stream, Sweep  # noqa: E402

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

SMALL = {
    "sim-long": lambda lib, out: SimLong(lib, 7, out, horizon=0.6, dt=5e-4),
    "certify": lambda lib, out: Certify(lib, 7, out, n_clean=60, n_mutant=40),
    "sweep": lambda lib, out: Sweep(lib, 7, out, n_lambda2=2, error_horizon=0.3),
    "stream": lambda lib, out: Stream(lib, 7, out, channels=4),
}


@pytest.fixture
def lib():
    return run.load_library()


def traced(wl, n_ops):
    """Run `n_ops` traced ops the way run.py does; returns the tracer and the run's stats."""
    tracer = Tracer()
    try:
        tracer.instrument(wl.lib)
        for pair in wl.pairs():
            tracer.instrument_pair(pair)
        wl.wrap_input = lambda fn: tracer.wrap("inputs.eval", fn)
        stats = run.run_ops(wl, 0.0, n_ops, run.HostSpeed(), tracer)
    finally:
        tracer.restore()
    return tracer, stats


def test_wrappers_restore_originals(lib, tmp_path):
    wl = SMALL["stream"](lib, tmp_path)
    originals = {
        (module, attr): getattr(getattr(lib, module), attr)
        for module, attrs, _ in LIBRARY_SPANS
        for attr in attrs
    }
    pair = wl.pairs()[0]
    pair_originals = {attr: getattr(pair, attr) for attr in PAIR_FUNCTIONS}

    tracer = Tracer()
    tracer.instrument(lib)
    tracer.instrument_pair(pair)
    assert all(getattr(getattr(lib, m), a) is not fn for (m, a), fn in originals.items())
    assert "u" in vars(pair)
    tracer.restore()

    for (module, attr), fn in originals.items():
        assert getattr(getattr(lib, module), attr) is fn, f"{module}.{attr} not restored"
    for attr, fn in pair_originals.items():
        assert getattr(pair, attr) is fn
    assert "u" not in vars(pair)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_layer_self_times_within_op_time(lib, tmp_path, name):
    tracer, stats = traced(SMALL[name](lib, tmp_path), 2)
    assert not stats.problems, stats.problems
    sp = tracer.spans()
    op_id = tracer.names.index("op")
    is_op = sp["name"] == op_id
    assert np.all(sp["self_ns"] >= 0)
    for k in range(2):
        op_ns = float((sp["end"] - sp["start"])[is_op & (sp["op"] == k)].sum())
        layers_ns = float(sp["self_ns"][~is_op & (sp["op"] == k)].sum())
        assert 0 < layers_ns <= op_ns


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_between_traced_runs(lib, tmp_path, name):
    def counts():
        wl = SMALL[name](lib, tmp_path)
        n_ops = min(wl.count_ops, 20)
        tracer, stats = traced(wl, n_ops + 1)
        assert not stats.problems, stats.problems
        metrics = run.layer_metrics(tracer, stats, stats.times, n_ops)
        return {k: v for k, (v, unit) in metrics.items() if unit != "s"}

    first, second = counts(), counts()
    assert first == second
    assert any(v > 0 for k, v in first.items() if k.endswith(".calls"))


def test_solve_sigma_calls_match_implicit_steps(lib, tmp_path):
    tracer, stats = traced(SMALL["sim-long"](lib, tmp_path), 1)
    metrics = run.layer_metrics(tracer, stats, stats.times, 1)
    assert metrics["harness.steps"][0] == 1200
    assert metrics["differentiator.solve_sigma.calls"][0] == metrics["harness.steps"][0]
