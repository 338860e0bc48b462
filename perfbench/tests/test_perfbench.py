"""Tests of the benchmark itself: seeded inputs, tracing wrappers, output checks.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, tracing
from perfbench import workloads as wl

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_same_cases(workload):
    assert wl.make_cases(workload, 7, 40) == wl.make_cases(workload, 7, 40)
    assert wl.make_cases(workload, 7, 40) != wl.make_cases(workload, 8, 40)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_custom_laws_sit_at_fixed_positions_with_alternating_signs(seed):
    cases = wl.make_cases("cert-batch", seed, 8 * wl.CUSTOM_PERIOD)
    custom = [c for c in cases if c.model.startswith("custom-")]
    assert [c.index for c in custom] == list(range(wl.CUSTOM_OFFSET, len(cases),
                                                   wl.CUSTOM_PERIOD))
    assert [c.model for c in custom] == ["custom-lopsided", "custom-odd-root"] * 4
    for law in ("custom-lopsided", "custom-odd-root"):
        signs = [c.psi1 > 0.0 for c in custom if c.model == law]
        assert signs == [False, True, False, True]
    # the first lopsided law at psi1 < 0 comes within the first few ops
    first = custom[0]
    assert first.index < 8 and first.model == "custom-lopsided" and first.psi1 < 0.0
    assert all(c.model in wl.CERT_POOL for c in cases if c not in custom)


@pytest.mark.parametrize("seed", [0, 5])
def test_each_case_period_holds_one_lopsided_negative_op(seed):
    period = wl.CASE_PERIOD["cert-batch"]
    cases = wl.make_cases("cert-batch", seed, 3 * period)
    for start in range(0, len(cases), period):
        block = cases[start:start + period]
        assert sum(c.model == "custom-lopsided" and c.psi1 < 0.0 for c in block) == 1


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_measure_ends_on_a_whole_case_period(workload):
    class InstantRunner:
        def __init__(self):
            self.wl, self.workload = wl, workload

        def one_op(self, index, tracer=None):
            return run.OpRecord(index, 1.0e-6, wl.Outcome(True))

    records = run.measure(InstantRunner(), 1.0e-9)
    assert len(records) == wl.CASE_PERIOD[workload]
    assert [r.index for r in records] == list(range(len(records)))


def test_case_ranges():
    for c in wl.make_cases("cert-batch", 3, 200):
        assert 1.0 <= c.r0 <= 20.0 and 0.02 <= abs(c.psi1) <= 4.0
    sweep = wl.make_cases("sweep-fine", 3, 16)
    assert [c.model for c in sweep[:4]] == list(wl.SWEEP_POOL) * 2
    for c in sweep:
        assert 1.0 <= c.r0 <= 4.0 and 0.1 <= abs(c.psi1) <= 4.0
    for c in wl.make_cases("verify-1m", 3, 8):
        assert c.r0 == 1.0 and 0.5 <= abs(c.psi1) <= 2.0


def _attribute_state():
    state = {}
    for module_name, cls_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        state[(module_name, cls_name, attr)] = vars(owner).get(attr)
    return state


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced op of each kind, at sizes small enough for a test."""
    from streamuniq import RadialGrid

    before = _attribute_state()
    models = wl.build_models("cert-batch")
    out_dir = str(tmp_path_factory.mktemp("verify") / "out")
    with tracing.Tracer() as tracer:
        assert _attribute_state() != before
        with tracer.recording(op=0):
            wl.cert_op(models, wl.Case(0, "classical-d0.25", 2.0, -0.7))
        steps = tracing.replay_rk_steps(tracer.spans)
        with tracer.recording():
            grid = RadialGrid.geometric(1.0, 1.5, 1025)
        with tracer.recording(op=1):
            wl.su_verify.continuity_sweep(models["classical-d0.25"], 1.0, [1.0, 1.01],
                                          r_max=1.5, grid=grid)
        with tracer.recording(op=2):
            code = wl.su_cli.main(["verify", "--nodes", "2049", "--out", out_dir])
    after = _attribute_state()
    return tracer, before, after, steps, code


def test_tracer_restores_every_attribute(traced_run):
    tracer, before, after, *_ = traced_run
    assert after == before
    assert tracer.missing == []


def test_span_self_times_are_nonnegative(traced_run):
    tracer = traced_run[0]
    assert tracer.spans
    assert all(t >= 0.0 for t in tracer.self_times())
    for s in tracer.spans:
        if s.parent is not None:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            assert parent.op == s.op


def test_traced_spans_cover_every_layer(traced_run):
    tracer, _, _, (step_s, same), code = traced_run
    assert code == 0
    names = {s.name for s in tracer.spans}
    for name in ("verify.analysis", "vorticity.validate", "vorticity.eval_grid",
                 "kernels.vorticity_grid", "quadrature.prefix", "kernels.prefix_moments",
                 "picard.solve", "picard.residual", "rk.solve", "kernels.rk_core",
                 "grids.build", "config.build", "cli.write_csv", "cli.write_atomic",
                 "svgplot.plot"):
        assert name in names
    assert same and step_s > 0.0
    layers = tracing.layer_metrics(tracer, 3, step_s, same, overhead_ms=0.0)
    assert set(layers) == {name for name, _ in tracing.LAYER_METRICS}
    assert layers["rk.dense_fill_valid"] == 1.0
    # verify writes two 2049-row trajectories and a 12-row trace
    assert layers["cli.csv_rows"] * 3 == 2 * 2049 + 12
    # one validation each in the analysis and the sweep, two in the CLI verify
    assert layers["vorticity.validate_calls"] * 3 == 4


def test_cert_check_reports_the_sign_defect_as_known():
    models = wl.build_models("cert-batch")
    case = wl.Case(7, "custom-lopsided", 2.0, -0.5)
    outcome = wl.cert_check(models, case, wl.cert_op(models, case))
    assert not outcome.ok and outcome.known_defect
    mirrored = wl.Case(7, "custom-lopsided", 2.0, 0.5)
    assert wl.cert_check(models, mirrored, wl.cert_op(models, mirrored)).ok


def test_sweep_check_accepts_a_small_sweep_and_rejects_a_flat_one():
    from streamuniq import RadialGrid

    models = wl.build_models("sweep-fine")
    case = wl.Case(0, "classical-d0.25", 1.5, 0.8)
    grid = RadialGrid.geometric(1.5, 2.25, 4097)
    rows = wl.sweep_op(models, case, grid)
    assert wl.sweep_check(models, case, rows).ok
    flat = [(d, 1.0e-3) for d, _ in rows]
    assert not wl.sweep_check(models, case, flat).ok


def test_tail_latency_leaves_ten_samples_beyond():
    assert run.tail_latency([0.1] * 19) is None
    pct, value = run.tail_latency([float(i) for i in range(100)])
    assert pct == 90.0 and value == 89.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cert-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
