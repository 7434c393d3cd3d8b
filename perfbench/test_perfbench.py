"""Tests of the benchmark's own output checks and self-time arithmetic."""
import json
from pathlib import Path

import numpy as np
import pytest

import checks
from spans import Tracer, layer_metrics, self_times


def _row(**kw):
    row = {"regime": "no_global_large_data", "T_bu": "3.2", "satisfied": "", "error": ""}
    row.update(kw)
    return row


def test_any_size_row_with_infinite_lifespan_fails():
    assert checks.sweep_row_failed(_row(regime=checks.ANY_SIZE, T_bu="inf"))
    assert not checks.sweep_row_failed(_row(regime=checks.ANY_SIZE, T_bu="1.7"))
    assert not checks.sweep_row_failed(_row(T_bu="inf"))  # large data may be inconclusive


def test_error_or_violated_bound_fails_a_row():
    assert checks.sweep_row_failed(_row(error="ValueError: boom"))
    assert checks.sweep_row_failed(_row(satisfied="false"))
    assert not checks.sweep_row_failed(_row(satisfied="true"))


def test_l2_law_rejects_a_field_scaled_by_1_001():
    rng = np.random.default_rng(0)
    psi1 = rng.standard_normal((4, 8, 8, 8)) + 1j * rng.standard_normal((4, 8, 8, 8))
    t, ell = 5.0, 0.5
    psi_t = psi1 * t ** (-1.5 * ell)
    assert checks.l2_law_residual(psi_t, psi1, t, ell) <= checks.L2_LAW_TOL
    assert checks.l2_law_residual(1.001 * psi_t, psi1, t, ell) > checks.L2_LAW_TOL


def test_snapshot_round_trip_and_truncation(tmp_path):
    data = np.arange(4 * 8, dtype=complex).reshape(4, 8) * (1 + 2j)
    path = tmp_path / "s.fdrc"
    checks.write_snapshot(path, data, 16.0, 1.5)
    back, box, time = checks.read_snapshot(path)
    assert np.array_equal(back, data) and (box, time) == (16.0, 1.5)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError):
        checks.read_snapshot(path)


def test_self_time_is_duration_minus_children():
    spans = [
        ["parent", 0.0, 10.0, -1, 0],
        ["child", 1.0, 3.0, 0, 0],
        ["grandchild", 1.5, 2.0, 1, 0],
        ["child", 5.0, 6.0, 0, 0],
    ]
    assert self_times(spans) == pytest.approx([7.0, 1.5, 0.5, 1.0])


def test_traced_metrics_are_the_declared_per_layer_metrics():
    declared = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    emitted = dict(layer_metrics(Tracer(), 1, 0.0), trace_overhead_s=(0.0, "s"))
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (_, unit) in emitted.items()}
