"""Tests of the benchmark itself: span arithmetic, tracing transparency,
check functions and seeded inputs.  Run with  python3 -m pytest perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import workloads as wl
from equicheb.experiments import monic_classical_chebyshev, rate_experiment
from equicheb.series import ComplexPolynomial
from spans import Span, Tracer, layer_totals, self_times

HERE = Path(__file__).resolve().parent


class FakeClock:
    """Returns the queued instants one by one."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_times_of_a_synthetic_tree():
    # root [0,10] holds a [1,4] and b [5,9]; a holds c [2,3]
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("c", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    totals = layer_totals(spans)
    assert sum(t["self_s"] for t in totals.values()) == spans[0].duration


def test_overlapping_children_are_covered_once():
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 6.0, parent=0),
             Span("b", 4.0, 8.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_reentered_layer_counts_its_outer_span_only():
    spans = [Span("root", 0.0, 10.0), Span("x", 1.0, 9.0, parent=0),
             Span("x", 2.0, 5.0, parent=1)]
    totals = layer_totals(spans)
    assert totals["x"]["calls"] == 2
    assert totals["x"]["s"] == 8.0
    assert totals["x"]["self_s"] == 8.0


def test_tracer_nests_and_counts():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 3.0, 5.0, 6.0, 8.0))

    def fails():
        raise ValueError("no")

    with tracer.span("root"):
        tracer.wrap(lambda x: x + 1, "leaf", lambda res, a, k: {"value": res})(1)
        with pytest.raises(ValueError):
            tracer.wrap(fails, "leaf")()
    totals = layer_totals(tracer.spans)
    assert totals["leaf"] == {"calls": 2, "s": 3.0, "self_s": 3.0, "value": 2, "errors": 1}
    assert totals["root"]["self_s"] == 5.0


def test_tracing_leaves_iterations_and_checks_unchanged(tmp_path):
    w = wl.make_workload("rate", 0, tmp_path)
    plain = w.run_pass(wl.Api())
    tracer = Tracer()
    with wl.instrumented(tracer) as api:
        with tracer.span("bench"):
            traced = w.run_pass(api)
    totals = layer_totals(tracer.spans)
    metrics = wl.layer_metrics(totals, traced, tracer.spans[0].duration)
    untraced_iters = sum(
        sol.iterations
        for n in (3, 5)
        for sol in rate_experiment(w.families["bernoulli"], n, w.levels["rate"],
                                   opts=wl.RATE_OPTS, M=512).solutions
    )
    assert metrics["minimax.lawson_iters"] == untraced_iters
    assert traced.fingerprint() == plain.fingerprint()
    assert wl.layer_self_sum(totals) == pytest.approx(tracer.spans[0].duration, abs=1e-9)


def test_instrumented_restores_the_program():
    from equicheb import experiments

    before = experiments.solve_chebyshev
    with wl.instrumented(Tracer()):
        assert experiments.solve_chebyshev is not before
    assert experiments.solve_chebyshev is before


def _rate_report(slope, D, scaled):
    return SimpleNamespace(slope=slope, D=np.asarray(D), scaled_alpha=np.asarray(scaled))


def test_check_rate_flags_slow_decay_and_missing_reports():
    good = _rate_report(-1.0, [1.0, 0.5, 0.2, 0.05, 0.01], np.ones((5, 5)))
    assert all(c.ok for c in wl.check_rate({3: good, 5: good}))
    slow = _rate_report(-0.5, [1.0, 0.8, 0.6, 0.5, 0.4], np.ones((5, 5)))
    bad = {c.name for c in wl.check_rate({3: good, 5: slow}) if not c.ok}
    assert bad == {"c5.n5.slope", "c5.n5.drop"}
    big = _rate_report(-1.0, [1.0, 0.5, 0.2, 0.05, 0.01], np.full((5, 5), 60.0))
    assert not wl.check_rate({3: good, 5: big})[-1].ok
    assert not any(c.ok for c in wl.check_rate({3: None, 5: None}))


def _zeros_payload(roots, terminal):
    return {"faber_roots": [[z.real, z.imag] for z in roots],
            "terminal_distances": list(terminal)}


def test_check_zeros_flags_moved_roots_and_far_endpoints():
    roots = np.concatenate([[0.0], np.sqrt(1 + 0.5 * np.exp(2j * np.pi * np.arange(10) / 10)),
                            -np.sqrt(1 + 0.5 * np.exp(2j * np.pi * np.arange(10) / 10))])
    assert all(c.ok for c in wl.check_zeros(_zeros_payload(roots, [1e-5] * 21)))
    moved = roots.copy()
    moved[0] = 1e-3
    bad = {c.name for c in wl.check_zeros(_zeros_payload(moved, [1e-5] * 21)) if not c.ok}
    assert bad == {"c9.origin_roots", "c9.others"}
    far = wl.check_zeros(_zeros_payload(roots, [1e-5] * 20 + [0.8]))
    assert [c.name for c in far if not c.ok] == ["c9.endpoint"]
    assert not any(c.ok for c in wl.check_zeros(None))


def test_check_invariance_flags_a_perturbed_polynomial_and_unconverged_solve():
    oracle = monic_classical_chebyshev(4)
    perturbed = ComplexPolynomial(oracle.coeffs + np.array([1e-5, 0, 0, 0, 0]))
    dist = perturbed.coefficient_distance(oracle)
    ok = dict(circle_coef=0.0, circle_norm=0.0, circle_all_converged=True, ellipse=0.0,
              lemniscate=0.0, period2_applicable=True, period2=0.0)
    assert all(c.ok for c in wl.check_invariance(**ok))
    for key, value, name in [
        ("ellipse", dist, "c2.ellipse"),
        ("lemniscate", dist, "c3.lemniscate"),
        ("circle_coef", dist, "c1.lower_coef"),
        ("circle_norm", dist, "c1.norm"),
        ("circle_all_converged", False, "c1.converged"),
        ("period2", 2e-5, "c4.period2"),
        ("period2_applicable", False, "c4.applicable"),
    ]:
        checks = wl.check_invariance(**{**ok, key: value})
        assert [c.name for c in checks if not c.ok] == [name]


def test_seed_zero_is_the_acceptance_input(tmp_path):
    assert wl.make_workload("rate", 0, tmp_path).levels["rate"] == [2, 4, 8, 16, 32]
    zeros = wl.make_workload("zeros", 0, tmp_path).levels["zeros"]
    assert zeros == [float(r) for r in np.geomspace(1.05, 8.0, 24)]
    inv = wl.make_workload("invariance", 0, tmp_path).levels
    assert inv["interval"] == [1.5, 2.0, 4.0] and inv["period2"] == [1.5, 3.0]


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_other_seeds_jitter_interior_levels_only(tmp_path, name):
    base = wl.make_workload(name, 0, tmp_path).levels
    for seed in (1, 2):
        levels = wl.make_workload(name, seed, tmp_path).levels
        assert levels == wl.make_workload(name, seed, tmp_path).levels
        for key, grid in levels.items():
            ref = np.log(base[key])
            got = np.log(grid)
            assert got[0] == ref[0] and got[-1] == ref[-1]
            assert np.all(np.diff(got) > 0)
            steps = np.diff(ref)
            assert np.all(got[1:-1] >= ref[1:-1] - 0.25 * steps[:-1])
            assert np.all(got[1:-1] <= ref[1:-1] + 0.25 * steps[1:])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
