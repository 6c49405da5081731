"""The public surface: a name leaves or joins it only by an edit here."""

import importlib
import inspect
import pkgutil

import pytest

import equicheb

PUBLIC = {
    "Circle",
    "ComplexPolynomial",
    "CurveFamily",
    "CurveSample",
    "DepthExhaustionError",
    "ExperimentError",
    "ExplicitMap",
    "FaberErrorReport",
    "FaberExpansion",
    "Interval",
    "InvarianceReport",
    "InversePolynomialImage",
    "LaurentSeries",
    "LaurentSeriesAtInfinity",
    "Lemniscate",
    "MinimaxSolution",
    "NotMonicError",
    "RankDeficiencyError",
    "RateReport",
    "RivlinReport",
    "RootFindingError",
    "RootSet",
    "SolveOptions",
    "TrajectorySet",
    "WidomReport",
    "all_roots",
    "capacity_leading_coefficient",
    "chebyshev_on_points",
    "faber_basis",
    "faber_basis_expand",
    "faber_error_decay",
    "faber_powers",
    "faber_recurrence",
    "invariance_experiment",
    "joukowski",
    "monic_classical_chebyshev",
    "monic_faber",
    "phi_series",
    "rate_experiment",
    "rivlin_check",
    "sample_level_curve",
    "series_power",
    "solve_chebyshev",
    "weighted_ls_monic",
    "widom_experiment",
    "zero_trajectories",
}

MODULES = sorted(m.name for m in pkgutil.iter_modules(equicheb.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"equicheb.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_package_names_match_the_list():
    names = {
        n for n, v in vars(equicheb).items()
        if not n.startswith("_") and not inspect.ismodule(v)
    }
    assert names == PUBLIC
