"""The public surface: a name leaves or joins it only by an edit here."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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
    "Interval",
    "InvarianceReport",
    "InversePolynomialImage",
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
    "curve_sup_norms",
    "faber_basis",
    "faber_basis_expand",
    "faber_error_decay",
    "faber_powers",
    "faber_recurrence",
    "invariance_experiment",
    "monic_classical_chebyshev",
    "monic_faber",
    "phi_series",
    "rate_experiment",
    "rivlin_check",
    "sample_level_curve",
    "solve_chebyshev",
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


# bindings kept only for perfbench, which patches them as trace sites
PATCHED_IMPORTS = {
    ("experiments", "phi_series"),
    ("experiments", "monic_faber"),
    ("experiments", "all_roots"),
    ("minimax", "sample_level_curve"),
}


def test_no_unused_imports():
    unused = []
    for name in MODULES:
        tree = ast.parse(Path(equicheb.__path__[0], f"{name}.py").read_text())
        imported = {
            (a.asname or a.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for a in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(name, n) for n in sorted(imported - used) if (name, n) not in PATCHED_IMPORTS]
    assert not unused


def test_double_double_has_one_entry_point():
    # the precision-limited path lives in dd: of the other modules only
    # minimax imports it, and minimax reads only dd.refine and dd.EPS, so
    # no other module builds or passes a double-double value
    importers, reads = [], set()
    for name in MODULES:
        if name == "dd":
            continue
        tree = ast.parse(Path(equicheb.__path__[0], f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                hit = (node.module or "").split(".")[-1] == "dd" or any(a.name == "dd" for a in node.names)
            else:
                hit = isinstance(node, ast.Import) and any(a.name.split(".")[-1] == "dd" for a in node.names)
            if hit:
                importers.append((name, ast.unparse(node)))
        if name == "minimax":
            reads = [
                node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "dd"
            ]
            # every use of the name dd is one of those reads
            assert sum(isinstance(node, ast.Name) and node.id == "dd" for node in ast.walk(tree)) == len(reads)
    assert importers == [("minimax", "from . import dd")]
    assert set(reads) == {"refine", "EPS"}
