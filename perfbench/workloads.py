"""Inputs, passes and acceptance checks of the equicheb benchmark workloads.

Each workload is one pass of acceptance reports, built from a seed:

- ``rate``: criteria 5-6, the O(1/r) convergence of T_n to the monic Faber
  polynomial on the Bernoulli lemniscate (sampler-heavy).
- ``zeros``: criterion 9, zero trajectories of T_21 over 24 levels, entered
  through ``equicheb.cli.run`` (solver-heavy, degree-21 root finding,
  precision-limited levels r > 4).
- ``invariance``: criteria 1-4, exact level invariance on the circle, the
  interval, the Bernoulli lemniscate and a period-2 set (many small solves,
  22 of them stalling at the iteration cap on the interval).

Seed 0 reproduces the inputs of ``tests/test_acceptance.py`` exactly.  Other
seeds move every interior level of each grid log-uniformly within half a grid
step around its seed-0 value; grid endpoints and degrees stay fixed, so every
check keeps its meaning and the r=8 precision defect of criterion 9 stays in.

Tolerances are the contract values of ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from equicheb import cli, curves, experiments, minimax, rootfind
from equicheb.curves import Circle, Interval, InversePolynomialImage, Lemniscate
from equicheb.experiments import ExperimentError, monic_classical_chebyshev
from equicheb.minimax import SolveOptions
from equicheb.series import ComplexPolynomial

WORKLOADS = ("rate", "zeros", "invariance")

# solver options of the acceptance suite
EXACT_OPTS = SolveOptions(tol_rel=1e-8, max_iter=600, adapt=False)
RATE_OPTS = SolveOptions(tol_rel=3e-4, max_iter=8000, adapt=False)
CIRCLE_OPTS = SolveOptions(adapt=False)

# checks that fail on the unchanged program because of a known defect; they
# are still evaluated and counted in checks_passed, but do not make a run
# incorrect (criterion 9: double precision cannot resolve T_21 on L_8)
KNOWN_DEFECTS = {"c9.endpoint"}


@dataclass
class Check:
    """One acceptance check: a measured value against its contract bound."""

    name: str
    value: float
    bound: float
    ok: bool

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        if self.name in KNOWN_DEFECTS and not self.ok:
            status = "FAIL (known defect)"
        return f"{self.name}: {status} value {self.value:.6g} bound {self.bound:g}"


@dataclass
class PassResult:
    """What one pass delivered: solve counts, checks and CLI output size."""

    solves: int
    failed: int = 0  # solves whose result never reached the benchmark
    unconverged: int = 0  # failed solves plus delivered ones with converged=False
    checks: List[Check] = field(default_factory=list)
    bytes_written: int = 0

    def fingerprint(self):
        """Check values, which repeat bit for bit in a deterministic run."""
        return [(c.name, repr(c.value)) for c in self.checks] + [
            ("failed", self.failed),
            ("unconverged", self.unconverged),
        ]


# -- checks (tolerances copied from tests/test_acceptance.py) ----------------


def check_rate(reports: Dict[int, Optional[experiments.RateReport]]) -> List[Check]:
    """Criteria 5 (slope <= -0.9, D(last) < D(first)/10) and 6 (bounded
    |alpha_k| r^(k+1) <= 50 on every level but the first, n=5)."""
    out = []
    for n in (3, 5):
        rep = reports.get(n)
        slope = np.nan if rep is None or rep.slope is None else rep.slope
        drop = np.nan if rep is None else rep.D[-1] / rep.D[0]
        out.append(Check(f"c5.n{n}.slope", float(slope), -0.9, bool(slope <= -0.9)))
        out.append(Check(f"c5.n{n}.drop", float(drop), 0.1, bool(drop < 0.1)))
    rep5 = reports.get(5)
    worst = np.nan if rep5 is None else float(rep5.scaled_alpha[1:].max())
    out.append(Check("c6.scaled_alpha", worst, 50.0, bool(worst <= 50.0)))
    return out


def check_zeros(payload: Optional[dict]) -> List[Check]:
    """Criterion 9 from the CLI's JSON: one Faber root at the origin, the
    other 20 with |z^2-1| < 1, and trajectory endpoints within 1e-3 of the
    Faber roots."""
    if payload is None:
        origin, others_dev, endpoint = np.nan, np.nan, np.nan
        others_ok = False
    else:
        roots = np.array([complex(re, im) for re, im in payload["faber_roots"]])
        near_zero = np.abs(roots) <= 1e-8
        others = roots[~near_zero]
        origin = float(near_zero.sum())
        others_dev = float(np.abs(others**2 - 1.0).max()) if len(others) else np.nan
        others_ok = len(others) == 20 and others_dev < 1.0
        endpoint = float(max(payload["terminal_distances"]))
    return [
        Check("c9.origin_roots", origin, 1.0, bool(origin == 1.0)),
        Check("c9.others", others_dev, 1.0, bool(others_ok)),
        Check("c9.endpoint", endpoint, 1e-3, bool(endpoint <= 1e-3)),
    ]


def check_invariance(
    circle_coef: float,
    circle_norm: float,
    circle_all_converged: bool,
    ellipse: float,
    lemniscate: float,
    period2_applicable: bool,
    period2: float,
) -> List[Check]:
    """Criteria 1-4: coefficient and norm distances to the closed forms."""
    return [
        Check("c1.lower_coef", circle_coef, 1e-8, bool(circle_coef <= 1e-8)),
        Check("c1.norm", circle_norm, 1e-8, bool(circle_norm <= 1e-8)),
        Check("c1.converged", float(circle_all_converged), 1.0, circle_all_converged),
        Check("c2.ellipse", ellipse, 1e-6, bool(ellipse <= 1e-6)),
        Check("c3.lemniscate", lemniscate, 1e-6, bool(lemniscate <= 1e-6)),
        Check("c4.applicable", float(period2_applicable), 1.0, period2_applicable),
        Check("c4.period2", period2, 1e-5, bool(period2 <= 1e-5)),
    ]


# -- yardstick ---------------------------------------------------------------


class Yardstick:
    """A fixed kernel in the program's style, timed beside every pass.

    Weighted complex least squares on a 512x21 design (as in Lawson) and
    pairwise broadcasting on small complex arrays (as in Aberth), on inputs
    fixed by seed 0.  Other load on a shared machine slows it and a pass
    alike: within one run the logs of the two times correlate at 0.8-0.9, so
    a pass measured in yardsticks stays steady where seconds do not.
    ``NOMINAL_S`` is its time on an unloaded core of the 2-core VM the bounds
    were set on (Python 3.11, numpy 2.4, scipy-openblas 0.3.31); a ratio
    times ``NOMINAL_S`` reads as seconds at that speed.
    """

    NOMINAL_S = 0.034

    def __init__(self):
        rng = np.random.default_rng(0)
        self.design = rng.standard_normal((512, 21)) + 1j * rng.standard_normal((512, 21))
        self.rhs = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        self.roots = rng.standard_normal((256, 4)) + 1j * rng.standard_normal((256, 4))

    def seconds(self) -> float:
        t0 = time.perf_counter()
        w = np.full(len(self.rhs), 1.0 / len(self.rhs))
        for _ in range(60):
            sw = np.sqrt(w)
            coef = np.linalg.lstsq(self.design * sw[:, None], self.rhs * sw, rcond=None)[0]
            w = w * np.abs(self.design @ coef - self.rhs)
            w /= w.sum()
        z = self.roots
        shield = 1e9 * np.eye(z.shape[1])
        for _ in range(60):
            z = z - 1e-3 * (1.0 / (z[:, :, None] - z[:, None, :] + shield)).sum(axis=2)
        return time.perf_counter() - t0


# -- seeded inputs -------------------------------------------------------------


def jitter_levels(levels, rng: np.random.Generator) -> List[float]:
    """Move each interior level log-uniformly within half a grid step.

    The window around level i reaches a quarter of the log distance to each
    neighbour, so the levels stay strictly increasing.  Endpoints stay.
    """
    logs = np.log(np.asarray(levels, dtype=float))
    out = logs.copy()
    for i in range(1, len(logs) - 1):
        lo = logs[i] - 0.25 * (logs[i] - logs[i - 1])
        hi = logs[i] + 0.25 * (logs[i + 1] - logs[i])
        out[i] = rng.uniform(lo, hi)
    return [float(v) for v in np.exp(out)]


@dataclass
class Api:
    """The public functions a pass calls; a traced run swaps in wrappers."""

    sample_level_curve: Callable = curves.sample_level_curve
    solve_chebyshev: Callable = minimax.solve_chebyshev
    rate_experiment: Callable = experiments.rate_experiment
    invariance_experiment: Callable = experiments.invariance_experiment
    cli_run: Callable = cli.run


@dataclass
class Workload:
    """Inputs of one workload and the pass that runs them."""

    name: str
    levels: Dict[str, List[float]]
    families: dict
    outdir: Path
    solves: int

    def run_pass(self, api: Api) -> PassResult:
        return _PASSES[self.name](self, api)


def make_workload(name: str, seed: int, outdir: Path) -> Workload:
    """Families and levels of a workload; seed 0 is the acceptance input."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng(seed)

    def levels(grid):
        return [float(r) for r in grid] if seed == 0 else jitter_levels(grid, rng)

    bernoulli = Lemniscate(ComplexPolynomial([-1.0, 0.0, 1.0]), 1.0)
    if name == "rate":
        lv = {"rate": levels([2, 4, 8, 16, 32])}
        fam = {"bernoulli": bernoulli}
        solves = 2 * len(lv["rate"])
    elif name == "zeros":
        lv = {"zeros": levels(np.geomspace(1.05, 8.0, 24))}
        fam = {}
        solves = len(lv["zeros"])
    else:
        lv = {
            "circle": levels([1.5, 2.0, 4.0]),
            "interval": levels([1.5, 2.0, 4.0]),
            "bernoulli": levels([1.5, 2.0, 4.0]),
            "period2": [1.5, 3.0],
        }
        fam = {
            "circle": Circle(1.0),
            "interval": Interval(),
            "bernoulli": bernoulli,
            "period2": InversePolynomialImage(
                ComplexPolynomial([-3.0, 0.0, 1.0]),
                alternation_points=[-2.0, -np.sqrt(2.0), 2.0],
            ),
        }
        solves = 3 * (10 + 8 + 4) + 2 * 2
    return Workload(name, lv, fam, outdir, solves)


# -- passes ------------------------------------------------------------------


def _rate_pass(w: Workload, api: Api) -> PassResult:
    res = PassResult(solves=w.solves)
    reports = {}
    for n in (3, 5):
        try:
            reports[n] = api.rate_experiment(
                w.families["bernoulli"], n, w.levels["rate"], opts=RATE_OPTS, M=512
            )
        except ExperimentError:
            reports[n] = None
            res.failed += len(w.levels["rate"])
    res.unconverged = res.failed
    res.checks = check_rate(reports)
    return res


def _zeros_argv(w: Workload) -> List[str]:
    grid = ",".join(repr(r) for r in w.levels["zeros"])
    return [
        "zeros", "--family", "lemniscate", "--P", "1,0,-1", "--R", "1",
        "--n", "21", "--r-grid", grid, "--M", "512", "--tol", "5e-4",
        "--max-iter", "4000", "-o", str(w.outdir), "--tag", "zeros",
    ]


def _zeros_pass(w: Workload, api: Api) -> PassResult:
    res = PassResult(solves=w.solves)
    json_path = w.outdir / "zeros.json"
    for suffix in (".json", ".csv", ".svg"):
        json_path.with_suffix(suffix).unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = api.cli_run(_zeros_argv(w))
    payload = json.loads(json_path.read_text()) if code == 0 else None
    if payload is None:
        res.failed = w.solves
    else:
        res.failed = w.solves - len(payload["successful_r"])
        res.bytes_written = sum(
            json_path.with_suffix(s).stat().st_size for s in (".json", ".csv", ".svg")
        )
    res.unconverged = res.failed
    res.checks = check_zeros(payload)
    return res


def _invariance_pass(w: Workload, api: Api) -> PassResult:
    res = PassResult(solves=w.solves)
    coef = norm = 0.0
    all_converged = True
    for n in range(1, 11):
        for r in w.levels["circle"]:
            sample = api.sample_level_curve(w.families["circle"], r, max(256, 16 * n))
            sol = api.solve_chebyshev(sample, n, CIRCLE_OPTS)
            all_converged &= sol.converged
            res.unconverged += not sol.converged
            coef = max(coef, float(np.abs(sol.polynomial.coeffs[:-1]).max()))
            norm = max(norm, abs(sol.sup_norm - r**n) / r**n)
    ellipse = 0.0
    for n in range(1, 9):
        oracle = monic_classical_chebyshev(n)
        for r in w.levels["interval"]:
            sample = api.sample_level_curve(w.families["interval"], r, 512)
            sol = api.solve_chebyshev(sample, n, EXACT_OPTS)
            res.unconverged += not sol.converged
            ellipse = max(ellipse, sol.polynomial.coefficient_distance(oracle))
    lemniscate = 0.0
    for n in (2, 4, 6, 8):
        expected = np.array([1.0])
        for _ in range(n // 2):
            expected = np.convolve(expected, [-1.0, 0.0, 1.0])
        oracle = ComplexPolynomial(expected)
        for r in w.levels["bernoulli"]:
            sample = api.sample_level_curve(w.families["bernoulli"], r, 512)
            sol = api.solve_chebyshev(sample, n, EXACT_OPTS)
            res.unconverged += not sol.converged
            lemniscate = max(lemniscate, sol.polynomial.coefficient_distance(oracle))
    period2 = 0.0
    applicable = True
    for n in (2, 4):
        try:
            rep = api.invariance_experiment(
                w.families["period2"], n, tuple(w.levels["period2"]), opts=RATE_OPTS, M=512
            )
        except ExperimentError:
            res.failed += 2
            res.unconverged += 2
            period2 = np.nan
            continue
        applicable &= rep.applicable
        period2 = max(period2, np.nan if rep.coefficient_distance is None
                      else rep.coefficient_distance)
    res.checks = check_invariance(
        coef, norm, all_converged, ellipse, lemniscate, applicable, float(period2)
    )
    return res


_PASSES = {"rate": _rate_pass, "zeros": _zeros_pass, "invariance": _invariance_pass}


# -- traced run ----------------------------------------------------------------


def _sample_counts(result, args, kwargs):
    return {"points": result.size}


def _solve_counts(result, args, kwargs):
    sample = args[0]
    opts = (args[2] if len(args) > 2 else kwargs.get("opts")) or SolveOptions()
    return {
        "iters": result.iterations,
        "point_iters": sample.size * result.iterations,
        "cap_hits": int(not result.converged and result.iterations >= opts.max_iter),
        "unconverged": int(not result.converged),
    }


def _roots_counts(result, args, kwargs):
    return {"iters": result.iterations}


def _shift_counts(result, args, kwargs):
    return {"rows": len(result)}


# (module, attribute, span name, counter): the program's own call sites
PROGRAM_SITES = [
    (experiments, "sample_level_curve", "curves.sample", _sample_counts),
    (minimax, "sample_level_curve", "curves.sample", _sample_counts),
    (experiments, "solve_chebyshev", "minimax.solve", _solve_counts),
    (experiments, "all_roots", "rootfind.all_roots", _roots_counts),
    # _lemniscate_degenerate imports all_roots from rootfind at call time
    (rootfind, "all_roots", "rootfind.all_roots", _roots_counts),
    (curves, "roots_after_constant_shifts", "rootfind.shift_batch", _shift_counts),
    (experiments, "phi_series", "series", None),
    (experiments, "monic_faber", "series", None),
    (experiments, "faber_basis_expand", "series", None),
    (cli, "zero_trajectories", "experiments", None),
]

# the benchmark's own call sites
API_SITES = {
    "sample_level_curve": ("curves.sample", _sample_counts),
    "solve_chebyshev": ("minimax.solve", _solve_counts),
    "rate_experiment": ("experiments", None),
    "invariance_experiment": ("experiments", None),
    "cli_run": ("cli", None),
}


@contextlib.contextmanager
def instrumented(tracer):
    """Patch spans into the program's call sites; yields the traced Api."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PROGRAM_SITES]
    try:
        for mod, attr, name, counter in PROGRAM_SITES:
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, counter))
        plain = Api()
        yield Api(**{
            attr: tracer.wrap(getattr(plain, attr), name, counter)
            for attr, (name, counter) in API_SITES.items()
        })
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def layer_metrics(totals: dict, res: PassResult, wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass from its span totals."""

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    iters = get("minimax.solve", "iters")
    points = get("curves.sample", "points")
    return {
        "curves.sample.calls": get("curves.sample", "calls"),
        "curves.sample.points": points,
        "curves.sample.s": get("curves.sample", "s"),
        "curves.sample.self_s": get("curves.sample", "self_s"),
        "curves.sample.us_per_point": 1e6 * get("curves.sample", "s") / points if points else 0.0,
        "rootfind.shift_batch.calls": get("rootfind.shift_batch", "calls"),
        "rootfind.shift_batch.rows": get("rootfind.shift_batch", "rows"),
        "rootfind.shift_batch.s": get("rootfind.shift_batch", "s"),
        "rootfind.all_roots.calls": get("rootfind.all_roots", "calls"),
        "rootfind.all_roots.iters": get("rootfind.all_roots", "iters"),
        "rootfind.all_roots.failed": get("rootfind.all_roots", "errors"),
        "rootfind.all_roots.s": get("rootfind.all_roots", "s"),
        "minimax.solve.calls": get("minimax.solve", "calls"),
        "minimax.solve.s": get("minimax.solve", "s"),
        "minimax.solve.self_s": get("minimax.solve", "self_s"),
        "minimax.lawson_iters": iters,
        "minimax.s_per_iter": get("minimax.solve", "s") / iters if iters else 0.0,
        "minimax.cap_hits": get("minimax.solve", "cap_hits"),
        "minimax.unconverged": get("minimax.solve", "unconverged"),
        "minimax.point_iters": get("minimax.solve", "point_iters"),
        "series.calls": get("series", "calls"),
        "series.s": get("series", "s"),
        "experiments.self_s": get("experiments", "self_s"),
        "cli.self_s": get("cli", "self_s"),
        "cli.bytes_written": res.bytes_written,
        "bench.self_s": get("bench", "self_s"),
        "trace.wall_s": wall,
    }


def layer_self_sum(totals: dict) -> float:
    """Self time summed over every layer; equals the root span's duration."""
    return sum(t["self_s"] for t in totals.values())
