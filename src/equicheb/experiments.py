"""Desk-scale experiments: convergence rates, exact invariances, zero
trajectories, and the strong-uniqueness inequality on the unit circle.

Each harness produces a frozen report object with deterministic contents;
any solve that fails its convergence certificate aborts the report (rate
and invariance) or is recorded as a gap (widom, trajectories), never
silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .curves import (
    CurveFamily,
    CurveSample,
    ExplicitMap,
    InversePolynomialImage,
    Lemniscate,
    capacity_leading_coefficient,
    faber_basis,
    family_to_json_dict,
    phi_series,
    sample_level_curve,
)
from .minimax import (
    MinimaxSolution,
    SolveOptions,
    curve_sup_norms,
    solve_chebyshev,
    solve_chebyshev_batch,
)
from .rootfind import RootSet, all_roots, all_roots_batch
from .series import ComplexPolynomial, faber_basis_expand, monic_faber

# phi_series, monic_faber and all_roots are unused here but stay bound: perfbench
# patches them by name

__all__ = [
    "ExperimentError",
    "RateReport",
    "InvarianceReport",
    "WidomReport",
    "TrajectorySet",
    "RivlinReport",
    "FaberErrorReport",
    "monic_classical_chebyshev",
    "rate_experiment",
    "invariance_experiment",
    "widom_experiment",
    "zero_trajectories",
    "rivlin_check",
    "faber_error_decay",
    "greedy_bijective_match",
]

# relative solver floor below which a measured deviation counts as exact zero
_EXACT_MATCH_FLOOR = 1e-10
# points of L_r on which faber_error_decay measures its remainder, at least
# 8 per degree; the remainder is not a polynomial, so the solver's curve scan
# (curve_sup_norms) does not apply to it
_M_EVAL = 4096


class ExperimentError(RuntimeError):
    """A contributing solve failed; carries the diagnostic solution."""

    def __init__(self, message, r=None, n=None, solution: MinimaxSolution | None = None):
        super().__init__(message)
        self.r = r
        self.n = n
        self.solution = solution


def _sample_size(n: int) -> int:
    return max(512, 32 * n)


def _experiment_sample(f: CurveFamily, r: float, n: int, M: int | None = None) -> CurveSample:
    return sample_level_curve(f, r, M if M is not None else _sample_size(n))


def _converged_solve(f: CurveFamily, r: float, n: int, opts: SolveOptions, M: int | None):
    """(sample, solution) of the level-r solve; an unconverged solve raises
    ExperimentError with the solution attached."""
    sample = _experiment_sample(f, r, n, M)
    sol = solve_chebyshev(sample, n, opts)
    if not sol.converged:
        raise ExperimentError(
            f"solve at r={r} did not converge (gap {sol.equioscillation_gap:.2e} "
            f"after {sol.iterations} iterations)",
            r=r,
            n=n,
            solution=sol,
        )
    return sample, sol


def monic_classical_chebyshev(n: int) -> ComplexPolynomial:
    """Monic Chebyshev polynomial of [-1,1] (three-term recurrence, then
    divided by the classical leading coefficient 2^(n-1))."""
    if n == 0:
        return ComplexPolynomial([1.0])
    prev = np.array([1.0], dtype=complex)
    cur = np.array([0.0, 1.0], dtype=complex)
    for _ in range(n - 1):
        nxt = np.zeros(len(cur) + 1, dtype=complex)
        nxt[1:] = 2.0 * cur
        nxt[: len(prev)] -= prev
        prev, cur = cur, nxt
    return ComplexPolynomial(cur / 2.0 ** (n - 1))


# ---------------------------------------------------------------------------
# rate experiment (convergence of the curve Chebyshev polynomial to the
# monic Faber polynomial as the level grows)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RateReport:
    family: CurveFamily
    n: int
    r_values: np.ndarray
    D: np.ndarray
    cheb_sup: np.ndarray
    faber_sup: np.ndarray
    slope: Optional[float]
    intercept: Optional[float]
    exact_match: bool
    alphas: np.ndarray  # Faber coefficients alpha_k of T_n, shape (len(r), n)
    scaled_alpha: np.ndarray  # |alpha_k| * r^(k+1), shape (len(r), n)
    solutions: List[MinimaxSolution]

    def to_json_dict(self) -> dict:
        return {
            "report": "rate",
            "family": family_to_json_dict(self.family),
            "n": self.n,
            "r": [float(r) for r in self.r_values],
            "D": [float(v) for v in self.D],
            "cheb_sup": [float(v) for v in self.cheb_sup],
            "faber_sup": [float(v) for v in self.faber_sup],
            "slope": self.slope,
            "intercept": self.intercept,
            "exact_match": self.exact_match,
            "alphas": [[[float(a.real), float(a.imag)] for a in row] for row in self.alphas],
            "scaled_alpha": [[float(v) for v in row] for row in self.scaled_alpha],
        }

    def to_csv_rows(self):
        header = ["r", "D"] + [f"alpha_{k}" for k in range(self.n)]
        rows = [header]
        for i, r in enumerate(self.r_values):
            rows.append(
                [repr(float(r)), repr(float(self.D[i]))]
                + [str(complex(a)) for a in self.alphas[i]]
            )
        return rows


def rate_experiment(
    f: CurveFamily,
    n: int,
    r_grid: Sequence[float],
    opts: SolveOptions = SolveOptions(),
    M: int | None = None,
) -> RateReport:
    """Measure D(r) = sup over the level curve of |T_n - monic Faber|.

    Solves the Chebyshev problem at each level in turn, expands each
    solution over the monic Faber basis, and fits a log-log line to
    (r, D(r)).  Every norm on L_r is a curve sup, taken on the sample the
    level was solved on: the Chebyshev norm as the solve's ``sup_norm``,
    which its curve exchange certifies (a precision-limited solve skips the
    exchange; see ``solve_chebyshev``), and D(r) and the Faber norm of every
    level by ``curve_sup_norms``, in one curve scan after the last solve.
    Families whose Chebyshev polynomials equal the Faber polynomial exactly
    are reported with ``exact_match`` instead of a slope.  The first
    unconverged solve aborts with diagnostics.
    """
    r_values = np.asarray(sorted(float(r) for r in r_grid))
    if len(r_values) < 4:
        raise ValueError("need at least 4 grid points")
    if r_values[-1] < 8.0 * r_values[0]:
        raise ValueError("grid must span at least a factor of 8")
    basis = faber_basis(f, n)
    fhat = basis[n]
    alphas = np.zeros((len(r_values), n), dtype=complex)
    samples: List[CurveSample] = []
    solutions: List[MinimaxSolution] = []
    for i, r in enumerate(r_values):
        sample, sol = _converged_solve(f, r, n, opts, M)
        alphas[i] = faber_basis_expand(sol.polynomial, basis)
        samples.append(sample)
        solutions.append(sol)
    pairs = [(sol.polynomial - fhat, s) for sol, s in zip(solutions, samples)]
    norms = np.array(curve_sup_norms(pairs + [(fhat, s) for s in samples]))
    D, faber_sup = norms[: len(r_values)], norms[len(r_values):]
    cheb_sup = np.array([sol.sup_norm for sol in solutions])
    exact = bool(np.all(D <= _EXACT_MATCH_FLOOR * cheb_sup))
    if exact:
        slope = intercept = None
    else:
        fit = np.polyfit(np.log(r_values), np.log(np.maximum(D, 1e-300)), 1)
        slope, intercept = float(fit[0]), float(fit[1])
    return RateReport(
        family=f,
        n=n,
        r_values=r_values,
        D=D,
        cheb_sup=cheb_sup,
        faber_sup=faber_sup,
        slope=slope,
        intercept=intercept,
        exact_match=exact,
        alphas=alphas,
        scaled_alpha=np.abs(alphas) * r_values[:, None] ** (np.arange(n) + 1.0),
        solutions=solutions,
    )


# ---------------------------------------------------------------------------
# exact invariance across levels
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InvarianceReport:
    family: CurveFamily
    n: int
    r_pair: Tuple[float, float]
    applicable: bool
    coefficient_distance: Optional[float]
    oracle: Optional[ComplexPolynomial]
    oracle_distances: Optional[Tuple[float, float]]
    polynomials: Optional[Tuple[ComplexPolynomial, ComplexPolynomial]]

    def to_json_dict(self) -> dict:
        d = {
            "report": "invariance",
            "family": family_to_json_dict(self.family),
            "n": self.n,
            "r_pair": [float(self.r_pair[0]), float(self.r_pair[1])],
            "applicable": self.applicable,
            "coefficient_distance": self.coefficient_distance,
        }
        if self.oracle is not None:
            d["oracle"] = self.oracle.to_json_dict()
            d["oracle_distances"] = list(self.oracle_distances)
        if self.polynomials is not None:
            d["polynomials"] = [p.to_json_dict() for p in self.polynomials]
        return d


def invariance_experiment(
    f: CurveFamily,
    n: int,
    r_pair: Tuple[float, float],
    opts: SolveOptions = SolveOptions(),
    M: int | None = None,
) -> InvarianceReport:
    """Solve at two levels and compare; attach the monic Faber polynomial
    Fhat_n as the oracle, the level-independent T_n the invariance theorems
    give (none for an explicit map, about which they say nothing).

    For lemniscate-type families with n not a multiple of deg P the
    invariance theorems make no claim and the report says so instead of
    solving.
    """
    r_lo, r_hi = float(r_pair[0]), float(r_pair[1])
    if isinstance(f, (Lemniscate, InversePolynomialImage)) and n % f.P.degree != 0:
        return InvarianceReport(f, n, (r_lo, r_hi), False, None, None, None, None)
    polys = [_converged_solve(f, r, n, opts, M)[1].polynomial for r in (r_lo, r_hi)]
    dist = polys[0].coefficient_distance(polys[1])
    oracle = None if isinstance(f, ExplicitMap) else faber_basis(f, n)[n]
    odist = None
    if oracle is not None:
        odist = (
            polys[0].coefficient_distance(oracle),
            polys[1].coefficient_distance(oracle),
        )
    return InvarianceReport(
        f, n, (r_lo, r_hi), True, dist, oracle, odist, (polys[0], polys[1])
    )


# ---------------------------------------------------------------------------
# fixed level, growing degree (classical normalized-error limit)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WidomReport:
    family: CurveFamily
    r: float
    n_max: int
    values: List[Optional[float]]  # (c/r)^n * D_n; None marks an unconverged gap
    ratio_last_first: Optional[float]
    normalized_sup: List[Optional[float]]  # (c/r)^n * sup|T_n|, same gaps

    def to_json_dict(self) -> dict:
        return {
            "report": "widom",
            "family": family_to_json_dict(self.family),
            "r": self.r,
            "n_max": self.n_max,
            "values": self.values,
            "ratio_last_first": self.ratio_last_first,
            "normalized_sup": self.normalized_sup,
        }

    def to_csv_rows(self):
        rows = [["n", "normalized_error"]]
        for i, v in enumerate(self.values, start=1):
            rows.append([str(i), "" if v is None else repr(v)])
        return rows


def widom_experiment(
    f: CurveFamily,
    r: float,
    n_max: int,
    opts: SolveOptions = SolveOptions(),
) -> WidomReport:
    """Normalized error sequence (c/r)^n * sup|T_n - monic Faber| at fixed r.

    Alongside it, the normalized sup (c/r)^n * sup|T_n| of each solution,
    the scale against which an error counts as zero (families whose T_n
    equal their Faber polynomials give pure rounding noise).  Both sups are
    taken on the curve, on the sample each degree was solved on, one sample
    per sample size (every n <= 16 solves on the same 512 points): sup|T_n|
    as the solve's ``sup_norm``, and the errors of every converged degree by
    ``curve_sup_norms``, in one curve scan after the last solve.
    Unconverged solves are recorded as gaps (None), not failures.  Raises
    ValueError for n_max < 1, which leaves no degree to report.
    """
    if not 1.0 < r < np.inf:
        raise ValueError("level r must be finite and exceed 1")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    c = capacity_leading_coefficient(f)
    basis = faber_basis(f, n_max)
    degrees = range(1, n_max + 1)
    samples: Dict[int, CurveSample] = {}
    solved: Dict[int, Tuple[MinimaxSolution, CurveSample]] = {}
    for n in degrees:
        M = _sample_size(n)
        if M not in samples:
            samples[M] = sample_level_curve(f, r, M)
        sol = solve_chebyshev(samples[M], n, opts)
        if sol.converged:
            solved[n] = (sol, samples[M])
    errors = dict(zip(solved, curve_sup_norms(
        [(sol.polynomial - basis[n], sample) for n, (sol, sample) in solved.items()]
    )))
    values = [float((c / r) ** n * errors[n]) if n in solved else None for n in degrees]
    sups = [float((c / r) ** n * solved[n][0].sup_norm) if n in solved else None for n in degrees]
    present = [v for v in values if v is not None]
    ratio = (present[-1] / present[0]) if len(present) >= 2 and present[0] > 0 else None
    return WidomReport(f, float(r), n_max, values, ratio, sups)


# ---------------------------------------------------------------------------
# zero trajectories
# ---------------------------------------------------------------------------


def greedy_bijective_match(a: np.ndarray, b: np.ndarray):
    """Bijective matching of equal-length point sets, greedy on sorted
    pairwise distances.  Returns (perm, distances): b[perm[i]] matches a[i]."""
    if len(a) != len(b):
        raise ValueError("point sets must have equal length")
    k = len(a)
    dist = np.abs(a[:, None] - b[None, :])
    order = np.argsort(dist, axis=None, kind="stable")
    perm = np.full(k, -1)
    used_b = np.zeros(k, dtype=bool)
    filled = 0
    for flat in order:
        i, j = divmod(int(flat), k)
        if perm[i] < 0 and not used_b[j]:
            perm[i] = j
            used_b[j] = True
            filled += 1
            if filled == k:
                break
    return perm, np.abs(a - b[perm])


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    family: CurveFamily
    n: int
    r_grid: np.ndarray
    root_sets: List[Optional[RootSet]]
    trajectories: np.ndarray  # shape (n, #successful steps)
    successful_r: np.ndarray
    step_flagged: np.ndarray  # per successful step transition
    faber_roots: RootSet
    terminal_distances: np.ndarray
    precision_limited: np.ndarray  # per level of r_grid: refined in double-double

    def to_json_dict(self) -> dict:
        return {
            "report": "zeros",
            "family": family_to_json_dict(self.family),
            "n": self.n,
            "r_grid": [float(r) for r in self.r_grid],
            "successful_r": [float(r) for r in self.successful_r],
            "trajectories": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.trajectories
            ],
            "flagged_steps": [bool(b) for b in self.step_flagged],
            "faber_roots": [
                [float(z.real), float(z.imag)] for z in self.faber_roots.roots
            ],
            "terminal_distances": [float(d) for d in self.terminal_distances],
            "precision_limited": [bool(b) for b in self.precision_limited],
        }

    def to_csv_rows(self):
        rows = [["step", "traj_id", "re", "im"]]
        for s in range(self.trajectories.shape[1]):
            for t in range(self.trajectories.shape[0]):
                z = self.trajectories[t, s]
                rows.append([str(s), str(t), repr(float(z.real)), repr(float(z.imag))])
        return rows


def zero_trajectories(
    f: CurveFamily,
    n: int,
    r_grid: Sequence[float],
    opts: SolveOptions = SolveOptions(),
    M: int | None = None,
) -> TrajectorySet:
    """Track the zeros of the level-curve Chebyshev polynomials across r.

    Solves the levels as one batch (``solve_chebyshev_batch``), finds the
    roots of every converged solution and of the monic Faber polynomial
    as one batch (``all_roots_batch``), and continues trajectories by
    bijective nearest-neighbor matching between consecutive root sets.  A
    matching step whose displacement exceeds a quarter of the minimal
    inter-root gap is flagged (grid too coarse there), not fatal.
    Unconverged solves, and levels whose roots the root finder cannot
    certify, leave gaps.  The terminal root set is compared
    against the roots of the monic Faber polynomial.  ``precision_limited``
    marks the levels whose solves double precision could not resolve and
    which were refined in double-double (see ``solve_chebyshev``).
    Raises ValueError for n < 1, which has no zeros to track.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    r_values = np.asarray(sorted(float(r) for r in r_grid))
    sols = solve_chebyshev_batch((_experiment_sample(f, r, n, M) for r in r_values), n, opts)
    polys = [sol.polynomial for sol in sols if sol.converged]
    # a row whose root-finding budget runs out is None: a gap
    *found, faber_roots = all_roots_batch(polys + [faber_basis(f, n)[n]])
    found = iter(found)
    root_sets: List[Optional[RootSet]] = [next(found) if sol.converged else None for sol in sols]
    succ = [i for i, rs in enumerate(root_sets) if rs is not None]
    if not succ:
        raise ExperimentError("no level produced a converged solve", n=n)
    succ_roots = [root_sets[i].roots for i in succ]
    steps = len(succ_roots)
    traj = np.zeros((n, steps), dtype=complex)
    traj[:, 0] = succ_roots[0]
    flagged = np.zeros(max(steps - 1, 0), dtype=bool)
    for s in range(1, steps):
        prev = traj[:, s - 1]
        perm, dists = greedy_bijective_match(prev, succ_roots[s])
        traj[:, s] = succ_roots[s][perm]
        gaps = np.abs(prev[:, None] - prev[None, :])
        np.fill_diagonal(gaps, np.inf)
        min_gap = float(gaps.min())
        flagged[s - 1] = bool(dists.max() > 0.25 * min_gap)
    if faber_roots is None:
        raise ExperimentError("could not locate the Faber polynomial roots", n=n)
    _, terminal = greedy_bijective_match(traj[:, -1], faber_roots.roots)
    return TrajectorySet(
        family=f,
        n=n,
        r_grid=r_values,
        root_sets=root_sets,
        trajectories=traj,
        successful_r=r_values[succ],
        step_flagged=flagged,
        faber_roots=faber_roots,
        terminal_distances=terminal,
        precision_limited=np.array([sol.precision_limited for sol in sols], dtype=bool),
    )


# ---------------------------------------------------------------------------
# strong-uniqueness inequality on the unit circle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RivlinReport:
    n: int
    trials: int
    grid_size: int
    seed: int
    worst_slack: float
    ratio_min: float

    def to_json_dict(self) -> dict:
        return {
            "report": "rivlin",
            "n": self.n,
            "trials": self.trials,
            "grid_size": self.grid_size,
            "seed": self.seed,
            "worst_slack": self.worst_slack,
            "ratio_min": self.ratio_min,
        }


def rivlin_check(n: int, trials: int, grid_M: int, seed: int = 0) -> RivlinReport:
    """Test  max|p| <= n*(max|p + z^n| - 1)  on the unit circle by random
    lower-degree polynomials with standard complex normal coefficients.

    Both sides are evaluated on the uniform grid of grid_M circle points
    (one FFT per batch).  Reports the worst slack and the smallest
    empirical ratio (max|p+z^n|-1)/max|p|, whose infimum over all p is the
    strong-uniqueness constant 1/n.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    if grid_M < 64 * n:
        raise ValueError("grid too small: need grid_M >= 64*n")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    coeffs = (
        rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
    ) / np.sqrt(2.0)
    padded = np.zeros((trials, grid_M), dtype=complex)
    padded[:, :n] = coeffs
    vals_p = np.fft.fft(padded, axis=1)
    padded[:, n] = 1.0
    vals_sum = np.fft.fft(padded, axis=1)
    max_p = np.abs(vals_p).max(axis=1)
    max_sum = np.abs(vals_sum).max(axis=1)
    slack = n * (max_sum - 1.0) - max_p
    nonzero = max_p > 0
    ratios = (max_sum[nonzero] - 1.0) / max_p[nonzero]
    return RivlinReport(
        n=n,
        trials=trials,
        grid_size=grid_M,
        seed=seed,
        worst_slack=float(slack.min()),
        ratio_min=float(ratios.min()),
    )


# ---------------------------------------------------------------------------
# decay of the Faber remainder |Fhat_n - (phi/c)^n| on growing level curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FaberErrorReport:
    family: CurveFamily
    n: int
    r_values: np.ndarray
    values: np.ndarray
    slope: float

    def to_json_dict(self) -> dict:
        return {
            "report": "faber-error",
            "family": family_to_json_dict(self.family),
            "n": self.n,
            "r": [float(r) for r in self.r_values],
            "values": [float(v) for v in self.values],
            "slope": self.slope,
        }


def faber_error_decay(f: CurveFamily, n: int, r_grid: Sequence[float]) -> FaberErrorReport:
    """sup over the level curve of |Fhat_n(z) - (phi(z)/c)^n| across levels.

    Uses the exact map values phi(z_j) = r*exp(i*theta_j) of the sample
    points, which hold for the one-sheeted samples of the circle, the
    interval and explicit maps; root families are refused.
    """
    if isinstance(f, (Lemniscate, InversePolynomialImage)):
        raise ValueError(
            "family sampler does not expose map values; "
            "use a circle, interval, or explicit-map family"
        )
    r_values = np.asarray(sorted(float(r) for r in r_grid))
    c = capacity_leading_coefficient(f)
    fhat = faber_basis(f, n)[n]
    vals = np.zeros(len(r_values))
    for i, r in enumerate(r_values):
        sample = sample_level_curve(f, r, max(_M_EVAL, 8 * n))
        phi = r * np.exp(1j * sample.thetas)
        vals[i] = float(np.abs(fhat(sample.points) - (phi / c) ** n).max())
    fit = np.polyfit(np.log(r_values), np.log(np.maximum(vals, 1e-300)), 1)
    return FaberErrorReport(f, n, r_values, vals, float(fit[0]))
