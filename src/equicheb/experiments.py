"""Desk-scale experiments: convergence rates, exact invariances, zero
trajectories, and the strong-uniqueness inequality on the unit circle.

Each harness produces a frozen report object with deterministic contents;
any solve that fails its convergence certificate aborts the report (rate
and invariance) or is recorded as a gap (widom, trajectories), never
silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .curves import (
    Circle,
    CurveFamily,
    CurveSample,
    Interval,
    InversePolynomialImage,
    Lemniscate,
    capacity_leading_coefficient,
    faber_basis,
    family_to_json_dict,
    phi_series,
    sample_level_curve,
)
from .minimax import MinimaxSolution, SolveOptions, solve_chebyshev
from .rootfind import RootFindingError, RootSet, all_roots
from .series import ComplexPolynomial, FaberExpansion, faber_basis_expand, monic_faber

# phi_series and monic_faber are unused here but stay bound: perfbench patches them by name

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


class ExperimentError(RuntimeError):
    """A contributing solve failed; carries the diagnostic solution."""

    def __init__(self, message, r=None, n=None, solution: MinimaxSolution | None = None):
        super().__init__(message)
        self.r = r
        self.n = n
        self.solution = solution


def _experiment_sample(f: CurveFamily, r: float, n: int, M: int | None = None) -> CurveSample:
    return sample_level_curve(f, r, M if M is not None else max(512, 32 * n))


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
    alphas: List[FaberExpansion]
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
            "alphas": [
                [[float(a.real), float(a.imag)] for a in fe.alpha] for fe in self.alphas
            ],
            "scaled_alpha": [[float(v) for v in row] for row in self.scaled_alpha],
        }

    def to_csv_rows(self):
        header = ["r", "D"] + [f"alpha_{k}" for k in range(self.n)]
        rows = [header]
        for i, r in enumerate(self.r_values):
            rows.append(
                [repr(float(r)), repr(float(self.D[i]))]
                + [str(complex(a)) for a in self.alphas[i].alpha]
            )
        return rows


def rate_experiment(
    f: CurveFamily,
    n: int,
    r_grid: Sequence[float],
    opts: SolveOptions = SolveOptions(),
    M: int | None = None,
    M_eval: int = 4096,
) -> RateReport:
    """Measure D(r) = sup over the level curve of |T_n - monic Faber|.

    Solves the discrete Chebyshev problem at each level, expands each
    solution over the monic Faber basis, and fits a log-log line to
    (r, D(r)).  Families whose Chebyshev polynomials equal the Faber
    polynomial exactly are reported with ``exact_match`` instead of a
    slope.  Any unconverged solve aborts with diagnostics.
    """
    r_values = np.asarray(sorted(float(r) for r in r_grid))
    if len(r_values) < 4:
        raise ValueError("need at least 4 grid points")
    if r_values[-1] < 8.0 * r_values[0]:
        raise ValueError("grid must span at least a factor of 8")
    basis = faber_basis(f, n)
    fhat = basis[n]
    D = np.zeros(len(r_values))
    cheb_sup = np.zeros(len(r_values))
    faber_sup = np.zeros(len(r_values))
    alphas: List[FaberExpansion] = []
    solutions: List[MinimaxSolution] = []
    scaled = np.zeros((len(r_values), n))
    for i, r in enumerate(r_values):
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
        eval_pts = sample_level_curve(f, r, max(M_eval, 8 * n)).points
        diff = sol.polynomial - fhat
        D[i] = float(np.abs(diff(eval_pts)).max())
        cheb_sup[i] = float(np.abs(sol.polynomial(eval_pts)).max())
        faber_sup[i] = float(np.abs(fhat(eval_pts)).max())
        fe = faber_basis_expand(sol.polynomial, basis)
        alphas.append(fe)
        scaled[i] = np.abs(fe.alpha) * r ** (np.arange(n) + 1.0)
        solutions.append(sol)
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
        scaled_alpha=scaled,
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


def _invariance_oracle(f: CurveFamily, n: int) -> Optional[ComplexPolynomial]:
    if isinstance(f, Circle):
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[n] = 1.0
        return ComplexPolynomial(coeffs)
    if isinstance(f, Interval):
        return monic_classical_chebyshev(n)
    if isinstance(f, Lemniscate) and n % f.P.degree == 0:
        power = n // f.P.degree
        out = np.array([1.0], dtype=complex)
        for _ in range(power):
            out = np.convolve(out, f.P.coeffs)
        return ComplexPolynomial(out)
    return None


def invariance_experiment(
    f: CurveFamily,
    n: int,
    r_pair: Tuple[float, float],
    opts: SolveOptions = SolveOptions(),
    M: int | None = None,
) -> InvarianceReport:
    """Solve at two levels and compare; attach the closed-form oracle where
    one exists (circles, lemniscates at multiples of deg P, the interval).

    For lemniscate-type families with n not a multiple of deg P the
    invariance theorems make no claim and the report says so instead of
    solving.
    """
    r_lo, r_hi = float(r_pair[0]), float(r_pair[1])
    if isinstance(f, (Lemniscate, InversePolynomialImage)) and n % f.P.degree != 0:
        return InvarianceReport(f, n, (r_lo, r_hi), False, None, None, None, None)
    polys = []
    for r in (r_lo, r_hi):
        sol = solve_chebyshev(_experiment_sample(f, r, n, M), n, opts)
        if not sol.converged:
            raise ExperimentError(
                f"solve at r={r} did not converge", r=r, n=n, solution=sol
            )
        polys.append(sol.polynomial)
    dist = polys[0].coefficient_distance(polys[1])
    oracle = _invariance_oracle(f, n)
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
    M_eval: int = 4096,
) -> WidomReport:
    """Normalized error sequence (c/r)^n * sup|T_n - monic Faber| at fixed r.

    Alongside it, the normalized sup (c/r)^n * sup|T_n| of each solution,
    the scale against which an error counts as zero (families whose T_n
    equal their Faber polynomials give pure rounding noise).  Unconverged
    solves are recorded as gaps (None), not failures.
    """
    if not 1.0 < r < np.inf:
        raise ValueError("level r must be finite and exceed 1")
    c = capacity_leading_coefficient(f)
    basis = faber_basis(f, n_max)
    values: List[Optional[float]] = []
    sups: List[Optional[float]] = []
    for n in range(1, n_max + 1):
        sample = _experiment_sample(f, r, n)
        sol = solve_chebyshev(sample, n, opts)
        if not sol.converged:
            values.append(None)
            sups.append(None)
            continue
        fhat = basis[n]
        eval_pts = sample_level_curve(f, r, max(M_eval, 8 * n)).points
        diff = sol.polynomial - fhat
        norm = (c / r) ** n
        values.append(float(norm * np.abs(diff(eval_pts)).max()))
        sups.append(float(norm * np.abs(sol.polynomial(eval_pts)).max()))
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

    Solves per level, finds all roots, and continues trajectories by
    bijective nearest-neighbor matching between consecutive root sets.  A
    matching step whose displacement exceeds a quarter of the minimal
    inter-root gap is flagged (grid too coarse there), not fatal.
    Unconverged solves, and levels whose roots the root finder cannot
    certify, leave gaps.  The terminal root set is compared
    against the roots of the monic Faber polynomial.  ``precision_limited``
    marks the levels whose solves double precision could not resolve and
    which were refined in double-double (see ``solve_chebyshev``).
    """
    r_values = np.asarray(sorted(float(r) for r in r_grid))
    root_sets: List[Optional[RootSet]] = []
    limited = np.zeros(len(r_values), dtype=bool)
    succ_roots = []
    succ_r = []
    for i, r in enumerate(r_values):
        sample = _experiment_sample(f, r, n, M)
        sol = solve_chebyshev(sample, n, opts)
        limited[i] = sol.precision_limited
        rs = None
        if sol.converged:
            try:
                rs = all_roots(sol.polynomial)
            except RootFindingError:
                pass  # a gap, as for an unconverged solve
        root_sets.append(rs)
        if rs is None:
            continue
        succ_roots.append(rs.roots)
        succ_r.append(r)
    if not succ_roots:
        raise ExperimentError("no level produced a converged solve", n=n)
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
    fhat = faber_basis(f, n)[n]
    try:
        faber_roots = all_roots(fhat)
    except RootFindingError as e:
        raise ExperimentError("could not locate the Faber polynomial roots", n=n) from e
    _, terminal = greedy_bijective_match(traj[:, -1], faber_roots.roots)
    return TrajectorySet(
        family=f,
        n=n,
        r_grid=r_values,
        root_sets=root_sets,
        trajectories=traj,
        successful_r=np.asarray(succ_r),
        step_flagged=flagged,
        faber_roots=faber_roots,
        terminal_distances=terminal,
        precision_limited=limited,
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


def faber_error_decay(
    f: CurveFamily, n: int, r_grid: Sequence[float], M: int = 2048
) -> FaberErrorReport:
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
        sample = sample_level_curve(f, r, max(M, 8 * n))
        phi = r * np.exp(1j * sample.thetas)
        vals[i] = float(np.abs(fhat(sample.points) - (phi / c) ** n).max())
    fit = np.polyfit(np.log(r_values), np.log(np.maximum(vals, 1e-300)), 1)
    return FaberErrorReport(f, n, r_values, vals, float(fit[0]))
