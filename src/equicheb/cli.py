"""Command-line interface: every operation behind one entry point.

Subcommands: faber, cheb, rate, invariance, widom, zeros, rivlin.  Every
run writes a JSON report; tabular runs (rate, widom, zeros) also write
CSV; zeros and rate emit an SVG plot.  Exit codes: 0 success, 1 invalid
arguments or family spec, 2 numerical failure (unconverged solve).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path
from typing import List, Sequence

import numpy as np

from .curves import (
    CurveFamily,
    capacity_leading_coefficient,
    faber_basis,
    family_from_json_dict,
    family_to_json_dict,
    sample_level_curve,
)
from .experiments import (
    ExperimentError,
    invariance_experiment,
    rate_experiment,
    rivlin_check,
    widom_experiment,
    zero_trajectories,
)
from .minimax import SolveOptions, solve_chebyshev
from .series import ComplexPolynomial

__all__ = ["run", "main"]

_OUTDIR_ENV = "EQUICHEB_OUTDIR"


def _parse_poly_flag(text: str) -> ComplexPolynomial:
    """Comma-separated descending-degree coefficients; complex as re+imi."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty polynomial spec")
    vals = []
    for p in parts:
        try:
            vals.append(complex(p.replace("i", "j")))
        except ValueError as e:
            raise ValueError(f"bad coefficient {p!r}") from e
    return ComplexPolynomial(np.array(vals[::-1], dtype=complex))


def _parse_float_list(text: str) -> List[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _build_family(args) -> CurveFamily:
    """The family of --family-json, or of --family, --R and --P as a spec."""
    if args.family_json:
        try:
            spec = json.loads(Path(args.family_json).read_text())
        except OSError as e:
            raise ValueError(f"cannot read family spec: {e}") from e
        except json.JSONDecodeError as e:
            raise ValueError(f"malformed family spec JSON: {e}") from e
    else:
        spec = {"family": args.family}
        if args.R is not None:
            spec["R"] = args.R
        if args.family in ("lemniscate", "inverse-image"):
            if args.P is None:
                raise ValueError(f"{args.family} needs --P")
            spec["P"] = _parse_poly_flag(args.P).to_json_dict()["coeffs"]
    return family_from_json_dict(spec)


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, rows):
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _svg_document(polylines, points, width=640, height=640):
    """Minimal deterministic SVG: one path per polyline, circles for points."""
    xs, ys = [], []
    for line in polylines:
        xs.extend(z.real for z in line)
        ys.extend(z.imag for z in line)
    for z in points:
        xs.append(z.real)
        ys.append(z.imag)
    if not xs:
        xs = ys = [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    vb = (x0 - pad, -(y1 + pad), (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)
    stroke = max(vb[2], vb[3]) / 400.0
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="{vb[0]:.6g} {vb[1]:.6g} {vb[2]:.6g} {vb[3]:.6g}">',
    ]
    for line in polylines:
        if len(line) == 0:
            continue
        parts.append(
            f'<path d="{_svg_path_multi(line)}" '
            f'fill="none" stroke="#e07020" stroke-width="{stroke:.6g}"/>'
        )
    for z in points:
        parts.append(
            f'<circle cx="{z.real:.6g}" cy="{-z.imag:.6g}" r="{2*stroke:.6g}" fill="#c02020"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _svg_path_multi(line):
    return "M " + " L ".join(f"{z.real:.6g},{-z.imag:.6g}" for z in line)


def _svg_loglog(r_values, values, width=640, height=480):
    pts = [
        complex(np.log10(r), np.log10(max(v, 1e-300)))
        for r, v in zip(r_values, values)
        if v is not None and v > 0
    ]
    return _svg_document([pts], [], width, height)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equicheb",
        description="Chebyshev polynomials on equipotential curves and Faber polynomials",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_family_flags(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--family",
                       choices=["circle", "interval", "lemniscate", "inverse-image"])
        g.add_argument("--family-json", type=str,
                       help="path to a family spec JSON (covers explicit maps)")
        p.add_argument("--R", type=float, default=None,
                       help="circle radius / lemniscate level")
        p.add_argument("--P", type=str, default=None,
                       help="polynomial, descending-degree coefficients, e.g. 1,0,-1")

    def add_solver_flags(p, sample_size=True):
        if sample_size:
            p.add_argument("--M", type=int, default=None, help="sample size override")
        p.add_argument("--tol", type=float, default=None, help="relative gap tolerance")
        p.add_argument("--max-iter", type=int, default=None)

    def add_out_flags(p):
        p.add_argument("-o", "--outdir", type=str, default=None,
                       help=f"output directory (default: ${_OUTDIR_ENV} or cwd)")
        p.add_argument("--tag", type=str, default=None, help="output file stem")

    p = sub.add_parser("faber", help="monic Faber polynomial of a family")
    add_family_flags(p)
    p.add_argument("--n", type=int, required=True)
    add_out_flags(p)

    p = sub.add_parser("cheb", help="Chebyshev polynomial of one level curve")
    add_family_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    add_solver_flags(p)
    add_out_flags(p)

    p = sub.add_parser("rate", help="convergence-rate experiment over an r grid")
    add_family_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-grid", type=str, required=True, help="comma list, e.g. 2,4,8,16,32")
    add_solver_flags(p)
    add_out_flags(p)

    p = sub.add_parser("invariance", help="compare solves at two levels")
    add_family_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=str, required=True, help="two levels, e.g. 1.5,4")
    add_solver_flags(p)
    add_out_flags(p)

    p = sub.add_parser("widom", help="normalized error sequence at fixed level")
    add_family_flags(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    add_solver_flags(p, sample_size=False)
    add_out_flags(p)

    p = sub.add_parser("zeros", help="zero trajectories across levels")
    add_family_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-grid", type=str, default=None,
                   help="comma list; default: 100 log steps in [1.05, 8]")
    add_solver_flags(p)
    add_out_flags(p)

    p = sub.add_parser("rivlin", help="strong-uniqueness inequality trials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--grid-M", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    add_out_flags(p)

    return parser


def _check_args(args) -> None:
    """Parse the family and level lists in place and validate the
    arguments, before any computation."""
    if getattr(args, "family", None) is not None or getattr(args, "family_json", None):
        args.family = _build_family(args)
    if getattr(args, "r_grid", None) is not None:
        args.r_grid = _parse_float_list(args.r_grid)
        if not args.r_grid:
            raise ValueError("--r-grid must give at least one level")
    if args.subcommand == "invariance":
        args.r = _parse_float_list(args.r)
        if len(args.r) != 2:
            raise ValueError("--r must give exactly two levels")
        if not all(1.0 < r < np.inf for r in args.r):
            raise ValueError("both levels must be finite and exceed 1")
    n = getattr(args, "n", None)
    if n is not None and n < 0:
        raise ValueError("degree must be nonnegative")
    if args.subcommand in ("cheb", "widom") and not 1.0 < args.r < np.inf:
        raise ValueError("level r must be finite and exceed 1")
    if getattr(args, "r_grid", None) is not None and not all(1.0 < r < np.inf for r in args.r_grid):
        raise ValueError("all grid levels must be finite and exceed 1")
    if getattr(args, "M", None) is not None and n is not None and args.M <= n:
        raise ValueError("sample size must exceed the degree")
    if getattr(args, "trials", 1) < 1:
        raise ValueError("trials must be positive")


def _solve_options(args) -> SolveOptions:
    """The default solver settings, with each flag the user gave (--tol,
    --max-iter) laid over its field."""
    given = {"tol_rel": args.tol, "max_iter": args.max_iter}
    return SolveOptions(**{k: v for k, v in given.items() if v is not None})


def _execute(args) -> dict:
    """Run the requested operation; returns {'json':..., 'csv':..., 'svg':...}."""
    out = {}
    if args.subcommand == "faber":
        poly = faber_basis(args.family, args.n)[args.n]
        out["json"] = {
            "report": "faber",
            "family": family_to_json_dict(args.family),
            "n": args.n,
            "c": capacity_leading_coefficient(args.family),
            **poly.to_json_dict(),
        }
    elif args.subcommand == "cheb":
        M = args.M if args.M is not None else max(256, 16 * args.n)
        sample = sample_level_curve(args.family, args.r, M)
        sol = solve_chebyshev(sample, args.n, _solve_options(args))
        payload = sol.to_json_dict(n=args.n, r=args.r)
        payload["report"] = "cheb"
        payload["family"] = family_to_json_dict(args.family)
        out["json"] = payload
        out["unconverged"] = not sol.converged
    elif args.subcommand == "rate":
        rep = rate_experiment(args.family, args.n, args.r_grid,
                              opts=_solve_options(args), M=args.M)
        out["json"] = rep.to_json_dict()
        out["csv"] = rep.to_csv_rows()
        out["svg"] = _svg_loglog(rep.r_values, rep.D)
    elif args.subcommand == "invariance":
        rep = invariance_experiment(args.family, args.n, tuple(args.r),
                                    opts=_solve_options(args), M=args.M)
        out["json"] = rep.to_json_dict()
    elif args.subcommand == "widom":
        rep = widom_experiment(args.family, args.r, args.n_max,
                               opts=_solve_options(args))
        out["json"] = rep.to_json_dict()
        out["csv"] = rep.to_csv_rows()
    elif args.subcommand == "zeros":
        grid = list(np.geomspace(1.05, 8.0, 100)) if args.r_grid is None else args.r_grid
        rep = zero_trajectories(args.family, args.n, grid,
                                opts=_solve_options(args), M=args.M)
        out["json"] = rep.to_json_dict()
        out["csv"] = rep.to_csv_rows()
        out["svg"] = _svg_document(
            [rep.trajectories[t] for t in range(rep.trajectories.shape[0])],
            list(rep.faber_roots.roots),
        )
    elif args.subcommand == "rivlin":
        rep = rivlin_check(args.n, args.trials, args.grid_M, args.seed)
        out["json"] = rep.to_json_dict()
    else:
        raise ValueError(f"unknown subcommand {args.subcommand!r}")
    return out


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, execute, persist artifacts; returns the exit code."""
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
    except SystemExit as e:
        # argparse already printed the message
        return 0 if e.code == 0 else 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    try:
        out = _execute(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ExperimentError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2

    try:
        outdir = Path(args.outdir or os.environ.get(_OUTDIR_ENV) or os.getcwd())
        outdir.mkdir(parents=True, exist_ok=True)
        stem = outdir / (args.tag or args.subcommand)
        _write_json(stem.with_suffix(".json"), out["json"])
        print(f"wrote {stem.with_suffix('.json')}")
        if "csv" in out:
            _write_csv(stem.with_suffix(".csv"), out["csv"])
            print(f"wrote {stem.with_suffix('.csv')}")
        if "svg" in out:
            stem.with_suffix(".svg").write_text(out["svg"])
            print(f"wrote {stem.with_suffix('.svg')}")
    except OSError as e:
        print(f"error writing outputs: {e}", file=sys.stderr)
        return 1
    if out.get("unconverged"):
        print("solve did not converge within the step budget or the exchange cap", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
