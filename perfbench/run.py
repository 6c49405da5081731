"""equicheb benchmark: acceptance workloads timed end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rate --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 5    # summary table

``--trace 0`` times whole passes with tracing off, each beside a yardstick
kernel that corrects for other load on the machine, and prints the
end-to-end metrics; ``--trace 1`` alternates plain and traced passes and prints the
per-layer metrics of the fastest traced pass.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from ``src/`` of the checkout and runs
in this process on one BLAS thread.  See perfbench/README.md.
"""

import os

# one BLAS thread, so that small LS solves do not measure thread hand-off.
# numpy and equicheb are imported later, so that a set-up probe times them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_totals  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTDIR = ROOT / ".perfbench_out"
WORKLOADS = ("rate", "zeros", "invariance")
SETUP_REPEATS = 7
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import equicheb from this checkout's src/ and the workload module."""
    if not (SRC / "equicheb" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no equicheb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import equicheb

    if Path(equicheb.__file__).resolve().parent != SRC / "equicheb":
        raise SystemExit(f"perfbench: equicheb imported from {equicheb.__file__}")
    import workloads

    return workloads


def setup_probe(args) -> None:
    """Fresh interpreter: import, build and validate inputs; print seconds."""
    t0 = time.perf_counter()
    wl = import_program()
    wl.make_workload(args.workload, args.seed, OUTDIR / args.workload)
    print(repr(time.perf_counter() - t0))


def measure_setup(args) -> float:
    """Set-up time of one fresh interpreter, measured by itself."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.split()[-1])


def beside_yardstick(yardstick, measure):
    """measure() -> seconds, run between two yardstick timings.

    Returns the seconds and the same time at the yardstick's nominal speed.
    """
    before = yardstick.seconds()
    seconds = measure()
    return seconds, seconds * yardstick.NOMINAL_S / (0.5 * (before + yardstick.seconds()))


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it is there."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def provenance(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def traced_pass(wl, w):
    tracer = Tracer()
    with wl.instrumented(tracer) as api:
        with tracer.span("bench"):
            res = w.run_pass(api)
    wall = tracer.spans[0].duration
    totals = layer_totals(tracer.spans)
    gap = abs(wl.layer_self_sum(totals) - wall)
    if gap > 1e-9:
        raise SystemExit(f"perfbench: layer self times miss the pass time by {gap:.3e} s")
    return res, wall, wl.layer_metrics(totals, res, wall)


def run_workload(wl, args, units: dict) -> dict:
    """Set up, warm up, then time passes for args.seconds; returns the result.

    Every pass and set-up probe is timed beside the yardstick, and the
    metrics are medians of the load-corrected times.  The probes are spread
    evenly over the timed window.
    """
    yardstick = wl.Yardstick()
    yardstick.seconds()  # warm-up
    setup = [beside_yardstick(yardstick, lambda: measure_setup(args))]
    outdir = OUTDIR / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        w = wl.make_workload(args.workload, args.seed, outdir)
        plain = wl.Api()
        warm = w.run_pass(plain)  # warm-up, not timed; reference for checks
        results = [warm]
        walls, traced_walls, traced = [], [], []

        def timed_pass():
            t0 = time.perf_counter()
            results.append(w.run_pass(plain))
            return time.perf_counter() - t0

        start = time.perf_counter()
        deadline = start + args.seconds
        while time.perf_counter() < deadline or len(walls) < MIN_PASSES or (
            args.trace and len(traced) < MIN_PASSES
        ):
            due = start + len(setup) * args.seconds / SETUP_REPEATS
            if len(setup) < SETUP_REPEATS and time.perf_counter() >= due:
                setup.append(beside_yardstick(yardstick, lambda: measure_setup(args)))
            walls.append(beside_yardstick(yardstick, timed_pass))
            if args.trace:
                res, wall, metrics = traced_pass(wl, w)
                results.append(res)
                traced_walls.append(wall)
                traced.append(metrics)
        while len(setup) < SETUP_REPEATS:
            setup.append(beside_yardstick(yardstick, lambda: measure_setup(args)))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUTDIR.rmdir()  # only when no other run still writes there
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    if any(r.fingerprint() != warm.fingerprint() for r in results):
        problems.append("nondeterminism: check values differ between passes")
    iters = {m["minimax.lawson_iters"] for m in traced}
    if len(iters) > 1:
        problems.append(f"nondeterminism: minimax.lawson_iters differ: {sorted(iters)}")
    failing = [c.name for r in results for c in r.checks
               if not c.ok and c.name not in wl.KNOWN_DEFECTS]
    if failing:
        problems.append("checks failed: " + ", ".join(sorted(set(failing))))

    solves = sum(r.solves for r in results)
    unconverged = sum(r.unconverged for r in results)
    checks_passed = sum(c.ok for c in warm.checks)
    summary = {
        "wall_s": statistics.median(nominal for _, nominal in walls),
        "wall_raw_median_s": statistics.median(raw for raw, _ in walls),
        "wall_raw_min_s": min(raw for raw, _ in walls),
        "setup_s": statistics.median(nominal for _, nominal in setup),
        "setup_raw_median_s": statistics.median(raw for raw, _ in setup),
        "unconverged_frac": f"{warm.unconverged}/{warm.solves}",
        "checks_failed": len(warm.checks) - checks_passed,
        "peak_rss_mb": peak_rss_mb,
        "passes": len(walls),
    }
    if args.trace:
        summary["lawson_iters"] = traced[0]["minimax.lawson_iters"]
        metrics = dict(traced[traced_walls.index(min(traced_walls))])
        metrics["trace.overhead_s"] = min(traced_walls) - summary["wall_raw_min_s"]
    else:
        metrics = {
            "wall_s": summary["wall_s"],
            "setup_s": summary["setup_s"],
            "converged_frac": 1.0 - unconverged / solves,
            "checks_passed": checks_passed,
            "peak_rss_mb": peak_rss_mb,
        }
    return {
        "checks": [c.line() for c in warm.checks],
        "problems": problems,
        "summary": summary,
        "result": {
            "correct": not problems,
            "attempted": solves,
            "failed": sum(r.failed for r in results),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(args) -> None:
    """Summary table: one plain and one traced run per workload."""
    rows = []
    for name in WORKLOADS:
        row = {"workload": name}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                 timeout=CHILD_TIMEOUT_S)
            for line in out.stdout.splitlines():
                if line.startswith("summary "):
                    summary = json.loads(line[len("summary "):])
                    if trace:
                        row["lawson_iters"] = summary["lawson_iters"]
                    else:
                        row.update(summary)
                if line.startswith("problem "):
                    row.setdefault("problems", []).append(line[len("problem "):])
        rows.append(row)
    cols = [("wall_s", "s"), ("setup_s", "s"), ("unconverged_frac", "solves"),
            ("checks_failed", "count"), ("peak_rss_mb", "MB"), ("lawson_iters", "count")]
    print(f"{'workload':<11}" + "".join(f"{c + ' [' + u + ']':>28}" for c, u in cols))
    for row in rows:
        cells = []
        for c, _ in cols:
            v = row.get(c)
            cells.append(f"{v:>28.4f}" if isinstance(v, float) else f"{v!s:>28}")
        print(f"{row['workload']:<11}" + "".join(cells))
        for problem in row.get("problems", []):
            print(f"  {row['workload']}: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        run_all(args)
        return 0
    wl = import_program()
    print("provenance " + json.dumps(provenance(args)))
    out = run_workload(wl, args, load_units())
    for line in out["checks"]:
        print("check " + line)
    for problem in out["problems"]:
        print("problem " + problem)
    print("summary " + json.dumps(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
