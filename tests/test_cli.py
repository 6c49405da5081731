import csv
import json
import os
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from equicheb import cli, experiments, minimax
from equicheb.cli import run
from equicheb.experiments import ExperimentError
from equicheb.minimax import SolveOptions


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def readme_cli_examples():
    """argv of each line of the README's "## CLI examples" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI examples", 1)[1].split("```")[1]
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("equicheb ")]
    assert examples, "README has no CLI examples block"
    return examples


class TestReadmeExamples:
    @pytest.mark.parametrize("argv", readme_cli_examples(), ids=lambda argv: argv[0])
    def test_example_runs(self, tmp_path, argv):
        if argv[0] == "zeros":
            # 100 levels at degree 21 take about 12 s: parsed and validated only
            cli._check_args(cli._make_parser().parse_args(argv))
            return
        assert run(argv + ["-o", str(tmp_path)]) == 0


class TestModuleEntryPoint:
    def test_python_m_runs_the_command(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = ["faber", "--family", "interval", "--n", "3", "-o", str(tmp_path)]
        done = subprocess.run([sys.executable, "-m", "equicheb", *argv], env=env, capture_output=True)
        assert done.returncode == 0, done.stderr
        assert read_json(tmp_path / "faber.json")["family"] == {"family": "interval"}


class TestChebCommand:
    def test_circle_degree_three(self, tmp_path):
        code = run([
            "cheb", "--family", "circle", "--R", "1", "--r", "2", "--n", "3",
            "-o", str(tmp_path), "--tag", "c3",
        ])
        assert code == 0
        rep = read_json(tmp_path / "c3.json")
        assert rep["converged"]
        assert rep["sup_norm"] == pytest.approx(8.0, rel=1e-10)
        coeffs = np.array([complex(a, b) for a, b in rep["coeffs"]])
        np.testing.assert_allclose(coeffs, [0, 0, 0, 1], atol=1e-10)

    def test_diagnostics_show_the_path(self, tmp_path):
        # T_4's eight extremal points on the ellipse lie on the grid: the
        # start certifies in one step and no exchange runs
        assert run(["cheb", "--family", "interval", "--r", "1.5", "--n", "4",
                    "-o", str(tmp_path)]) == 0
        rep = read_json(tmp_path / "cheb.json")
        assert rep["iterations"] == 1
        diagnostics = rep["diagnostics"]
        assert set(diagnostics) == {"equioscillation_gap", "exchange", "newton_steps"}
        assert abs(diagnostics["equioscillation_gap"]) <= 1e-14
        assert diagnostics["exchange"] == "none" and diagnostics["newton_steps"] == 0

    def test_diagnostics_show_the_curve_start(self, tmp_path):
        # T_3's six extremal points on the ellipse miss the grid: the start
        # certifies on its curve maxima in one step, and no exchange runs
        assert run(["cheb", "--family", "interval", "--r", "1.5", "--n", "3",
                    "-o", str(tmp_path)]) == 0
        rep = read_json(tmp_path / "cheb.json")
        assert rep["converged"] and rep["iterations"] == 1
        assert rep["diagnostics"]["exchange"] == "start"
        assert rep["diagnostics"]["newton_steps"] == 0
        assert abs(rep["diagnostics"]["equioscillation_gap"]) <= 1e-14

    def test_unconverged_exit_code(self, tmp_path, monkeypatch):
        # T_3 on Bernoulli's lemniscate is not its start: three steps stop
        # short of 1e-14
        code = run([
            "cheb", "--family", "lemniscate", "--P", "1,0,-1", "--r", "2", "--n", "3",
            "--max-iter", "3", "--tol", "1e-14",
            "-o", str(tmp_path),
        ])
        assert code == 2
        # a curve exchange that reaches its cap above the tolerance: Newton
        # on the extremal set, which ends this exchange, is given no steps
        monkeypatch.setattr(minimax, "_EXCHANGE_ROUNDS", 1)
        monkeypatch.setattr(minimax, "_NEWTON_STEPS", 0)
        code = run([
            "cheb", "--family", "lemniscate", "--P", "1,0,-1", "--r", "1.2", "--n", "3",
            "--M", "512", "-o", str(tmp_path),
        ])
        assert code == 2
        assert read_json(tmp_path / "cheb.json")["converged"] is False

    def test_validation_errors(self, tmp_path, capsys):
        assert run(["cheb", "--family", "circle", "--r", "0.5", "--n", "3",
                    "-o", str(tmp_path)]) == 1
        for family in ("lemniscate", "inverse-image"):
            assert run(["cheb", "--family", family, "--r", "2", "--n", "3",
                        "-o", str(tmp_path)]) == 1
            assert capsys.readouterr().err.endswith(f"error: {family} needs --P\n")
        assert run(["cheb", "--family", "circle", "--r", "2", "--n", "3",
                    "--M", "2", "-o", str(tmp_path)]) == 1
        assert run(["nonsense"]) == 1


class TestFaberCommand:
    def test_bernoulli_even(self, tmp_path):
        code = run([
            "faber", "--family", "lemniscate", "--P", "1,0,-1", "--R", "1",
            "--n", "4", "-o", str(tmp_path), "--tag", "f4",
        ])
        assert code == 0
        rep = read_json(tmp_path / "f4.json")
        coeffs = np.array([complex(a, b) for a, b in rep["coeffs"]])
        np.testing.assert_allclose(coeffs, [1, 0, -2, 0, 1], atol=1e-12)


class TestInvarianceCommand:
    def test_lemniscate_invariance(self, tmp_path):
        code = run([
            "invariance", "--family", "lemniscate", "--P", "1,0,-1", "--R", "1",
            "--n", "6", "--r", "1.5,4", "-o", str(tmp_path), "--tag", "inv",
        ])
        assert code == 0
        rep = read_json(tmp_path / "inv.json")
        assert rep["applicable"]
        assert rep["coefficient_distance"] < 1e-6
        oracle = np.array([complex(a, b) for a, b in rep["oracle"]["coeffs"]])
        expected = np.array([1.0])
        for _ in range(3):
            expected = np.convolve(expected, [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(oracle, expected)


class TestRateCommand:
    def test_rate_csv_and_svg(self, tmp_path):
        code = run([
            "rate", "--family", "lemniscate", "--P", "1,0,-1", "--R", "1",
            "--n", "3", "--r-grid", "2,4,8,16,32", "--M", "256",
            "--tol", "3e-4", "--max-iter", "6000",
            "-o", str(tmp_path), "--tag", "rate3",
        ])
        assert code == 0
        rep = read_json(tmp_path / "rate3.json")
        assert rep["slope"] <= -0.9
        with open(tmp_path / "rate3.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["r", "D"]
        assert len(rows) == 6
        assert float(rows[1][0]) == 2.0
        # SVG must be valid XML with at least one path
        tree = ET.parse(tmp_path / "rate3.svg")
        ns = {"svg": "http://www.w3.org/2000/svg"}
        assert tree.getroot().tag.endswith("svg")
        assert len(tree.findall(".//svg:path", ns)) >= 1
        assert "viewBox" in tree.getroot().attrib

    def test_unconverged_rate_exit_2(self, tmp_path):
        code = run([
            "rate", "--family", "lemniscate", "--P", "1,0,-1", "--R", "1",
            "--n", "3", "--r-grid", "2,4,8,16,32", "--M", "256",
            "--tol", "1e-14", "--max-iter", "3",
            "-o", str(tmp_path),
        ])
        assert code == 2


class TestZerosCommand:
    def test_trajectories_svg(self, tmp_path):
        code = run([
            "zeros", "--family", "lemniscate", "--P", "1,0,-1", "--R", "1",
            "--n", "3", "--r-grid", "1.5,2,3,4", "--M", "128",
            "-o", str(tmp_path), "--tag", "z3",
        ])
        assert code == 0
        rep = read_json(tmp_path / "z3.json")
        assert len(rep["trajectories"]) == 3
        tree = ET.parse(tmp_path / "z3.svg")
        ns = {"svg": "http://www.w3.org/2000/svg"}
        paths = tree.findall(".//svg:path", ns)
        assert len(paths) == 3  # one path element per trajectory
        with open(tmp_path / "z3.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "traj_id", "re", "im"]
        assert len(rows) == 1 + 4 * 3

    def test_precision_limited_levels_in_json(self, tmp_path):
        # eps * 3000^4 > 1e-3: the top level is refined in double-double
        code = run([
            "zeros", "--family", "lemniscate", "--P", "1,0,-1", "--R", "1",
            "--n", "4", "--r-grid", "2,3000", "--M", "128",
            "-o", str(tmp_path), "--tag", "z4",
        ])
        assert code == 0
        rep = read_json(tmp_path / "z4.json")
        assert rep["precision_limited"] == [False, True]
        assert max(rep["terminal_distances"]) < 1e-4


    @pytest.mark.parametrize("grid", ["", ","], ids=["empty", "comma"])
    def test_empty_grid_refused(self, tmp_path, capsys, grid):
        # an empty list must not fall back to the 100-level default grid
        out = tmp_path / "out"
        argv = ["zeros", "--family", "lemniscate", "--P", "1,0,-1", "--n", "2",
                "--M", "64", "--r-grid", grid, "-o", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_degree_zero_refused_before_solving(self, tmp_path, capsys, monkeypatch):
        # a constant has no zeros: refused before the first level is solved
        solved = []
        monkeypatch.setattr(experiments, "solve_chebyshev_batch", lambda *a, **k: solved.append(a))
        out = tmp_path / "out"
        argv = ["zeros", "--family", "lemniscate", "--P", "1,0,-1", "--n", "0",
                "--M", "64", "--r-grid", "1.5,2", "-o", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("error: degree must be at least 1")
        assert not solved
        assert not out.exists()


class TestRivlinCommand:
    def test_rivlin_json(self, tmp_path):
        code = run([
            "rivlin", "--n", "5", "--trials", "100", "--grid-M", "512",
            "--seed", "3", "-o", str(tmp_path), "--tag", "rv",
        ])
        assert code == 0
        rep = read_json(tmp_path / "rv.json")
        assert rep["worst_slack"] >= -1e-9 * 5
        assert rep["ratio_min"] >= 1 / 5 - 1e-6


class TestWidomCommand:
    def test_widom_csv(self, tmp_path):
        code = run([
            "widom", "--family", "circle", "--R", "1", "--r", "2",
            "--n-max", "4", "--tol", "1e-6", "--max-iter", "100",
            "-o", str(tmp_path), "--tag", "wd",
        ])
        assert code == 0
        rep = read_json(tmp_path / "wd.json")
        vals = [v for v in rep["values"] if v is not None]
        assert max(vals) < 1e-12
        with open(tmp_path / "wd.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "normalized_error"]

    def test_no_degree_refused(self, tmp_path, capsys):
        # n_max < 1 leaves no degree to report: no empty report is written
        out = tmp_path / "out"
        argv = ["widom", "--family", "interval", "--r", "2", "--n-max", "0", "-o", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("error: n_max must be at least 1")
        assert not (out / "widom.json").exists()

    def test_sample_size_flag_refused(self, tmp_path):
        # widom_experiment has no sample-size parameter, so --M is not
        # registered on widom
        assert run(["widom", "--family", "circle", "--r", "2", "--n-max", "2",
                    "--M", "5", "-o", str(tmp_path)]) == 1


class TestFamilyJsonFlag:
    def test_explicit_map_via_json(self, tmp_path):
        spec = {
            "family": "explicit",
            "psi": {"c": 0.5, "tail": [[0.0, 0.0], [0.5, 0.0]]},  # ellipse inverse
        }
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(spec))
        code = run([
            "cheb", "--family-json", str(path), "--r", "2", "--n", "2",
            "--tol", "5e-4", "--max-iter", "8000",
            "-o", str(tmp_path), "--tag", "em",
        ])
        assert code == 0
        rep = read_json(tmp_path / "em.json")
        coeffs = np.array([complex(a, b) for a, b in rep["coeffs"]])
        np.testing.assert_allclose(coeffs, [-0.5, 0, 1], atol=1e-8)

    def test_malformed_family_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["cheb", "--family-json", str(path), "--r", "2", "--n", "1",
                    "-o", str(tmp_path)]) == 1

    def test_exact_psi_gives_faber_polynomial(self, tmp_path):
        # the Faber recurrence on an exact psi holds at any degree; the monic
        # Faber polynomial of the interval is the monic Chebyshev polynomial, T_4 / 8
        spec = {
            "family": "explicit",
            "psi": {"c": 0.5, "tail": [[0.0, 0.0], [0.5, 0.0]], "exact": True},
        }
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(spec))
        code = run(["faber", "--family-json", str(path), "--n", "4",
                    "-o", str(tmp_path), "--tag", "fx"])
        assert code == 0
        rep = read_json(tmp_path / "fx.json")
        coeffs = np.array([complex(a, b) for a, b in rep["coeffs"]])
        np.testing.assert_allclose(coeffs, [1 / 8, 0, -1, 0, 1], atol=1e-14)
        assert rep["family"]["psi"]["exact"] is True

    def test_phi_only_spec_gives_faber_but_no_samples(self, tmp_path, capsys):
        tail = [[0.0, 0.0], [-0.5, 0.0], [0.0, 0.0]]  # depth 2, enough for degree 1
        spec = {"family": "explicit", "phi": {"c": 2.0, "tail": tail}}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(spec))
        assert run(["cheb", "--family-json", str(path), "--r", "2", "--n", "2",
                    "-o", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert run(["faber", "--family-json", str(path), "--n", "1",
                    "-o", str(tmp_path), "--tag", "fphi"]) == 0
        rep = read_json(tmp_path / "fphi.json")
        assert rep["c"] == 2.0

    @pytest.mark.parametrize("spec", [
        [1, 2],
        {"family": "lemniscate"},
        {"family": "explicit", "psi": {"c": 0.5}},
        {"family": "explicit", "psi": {"c": 0.5, "tail": [[0.0, 0.0]], "exact": "no"}},
        {"family": "explicit", "phi": {"c": 2.0, "tail": [[0.0, 0.0]]},
         "psi": {"c": 2.0, "tail": [[0.0, 0.0]]}},
    ], ids=["list", "lemniscate-without-P", "psi-without-tail", "exact-not-boolean",
            "phi-and-psi"])
    def test_malformed_spec_exits_one(self, tmp_path, capsys, spec):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert run(["faber", "--family-json", str(path), "--n", "2",
                    "-o", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("flags, spec", [
        (["--family", "circle", "--R", "2.5"], {"family": "circle", "R": 2.5}),
        (["--family", "interval"], {"family": "interval"}),
        (["--family", "lemniscate", "--P", "1,0,-1+2i"],
         {"family": "lemniscate", "P": [[-1.0, 2.0], [0.0, 0.0], [1.0, 0.0]]}),
        (["--family", "inverse-image", "--P", "1,0,-2,0.1"],
         {"family": "inverse-image", "P": [[0.1, 0.0], [-2.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}),
    ], ids=["circle", "interval", "lemniscate", "inverse-image"])
    def test_flags_give_the_family_of_their_spec(self, tmp_path, flags, spec):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(spec))
        assert run(["faber", *flags, "--n", "5", "-o", str(tmp_path), "--tag", "flags"]) == 0
        assert run(["faber", "--family-json", str(path), "--n", "5",
                    "-o", str(tmp_path), "--tag", "spec"]) == 0
        assert read_json(tmp_path / "flags.json") == read_json(tmp_path / "spec.json")


class TestNonFiniteInput:
    # each enters as outside input and must be refused before any output
    CASES = [
        (["faber", "--family", "lemniscate", "--P", "1,nan", "--n", "2"], None),
        (["cheb", "--family", "circle", "--r", "nan", "--n", "3"], None),
        (["cheb", "--family", "circle", "--r", "inf", "--n", "3"], None),
        (["cheb", "--family", "circle", "--R", "inf", "--r", "2", "--n", "3"], None),
        (["cheb", "--family", "lemniscate", "--P", "1,0,-1", "--R", "nan", "--r", "2",
          "--n", "3"], None),
        (["cheb", "--family", "inverse-image", "--P", "1,0,inf", "--r", "2", "--n", "3"], None),
        (["rate", "--family", "interval", "--n", "3", "--r-grid", "2,4,8,nan"], None),
        (["invariance", "--family", "interval", "--n", "2", "--r", "1.5,inf"], None),
        (["widom", "--family", "interval", "--r", "nan", "--n-max", "3"], None),
        (["cheb", "--r", "2", "--n", "3"],
         {"family": "explicit", "psi": {"c": 0.5, "tail": [[0.0, 0.0], [float("nan"), 0.0]]}}),
        (["cheb", "--r", "2", "--n", "3"],
         {"family": "explicit", "psi": {"c": float("inf"), "tail": [[0.0, 0.0]]}}),
        (["faber", "--n", "2"],
         {"family": "explicit", "phi": {"c": 2.0, "tail": [[0.0, float("nan")]] + [[0.0, 0.0]] * 3}}),
    ]
    IDS = ["faber-P-nan", "cheb-r-nan", "cheb-r-inf", "cheb-R-inf", "lemniscate-R-nan",
           "preimage-P-inf", "rate-grid-nan", "invariance-r-inf", "widom-r-nan",
           "psi-tail-nan", "psi-c-inf", "phi-tail-nan"]

    @pytest.mark.parametrize("argv, spec", CASES, ids=IDS)
    def test_exits_one_and_writes_nothing(self, tmp_path, capsys, argv, spec):
        if spec is not None:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))  # NaN and Infinity tokens
            argv = argv + ["--family-json", str(path)]
        out = tmp_path / "out"
        assert run(argv + ["-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestRejectedArguments:
    @pytest.mark.parametrize("argv, message", [
        (["faber", "--family", "lemniscate", "--P", " , ", "--n", "2"], "empty polynomial spec"),
        (["faber", "--family-json", "missing.json", "--n", "2"], "cannot read family spec"),
        (["invariance", "--family", "interval", "--n", "2", "--r", "1.5"],
         "--r must give exactly two levels"),
        (["cheb", "--family", "circle", "--r", "2", "--n", "-1"], "degree must be nonnegative"),
        (["rivlin", "--n", "3", "--trials", "0"], "trials must be positive"),
    ], ids=["empty-P", "unreadable-family-json", "one-invariance-level", "negative-n",
            "no-trials"])
    def test_exits_one_and_writes_nothing(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)  # the family spec path is relative to it
        out = tmp_path / "out"
        assert run(argv + ["-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_outdir_under_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run(["rivlin", "--n", "3", "--trials", "10", "--grid-M", "256",
                    "-o", str(blocker / "out")]) == 1
        assert capsys.readouterr().err.startswith("error writing outputs: ")
        assert [p.name for p in tmp_path.iterdir()] == ["file"] and blocker.read_text() == ""


class TestOutputDirEnv:
    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EQUICHEB_OUTDIR", str(tmp_path))
        code = run(["rivlin", "--n", "3", "--trials", "10", "--grid-M", "256",
                    "--tag", "envtest"])
        assert code == 0
        assert (tmp_path / "envtest.json").exists()


class TestJsonRoundTrip:
    def test_reports_reparse_with_field_equality(self, tmp_path):
        # every emitted JSON report re-parses into an equal dict (the
        # serialized form is the canonical report content)
        runs = [
            (["rivlin", "--n", "4", "--trials", "50", "--grid-M", "256"], "r1"),
            (["cheb", "--family", "circle", "--R", "1", "--r", "2", "--n", "2"], "r2"),
            (["faber", "--family", "interval", "--n", "3"], "r3"),
        ]
        for argv, tag in runs:
            assert run(argv + ["-o", str(tmp_path), "--tag", tag]) == 0
            d = read_json(tmp_path / f"{tag}.json")
            assert json.loads(json.dumps(d)) == d


class TestSolverFlagOverlay:
    # each flag replaces one field of the default settings
    LEM = ["--family", "lemniscate", "--P", "1,0,-1", "--R", "1", "--n", "3"]
    CASES = [
        ("rate", "rate_experiment", ["--r-grid", "2,4,8,16,32"], SolveOptions()),
        ("invariance", "invariance_experiment", ["--r", "1.5,4"], SolveOptions()),
        ("zeros", "zero_trajectories", ["--r-grid", "1.5,2"], SolveOptions()),
    ]

    def captured_opts(self, monkeypatch, tmp_path, sub, name, argv):
        seen = []

        def stub(*args, opts, **kwargs):
            seen.append(opts)
            raise ExperimentError("stub")  # stops before any output

        monkeypatch.setattr(cli, name, stub)
        assert run([sub] + self.LEM + argv + ["-o", str(tmp_path)]) == 2
        assert len(seen) == 1
        return seen[0]

    @pytest.mark.parametrize("sub, name, argv, default", CASES)
    def test_flags_replace_single_fields(self, monkeypatch, tmp_path, sub, name, argv, default):
        assert self.captured_opts(monkeypatch, tmp_path, sub, name, argv) == default
        opts = self.captured_opts(monkeypatch, tmp_path, sub, name, argv + ["--tol", "1e-3"])
        assert opts == SolveOptions(tol_rel=1e-3, max_iter=default.max_iter)
        opts = self.captured_opts(monkeypatch, tmp_path, sub, name, argv + ["--max-iter", "50"])
        assert opts == SolveOptions(tol_rel=default.tol_rel, max_iter=50)

    def test_out_of_range_settings_rejected(self, tmp_path):
        for flags in (["--max-iter", "0"], ["--tol", "-1"], ["--tol", "inf"], ["--tol", "nan"]):
            assert run(["cheb", "--family", "circle", "--r", "2", "--n", "3"]
                       + flags + ["-o", str(tmp_path)]) == 1

    def test_no_adapt_refused(self, tmp_path):
        # no operation takes the flag of the removed sample doubling
        runs = [
            ["faber"] + self.LEM,
            ["cheb"] + self.LEM + ["--r", "2"],
            ["rate"] + self.LEM + ["--r-grid", "2,4,8,16,32"],
            ["invariance"] + self.LEM + ["--r", "1.5,4"],
            ["widom", "--family", "circle", "--r", "2", "--n-max", "2"],
            ["zeros"] + self.LEM,
            ["rivlin", "--n", "4"],
        ]
        for argv in runs:
            assert run(argv + ["--no-adapt", "-o", str(tmp_path)]) == 1
