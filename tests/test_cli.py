import json
import math
import re
import warnings

import numpy as np
import pytest

from limrod import load_params
from limrod.cli import main

import oracle
from conftest import MALFORMED_CSV_KINDS, malformed_csv_variants

DEMO = {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "zeta": 1.0, "eta": 2.0, "iota": 0.0, "p": 2.0}


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DEMO))
    return str(path)


def write_params(tmp_path, name="p.json", **overrides):
    payload = dict(DEMO)
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def parse_report(text):
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            try:
                out[key.strip()] = float(value)
            except ValueError:
                out[key.strip()] = value.strip()
    return out


class TestValidate:
    def test_valid_report(self, demo_file, capsys):
        assert main(["validate", demo_file]) == 0
        out = capsys.readouterr().out
        assert "valid: yes" in out
        assert "N_thresh = 1.788854" in out
        report = parse_report(out)
        assert report["dilatational modulus"] == 4.0
        assert "orientation_weak_ok = true" in out

    def test_indefinite_coupling_exits_1(self, tmp_path, capsys):
        path = write_params(tmp_path, eta=1.0, iota=1.5)
        assert main(["validate", path]) == 1
        assert "DefinitenessViolation" in capsys.readouterr().out

    def test_non_number_parameter_exits_2(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(DEMO).replace('"alpha": 1.0', '"alpha": NaN'))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "error: parameter 'alpha' must be finite, got nan\n"

    def test_overflowing_square_exits_1(self, tmp_path, capsys):
        # alpha**2 raised OverflowError, and both commands printed a traceback
        path = write_params(tmp_path, alpha=1e160)
        message = "NonPositiveParameter: material parameter 'alpha' must have a nonzero, finite square, got 1e+160\n"
        assert main(["validate", path]) == 1
        assert capsys.readouterr().out.endswith("\ninvalid: " + message)
        assert main(["eval", path, "forward", "1", "0", "0", "0", "0", "0"]) == 1
        assert capsys.readouterr().err == "error: " + message

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_malformed_file_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_no_bifurcation_report(self, tmp_path, capsys):
        path = write_params(tmp_path, eta=1.0)
        assert main(["validate", path]) == 0
        assert "no bifurcation" in capsys.readouterr().out

    def test_threshold_beyond_float_range(self, tmp_path, capsys):
        # (ratio - 1)^p and N^-p overflow: validate, branch and state once
        # printed an OverflowError traceback
        path = write_params(tmp_path, zeta=1e-100, eta=1.0)
        assert main(["validate", path]) == 0
        assert "\nN_thresh = 9.9999999999999998e-201\n" in capsys.readouterr().out
        out = tmp_path / "branch.csv"
        assert main(["branch", path, "--n-min", "0", "--n-max", "3e-200", "--count", "7",
                     "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        sheared = [r[0] for r in rows if r[-1] == "sheared"]
        assert sheared == ["1.5e-200", "2e-200", "2.5e-200", "2.9999999999999999e-200"]
        state = tmp_path / "sheared.csv"
        assert main(["state", path, "--family", "sheared", "--n-thrust", "2e-200", "--grid-h", "0.01",
                     "--out", str(state)]) == 0
        theta = json.loads(state.with_suffix(".json").read_text())["theta"]
        assert theta == pytest.approx(math.pi / 3, abs=1e-14)
        assert main(["check", str(state), path]) == 0
        assert capsys.readouterr().err == ""


    def test_angle_below_normal_matches_mpmath(self, tmp_path, capsys):
        # beta^2 zeta^2 underflows to 0: branch once wrote angles of 8.43e-8
        # rad where the branch's are near pi/3, with exit 0, and then refused
        # the set with BranchUnderflow
        path = write_params(tmp_path, beta=1e-90, zeta=1e-90, eta=2.0, iota=0.0)
        out = tmp_path / "branch.csv"
        assert main(["branch", path, "--n-min", "0", "--n-max", "4e-180", "--count", "5",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        sheared = [(float(r[0]), float(r[1])) for r in rows if r[-1] == "sheared"]
        assert len(sheared) == 3
        for thrust, theta in sheared:
            want = oracle.cos_p2(load_params(path), thrust)
            assert abs(math.cos(theta) - want) <= 4e-16, thrust


class TestEval:
    def test_forward_zero_loads(self, demo_file, capsys):
        assert main(["eval", demo_file, "forward", "0", "0", "0", "0", "0", "0"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert [report[k] for k in ("u1", "u2", "u3", "v1", "v2", "v3")] == [0, 0, 0, 0, 0, 1]
        assert report["sqrt_Qstar"] == 0.0

    def test_forward_inverse_round_trip(self, demo_file, capsys):
        loads = ["0.3", "-0.2", "0.5", "0.1", "0.0", "1.25"]
        assert main(["eval", demo_file, "forward", *loads]) == 0
        report = parse_report(capsys.readouterr().out)
        strains = [str(report[k]) for k in ("u1", "u2", "u3", "v1", "v2", "v3")]
        assert main(["eval", demo_file, "inverse", *strains]) == 0
        back = parse_report(capsys.readouterr().out)
        for key, expected in zip(("m1", "m2", "m3", "n1", "n2", "n3"), loads):
            assert back[key] == pytest.approx(float(expected), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("n3", ["1.5", "1e300", "-1e300", "1e-320"])
    def test_forward_prints_the_root_of_the_load_form(self, demo_file, capsys, n3):
        # Q* = (n3/eta)^2 overflowed to inf at 1e300, next to finite strains
        assert main(["eval", demo_file, "forward", "0", "0", "0", "0", "0", n3]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["sqrt_Qstar"] == abs(float(n3)) / DEMO["eta"]
        assert math.isfinite(report["v3"]) and "Qstar" not in report

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_forward_non_finite_exits_1(self, demo_file, capsys, value):
        assert main(["eval", demo_file, "forward", value, "0", "0", "0", "0", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"LoadOutOfRange: loads are not all finite: Loads(m1={value}," in captured.err

    @pytest.mark.parametrize("value", ["-1e300", "-1.5e-3"])
    def test_negative_scientific_component(self, demo_file, capsys, value):
        # argparse alone takes these for option flags and exits 2
        assert main(["eval", demo_file, "forward", "0", "0", "0", "0", "0", value]) == 0
        captured = capsys.readouterr()
        assert parse_report(captured.out)["v3"] < 1.0
        assert captured.err == ""

    def test_forward_with_gamma_power_beyond_float_range(self, tmp_path, capsys):
        # validate accepts gamma = 1e16 with p = 20; g**p once raised a raw
        # OverflowError here
        path = write_params(tmp_path, gamma=1e16, p=20.0)
        assert main(["eval", path, "forward", "0", "0", "0", "0", "0", "1"]) == 0
        assert parse_report(capsys.readouterr().out)["v3"] == 1.0  # 1 + 2.5e-17
        assert main(["eval", path, "forward", "1", "0", "0", "0", "0", "1"]) == 0
        assert parse_report(capsys.readouterr().out)["u1"] == pytest.approx(1e-16, rel=1e-14)

    def test_inverse_out_of_range_exits_1(self, demo_file, capsys):
        # v3 beyond its bound: |v3-1| >= beta/sqrt(det) = 1/2
        assert main(["eval", demo_file, "inverse", "0", "0", "0", "0", "0", "1.6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # Q is printed only once the map succeeds
        assert "StrainOutOfRange" in captured.err


class TestBranch:
    def test_sweep_rows(self, demo_file, tmp_path, capsys):
        out = tmp_path / "branch.csv"
        assert main(["branch", demo_file, "--n-min", "0", "--n-max", "3", "--count", "7",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,theta,u3,v3,v_shear_amplitude,branch"
        sheared = [ln for ln in lines[1:] if ln.endswith(",sheared")]
        trivial = [ln for ln in lines[1:] if ln.endswith(",trivial")]
        assert len(trivial) == 7
        thresh = 4 / math.sqrt(5)
        assert all(float(ln.split(",")[0]) > thresh for ln in sheared)
        assert sheared  # the range [0, 3] crosses the threshold

    def test_two_point_sweep(self, demo_file, tmp_path):
        out = tmp_path / "two.csv"
        assert main(["branch", demo_file, "--n-min", "0", "--n-max", "1", "--count", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + 2 trivial rows below threshold

    def test_json_format(self, demo_file, tmp_path):
        out = tmp_path / "branch.json"
        assert main(["branch", demo_file, "--n-min", "0", "--n-max", "3", "--count", "4",
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["no_bifurcation"] is None
        assert len(payload["points"]) >= 4
        assert {"N", "theta", "u3", "v3", "v_shear_amplitude", "branch"} == set(
            payload["points"][0]
        )

    def test_no_bifurcation_comment(self, tmp_path):
        params = write_params(tmp_path, eta=1.0)
        out = tmp_path / "nb.csv"
        assert main(["branch", params, "--n-min", "0", "--n-max", "1", "--count", "2",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("# no bifurcation:")

    @pytest.mark.filterwarnings("error")
    def test_span_that_overflows(self, demo_file, tmp_path):
        # once numpy's overflow warning, then exit 1 on a NaN thrust
        out = tmp_path / "wide.csv"
        assert main(["branch", demo_file, "--n-min", "-1e308", "--n-max", "1e308", "--count", "3",
                     "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert [(float(r[0]), r[-1]) for r in rows] == [
            (-1e308, "trivial"), (0.0, "trivial"), (1e308, "sheared"), (1e308, "trivial")]

    @pytest.mark.filterwarnings("error")
    def test_infinite_bound_exits_1(self, demo_file, tmp_path, capsys):
        out = tmp_path / "inf.csv"
        assert main(["branch", demo_file, "--n-min", "-inf", "--n-max", "2", "--count", "3",
                     "--out", str(out)]) == 1
        assert "LoadOutOfRange: sweep bound n_min must be finite, got -inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_min, n_max, name", [
        ("nan", "2", "n_min"), ("0", "nan", "n_max"), ("inf", "-inf", "n_min"),
    ])
    def test_non_finite_bound_is_named(self, demo_file, tmp_path, capsys, n_min, n_max, name):
        # a NaN bound once exited with "need --n-min < --n-max"
        out = tmp_path / "nan.csv"
        assert main(["branch", demo_file, "--n-min", n_min, "--n-max", n_max, "--count", "3",
                     "--out", str(out)]) == 1
        message = f"error: LoadOutOfRange: sweep bound {name} must be finite, got "
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_bad_range_exits_1(self, demo_file, tmp_path):
        assert main(["branch", demo_file, "--n-min", "3", "--n-max", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert main(["branch", demo_file, "--n-min", "0", "--n-max", "1", "--count", "1",
                     "--out", str(tmp_path / "x.csv")]) == 1


STATE_ARGS = {
    "trivial": ["--n-thrust", "1.5"],
    "sheared": ["--n-thrust", "2.0"],
    "twist": ["--m3", "1.0", "--theta", "0.4"],
    "helix": ["--m1", "1.0", "--theta", "0.9"],
    "bend": ["--m1", "1.0"],
}


class TestStateAndCheck:
    @pytest.mark.parametrize("family", sorted(STATE_ARGS))
    def test_state_then_check(self, demo_file, tmp_path, family, capsys):
        out = tmp_path / f"{family}.csv"
        argv = ["state", demo_file, "--family", family, "--grid-h", "0.002",
                "--out", str(out), *STATE_ARGS[family]]
        assert main(argv) == 0
        assert out.exists() and out.with_suffix(".json").exists()
        descriptor = json.loads(out.with_suffix(".json").read_text())
        assert descriptor["family"] in ("trivial", "sheared", "twist", "helix")
        assert main(["check", str(out), demo_file]) == 0

    def test_trivial_unloaded_straight_line(self, demo_file, tmp_path):
        out = tmp_path / "ref.csv"
        assert main(["state", demo_file, "--family", "trivial", "--n-thrust", "0",
                     "--grid-h", "0.01", "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 1:3], 0.0, atol=1e-15)
        np.testing.assert_allclose(data[:, 3], data[:, 0], atol=1e-15)

    def test_bend_circle_geometry(self, demo_file, tmp_path):
        # alpha = 1, p = 2, M1 = 1: arc of a circle of radius sqrt(2)
        params = write_params(tmp_path, eta=1.0, name="iso.json")
        out = tmp_path / "bend.csv"
        assert main(["state", params, "--family", "bend", "--m1", "1",
                     "--grid-h", "0.001", "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        descriptor = json.loads(out.with_suffix(".json").read_text())
        center = np.array([0.0, descriptor["helix_radius"], 0.0])
        radii = np.linalg.norm(data[:, 1:4] - center, axis=1)
        np.testing.assert_allclose(radii, math.sqrt(2), atol=1e-8)

    def test_sheared_below_threshold_exits_1(self, demo_file, tmp_path, capsys):
        code = main(["state", demo_file, "--family", "sheared", "--n-thrust", "1.0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "BelowThreshold" in capsys.readouterr().err

    def test_check_rejects_perturbed_geometry(self, demo_file, tmp_path):
        out = tmp_path / "helix.csv"
        assert main(["state", demo_file, "--family", "helix", "--m1", "1.0",
                     "--theta", "0.9", "--grid-h", "0.002", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        # move one interior sample point by 0.1
        fields = lines[300].split(",")
        fields[1] = f"{float(fields[1]) + 0.1:.17g}"
        lines[300] = ",".join(fields)
        bad = tmp_path / "perturbed.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["check", str(bad), demo_file]) == 1

    def test_check_rejects_truncated_csv(self, demo_file, tmp_path):
        out = tmp_path / "twist.csv"
        assert main(["state", demo_file, "--family", "twist", "--m3", "1.0",
                     "--grid-h", "0.01", "--out", str(out)]) == 0
        text = out.read_text()
        bad = tmp_path / "trunc.csv"
        bad.write_text(text[: len(text) // 2].rsplit("\n", 1)[0][:-4] + "\n")
        assert main(["check", str(bad), demo_file]) == 2

    def test_outputs_byte_stable(self, demo_file, tmp_path):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert main(["state", demo_file, "--family", "sheared", "--n-thrust", "2.0",
                         "--grid-h", "0.002", "--out", str(out)]) == 0
            outs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
        assert outs[0] == outs[1]


class TestNonFiniteStates:
    """Each command once built a CSV of NaN rows and exited 0."""

    @pytest.mark.parametrize(
        "args, error",
        [
            (["--family", "twist", "--m3", "nan"], "LoadOutOfRange"),
            (["--family", "helix", "--m1", "nan", "--theta", "0.5"], "LoadOutOfRange"),
            (["--family", "trivial", "--n-thrust", "nan"], "LoadOutOfRange"),
            (["--family", "trivial", "--n-thrust", "1", "--psi0", "nan"], "AngleOutOfRange"),
            (["--family", "sheared", "--n-thrust", "nan"], "LoadOutOfRange: thrust N = nan"),
            (["--family", "sheared", "--n-thrust", "inf"], "LoadOutOfRange: loads are not all finite"),
        ],
        ids=["twist m3", "helix m1", "trivial thrust", "trivial psi0", "sheared thrust",
             "sheared infinite thrust"],
    )
    @pytest.mark.filterwarnings("error")
    def test_state_exits_1_and_writes_nothing(self, demo_file, tmp_path, capsys, args, error):
        out = tmp_path / "nan.csv"
        assert main(["state", demo_file, *args, "--grid-h", "0.01", "--out", str(out)]) == 1
        assert error in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".json").exists()


class TestStateOptionRanges:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--family", "trivial", "--n-thrust", "1", "--grid-h", "0.5"],
             "--grid-h must lie in (0, 0.1]"),
            (["--family", "helix", "--m1", "1", "--theta", "2"], "helix family needs --theta in (0, pi/2]"),
        ],
        ids=["grid-h", "helix theta"],
    )
    def test_state_exits_1_and_writes_nothing(self, demo_file, tmp_path, capsys, args, message):
        out = tmp_path / "x.csv"
        assert main(["state", demo_file, *args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists() and not out.with_suffix(".json").exists()


class TestSubnormalHelixCouple:
    def test_state_exits_1_and_writes_nothing(self, demo_file, tmp_path, capsys):
        # the helix radius overflows: once a RuntimeWarning and exit 2
        out = tmp_path / "x.csv"
        argv = ["state", demo_file, "--family", "helix", "--m1", "5e-324", "--theta", "0.5",
                "--grid-h", "0.05", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "DegenerateCouple: bend couple M1 = 5e-324 is too small" in captured.err
        assert not out.exists() and not out.with_suffix(".json").exists()


class TestChartErrors:
    """Angles outside the Euler chart once exited 2, the code for I/O errors."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--family", "twist", "--m3", "1", "--theta", "4"], "theta must lie in"),
            (["--family", "twist", "--m3", "1", "--theta", "nan"], "theta must lie in"),
            (["--family", "trivial", "--n-thrust", "1", "--psi0", "inf"], "psi0 must be finite"),
            (["--family", "helix", "--m1", "1", "--theta", "0.5", "--psi0=-inf"],
             "psi0 must be finite"),
            (["--family", "helix", "--m1", "1", "--theta", "0.5", "--psi0", "-inf"],
             "psi0 must be finite"),
            (["--family", "helix", "--m1", "1", "--theta", "0.5", "--psi0", "nan"],
             "psi0 must be finite"),
        ],
        ids=["theta=4", "theta=nan", "trivial psi0=inf", "helix psi0=-inf",
             "helix psi0 -inf", "helix psi0=nan"],
    )
    def test_state_exits_1_and_writes_nothing(self, demo_file, tmp_path, capsys, args, message):
        out = tmp_path / "bad.csv"
        assert main(["state", demo_file, *args, "--grid-h", "0.01", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"AngleOutOfRange: {message}" in captured.err
        assert not out.exists() and not out.with_suffix(".json").exists()


class TestCheckMalformedCsv:
    def test_two_samples_exit_2(self, demo_file, tmp_path, capsys):
        # well formed, but the difference stencils need three samples; this
        # once escaped as an IndexError
        path = tmp_path / "two.csv"
        path.write_text(
            "s,rx,ry,rz,d1x,d1y,d1z,d2x,d2y,d2z,d3x,d3y,d3z\n"
            "0,0,0,0,1,0,0,0,1,0,0,0,1\n1,0,0,1,1,0,0,0,1,0,0,0,1\n"
        )
        assert main(["check", str(path), demo_file]) == 2
        err = capsys.readouterr().err
        assert err == "error: difference stencils need at least three samples, got 2\n"

    @pytest.mark.parametrize("n", [3, 4])
    def test_fewer_than_five_samples_exit_2(self, demo_file, tmp_path, capsys, n):
        # well formed, straight and unstrained, but too short for residuals
        path = tmp_path / "short.csv"
        rows = [f"{s!r},0,0,{s!r},1,0,0,0,1,0,0,0,1" for s in np.linspace(0.0, 1.0, n).tolist()]
        path.write_text("s,rx,ry,rz,d1x,d1y,d1z,d2x,d2y,d2z,d3x,d3y,d3z\n" + "\n".join(rows) + "\n")
        assert main(["check", str(path), demo_file]) == 2
        assert capsys.readouterr().err == "error: need at least five samples to evaluate residuals\n"

    @pytest.mark.parametrize("kind", MALFORMED_CSV_KINDS)
    def test_exits_2(self, demo_file, tmp_path, capsys, kind):
        good = tmp_path / "good.csv"
        assert main(["state", demo_file, "--family", "twist", "--m3", "1.0",
                     "--grid-h", "0.01", "--out", str(good)]) == 0
        text, match = malformed_csv_variants(good.read_text())[kind]
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        capsys.readouterr()
        assert main(["check", str(bad), demo_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert re.search(match, err[len("error: "):].rstrip("\n"))
