"""End-to-end command line runs, in process.

Every test drives main(argv) with --out pointed at a temp directory, then
inspects exit codes, table headers, and report.json: the same artifacts a
shell user would see.
"""

import argparse
import csv
import json
import os
import warnings

import numpy as np
import pytest

from otflow.cli import build_parser, main

UNIFORM_12 = '{"kind": "uniform", "lo": 1.0, "hi": 2.0}'
AFFINE_IMAGE = ('{"kind": "affine_image", "base": {"kind": "uniform", '
                '"lo": 1.0, "hi": 2.0}, "alpha": 0.3333333333333333, '
                '"beta": -3.0}')
GAUSS_01 = '{"kind": "gaussian", "mean": 0.0, "std": 1.0}'
GAUSS_12 = '{"kind": "gaussian", "mean": 1.0, "std": 2.0}'
BALL_1 = '{"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}'
BALL_2 = '{"kind": "ball", "center": [0.0, 0.0], "radius": 2.0}'
PRODUCT_GAUSS_U01 = ('{"kind": "product", "factors": [' + GAUSS_01
                     + ', {"kind": "uniform", "lo": 0.0, "hi": 1.0}]}')
PRODUCT_GAUSS_U13 = ('{"kind": "product", "factors": [' + GAUSS_01
                     + ', {"kind": "uniform", "lo": 1.0, "hi": 3.0}]}')
# with PRODUCT_GAUSS_U01, the sudakov pair whose ray field does not build
PRODUCT_GAUSS_G12 = ('{"kind": "product", "factors": [' + GAUSS_01 + ', '
                     + GAUSS_12 + ']}')
UNIFORM_01 = '{"kind": "uniform", "lo": 0.0, "hi": 1.0}'
# a pair whose map has T'' != 0, so the two seed kinds give different fields
LINEAR_01 = '{"kind": "piecewise_linear", "x": [0.0, 1.0], "density": [0.5, 1.5]}'


def run_cli(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


class TestMapCommand:
    def test_gaussian_pair(self, tmp_path):
        out = str(tmp_path)
        code = run_cli(["map", "--mu0", GAUSS_01, "--mu1", GAUSS_12,
                        "--n", "64", "--out", out])
        assert code == 0
        header, rows = read_csv(os.path.join(out, "map.csv"))
        assert header == ["x", "T", "Tp"]
        assert len(rows) == 64
        for row in rows[20:44]:
            x, T, Tp = (float(v) for v in row)
            assert abs(T - (2.0 * x + 1.0)) <= 1e-9
            assert abs(Tp - 2.0) <= 1e-7
        rep = read_report(out)
        assert rep["ok"] is True and rep["schema_version"] == 1

    def test_json_format(self, tmp_path):
        out = str(tmp_path)
        code = run_cli(["map", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE,
                        "--n", "16", "--format", "json", "--out", out])
        assert code == 0
        with open(os.path.join(out, "map.json")) as fh:
            records = json.load(fh)
        assert len(records) == 16
        assert set(records[0]) == {"x", "T", "Tp"}
        mid = records[8]
        assert abs(mid["T"] - (3.0 * mid["x"] - 3.0)) <= 1e-9


class TestFieldCommand:
    def test_affine_pair(self, tmp_path):
        out = str(tmp_path)
        code = run_cli(["field", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE,
                        "--n", "64", "--out", out])
        assert code == 0
        header, rows = read_csv(os.path.join(out, "field.csv"))
        assert header == ["x", "v"]
        assert len(rows) == 64
        rep = read_report(out)
        assert rep["seed_kind"] == "affine"
        assert "field" in rep

    def test_hermite_seed_kind(self, tmp_path):
        out = str(tmp_path)
        code = run_cli(["field", "--mu0", GAUSS_01, "--mu1", GAUSS_12,
                        "--seed-kind", "cubic", "--n", "64", "--out", out])
        assert code == 0
        rep = read_report(out)
        assert rep["seed_kind"] == "cubic"
        kinds = {itv["seed_kind"] for itv in rep["field"]["intervals"]}
        assert kinds == {"cubic"}

    def test_eps_requests_approximate_variant(self, tmp_path):
        out = str(tmp_path)
        code = run_cli(["field", "--mu0", GAUSS_01,
                        "--mu1", '{"kind": "gaussian", "mean": 0.0, "std": 2.0}',
                        "--eps", "1e-3", "--n", "64", "--out", out])
        assert code == 0
        rep = read_report(out)
        assert rep["approximate"]["eps"] == 1e-3
        assert rep["approximate"]["w1_target_gap"] <= 1e-3
        assert rep["approximate"]["candidates_tried"] >= 1


class TestFlowCommand:
    def test_trajectory_reaches_map_value(self, tmp_path):
        out = str(tmp_path)
        code = run_cli(["flow", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE,
                        "--x0", "1.25", "--n", "64", "--out", out])
        assert code == 0
        header, rows = read_csv(os.path.join(out, "flow.csv"))
        assert header == ["t", "phi"]
        assert len(rows) == 65
        assert float(rows[0][1]) == pytest.approx(1.25, abs=1e-9)
        assert float(rows[-1][1]) == pytest.approx(0.75, abs=1e-6)
        ts = [float(r[0]) for r in rows]
        assert ts[0] == 0.0 and ts[-1] == 1.0

    def test_report_names_the_seed(self, tmp_path):
        for kind in ("affine", "cubic"):
            out = str(tmp_path / kind)
            code = run_cli(["flow", "--mu0", UNIFORM_01, "--mu1", LINEAR_01,
                            "--n", "64", "--seed-kind", kind, "--out", out])
            assert code == 0
            assert read_report(out)["seed_kind"] == kind


class TestVerifyCommand:
    def test_identity_pair_passes(self, tmp_path):
        out = str(tmp_path)
        code = run_cli(["verify", "--mu0", UNIFORM_12, "--mu1", UNIFORM_12,
                        "--n", "1024", "--out", out])
        assert code == 0
        rep = read_report(out)
        assert rep["ok"] is True
        assert rep["verification"]["passed"] is True
        assert rep["verification"]["monotonicity_violations"] == 0

    def test_unreachable_tolerance_exits_one_with_report(self, tmp_path):
        out = str(tmp_path)
        code = run_cli(["verify", "--mu0", GAUSS_01, "--mu1", GAUSS_12,
                        "--n", "1024", "--tol-julia", "1e-16", "--out", out])
        assert code == 1
        rep = read_report(out)
        assert rep["ok"] is False
        assert rep["verification"]["passed"] is False
        assert rep["verification"]["tolerances"]["julia"] == 1e-16


class TestExampleCommand:
    def test_affine_end_to_end(self, tmp_path):
        out = str(tmp_path)
        code = run_cli(["example", "affine", "--n", "256", "--out", out])
        assert code == 0
        for name in ("map", "field", "density0", "density1", "flow"):
            assert os.path.exists(os.path.join(out, f"{name}.csv")), name
        rep = read_report(out)
        assert rep["example"] == "affine"
        assert rep["verification"]["passed"] is True
        header, rows = read_csv(os.path.join(out, "density0.csv"))
        assert header == ["x", "pdf"]
        assert float(rows[len(rows) // 2][1]) == pytest.approx(1.0, abs=1e-9)

    def test_report_carries_the_field(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["example", "affine", "--n", "256", "--out", out]) == 0
        field = read_report(out)["field"]
        assert field["fixed_intervals"] == [[1.5, 1.5]]
        assert [f["direction"] for f in field["intervals"]] == [-1, 1]
        for f in field["intervals"]:
            assert f["depth_forward"] >= 1 and f["depth_backward"] >= 1
            assert f["zone_trail"]["fp"] == 1.5
            assert f["zone_trail"]["rate"] > 0.0

    def test_affine_custom_slope(self, tmp_path):
        out = str(tmp_path)
        code = run_cli(["example", "affine", "--alpha", "2.0", "--beta", "0.5",
                        "--n", "256", "--out", out])
        assert code == 0
        rep = read_report(out)
        assert rep["parameters"] == {"alpha": 2.0, "beta": 0.5}
        header, rows = read_csv(os.path.join(out, "map.csv"))
        x, T, _ = (float(v) for v in rows[100])
        assert abs(T - (2.0 * x + 0.5)) <= 1e-9

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out_a, out_b):
            assert run_cli(["example", "affine", "--n", "256",
                            "--out", out]) == 0
        for name in ("map.csv", "field.csv", "flow.csv", "report.json"):
            with open(os.path.join(out_a, name), "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(out_b, name), "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b, name

    def test_slope_for_another_example_exits_two(self, tmp_path, capsys):
        code = run_cli(["example", "gaussian", "--alpha", "5", "--beta", "2",
                        "--n", "64", "--out", str(tmp_path)])
        assert code == 2
        assert "--alpha" in capsys.readouterr().err
        assert not os.listdir(tmp_path)


class TestPathologyCommand:
    def test_log_squared_tables(self, tmp_path):
        out = str(tmp_path)
        code = run_cli(["pathology", "--variant", "log_squared", "--out", out])
        assert code == 0
        header, rows = read_csv(os.path.join(out, "growth_log_squared.csv"))
        assert header == ["i", "alpha", "beta", "Tp", "P", "lower_bound"]
        assert int(rows[0][0]) == 0 and float(rows[0][4]) == 1.0
        header, rows = read_csv(os.path.join(out, "divergence_log_squared.csv"))
        assert header == ["m", "delta", "l1_partial", "increment", "l1_field",
                          "lower_bound", "anchor_speed", "clock_defect"]
        assert [int(r[0]) for r in rows] == [10, 100, 1000, 10000]
        vals = [float(r[2]) for r in rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        rep = read_report(out)
        assert rep["ok"] is True
        v = rep["variants"]["log_squared"]
        assert v["crossing_index"] is None
        assert v["l1_partial_increasing"] is True


class TestSudakovCommand:
    def test_radial_disks(self, tmp_path):
        out = str(tmp_path)
        code = run_cli(["sudakov", "--mu0", BALL_1, "--mu1", BALL_2,
                        "--n", "1024", "--seed", "7", "--out", out])
        assert code == 0
        assert os.listdir(out) == ["report.json"]
        rep = read_report(out)
        assert rep["schema_version"] == 2
        ver = rep["verification"]
        assert ver["n_rays"] == 64 and ver["per_ray_w1_max"] <= 1e-4
        assert "per_ray_w1" not in ver and "per_ray_alphas" not in ver
        assert ver["rng_seed"] == 7
        assert rep["decomposition"]["kind"] == "radial"
        assert rep["ok"] is True

    def test_parallel_products(self, tmp_path):
        out = str(tmp_path)
        code = run_cli(["sudakov", "--mu0", PRODUCT_GAUSS_U01,
                        "--mu1", PRODUCT_GAUSS_U13, "--n", "1024",
                        "--out", out])
        assert code == 0
        assert os.listdir(out) == ["report.json"]
        rep = read_report(out)
        assert rep["verification"]["n_rays"] == 64
        assert rep["verification"]["per_ray_w1_max"] <= 1e-4
        dec = rep["decomposition"]
        assert dec["kind"] == "parallel" and dec["axis"] == 1
        assert dec["transverse"] == [json.loads(GAUSS_01)]
        assert rep["ok"] is True

    def test_uncentered_balls_exit_two(self, tmp_path, capsys):
        code = run_cli(["sudakov", "--mu0", BALL_1,
                        "--mu1", '{"kind": "ball", "center": [1.0, 0.0], '
                                 '"radius": 2.0}',
                        "--out", str(tmp_path)])
        assert code == 2
        assert "common center" in capsys.readouterr().err


class TestBadInput:
    # every exit-2 case checks that no output directory was made

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        code = run_cli(["map", "--mu0", '{"kind": "uniform", lo: 1}',
                        "--mu1", UNIFORM_12, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1 column" in err
        assert not (tmp_path / "out").exists()

    def test_spec_file_by_path(self, tmp_path):
        spec = tmp_path / "mu0.json"
        spec.write_text(GAUSS_01)
        out = str(tmp_path / "out")
        code = run_cli(["map", "--mu0", str(spec), "--mu1", GAUSS_12,
                        "--n", "64", "--out", out])
        assert code == 0
        assert read_report(out)["mu0"] == json.loads(GAUSS_01)

    def test_missing_spec_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        code = run_cli(["map", "--mu0", missing, "--mu1", UNIFORM_12,
                        "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert missing in err and "--mu0" in err
        assert not (tmp_path / "out").exists()

    def test_inline_array_exits_two(self, tmp_path, capsys):
        code = run_cli(["map", "--mu0", '[{"kind": "uniform"}]',
                        "--mu1", UNIFORM_12, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--mu0" in err and "must be a JSON object, got list" in err
        assert "cannot read measure file" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_kind_exits_two(self, tmp_path, capsys):
        code = run_cli(["map", "--mu0", '{"kind": "cauchy", "loc": 0}',
                        "--mu1", UNIFORM_12, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "cauchy" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pair_without_ray_field_exits_two(self, tmp_path, capsys):
        code = run_cli(["sudakov", "--mu0", PRODUCT_GAUSS_U01, "--mu1",
                        PRODUCT_GAUSS_G12, "--n", "64", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "ConstructionError" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_grid_size_exits_two(self, tmp_path, capsys):
        code = run_cli(["map", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE,
                        "--n", "100", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "power of two" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, spec, field", [
        ("map", '{"kind": "uniform", "lo": "a", "hi": 1}', "lo"),
        ("map", '{"kind": "gaussian", "mean": 0, "std": null}', "std"),
        ("map", '{"kind": "piecewise_linear", "x": "ab", "density": [1, 1]}', "x"),
        ("sudakov", '{"kind": "ball", "center": [0, 0], "radius": "r"}', "radius"),
        ("sudakov", '{"kind": "ball", "center": "ab", "radius": 1}', "center"),
        ("sudakov", '{"kind": "product", "factors": 5}', "factors"),
    ])
    def test_malformed_field_value_exits_two(self, tmp_path, capsys, command,
                                             spec, field):
        other = BALL_2 if command == "sudakov" else UNIFORM_12
        code = run_cli([command, "--mu0", spec, "--mu1", other, "--n", "64",
                        "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("otflow: input error: --mu0: ")
        assert f"field {field!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["sudakov", "--mu0", BALL_1, "--mu1", BALL_2, "--seed", "-1"],
         "--seed must be non-negative"),
        (["flow", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE, "--x0", "nan"],
         "--x0 must be finite"),
        (["flow", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE, "--t", "nan"],
         "--t must be finite"),
        (["flow", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE, "--t", "inf"],
         "--t must be finite"),
    ], ids=["seed", "x0", "t-nan", "t-inf"])
    def test_bad_number_exits_two(self, tmp_path, capsys, argv, message):
        assert run_cli(argv + ["--n", "64", "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["map", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE, "--tol-julia", "1e-8"],
        ["map", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE, "--seed-kind", "affine"],
        ["pathology", "--n", "64"],
        ["pathology", "--ck", "1"],
        ["sudakov", "--mu0", BALL_1, "--mu1", BALL_2, "--seed-kind", "affine"],
        ["field", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE, "--ck", "1"],
        ["example", "accumulating-c1", "--ck", "inf"],
        ["field", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE, "--tol-julia", "1e-8"],
        ["flow", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE, "--tol-time", "1e-6"],
        ["sudakov", "--mu0", BALL_1, "--mu1", BALL_2, "--tol-julia", "1e-8"],
        ["verify", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE, "--format", "json"],
        ["sudakov", "--mu0", BALL_1, "--mu1", BALL_2, "--format", "json"],
    ])
    def test_flag_the_command_never_reads_exits_two(self, tmp_path, capsys, argv):
        # each subcommand declares only the flags its handler reads
        with pytest.raises(SystemExit) as stop:
            run_cli(argv + ["--out", str(tmp_path / "out")])
        assert stop.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestOutputDirectory:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("OTFLOW_OUT", str(target))
        code = run_cli(["map", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE,
                        "--n", "16"])
        assert code == 0
        assert (target / "map.csv").exists()
        assert (target / "report.json").exists()

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OTFLOW_OUT", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        code = run_cli(["map", "--mu0", UNIFORM_12, "--mu1", AFFINE_IMAGE,
                        "--n", "16", "--out", str(chosen)])
        assert code == 0
        assert (chosen / "map.csv").exists()
        assert not (tmp_path / "ignored").exists()


def _optional_flags(command):
    """The optional flags the command declares, --out and --help aside."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions
            if a.option_strings and not a.required
            and a.dest not in ("help", "out")]


# a non-default value for every flag that has no choices; a flag missing
# here makes the audit fail until it gets one
_OTHER_VALUE = {"n": "32", "tol_julia": "1e-3", "tol_time": "1e-3",
                "eps": "1e-3", "x0": "0.25", "t": "0.5", "alpha": "2.0",
                "beta": "0.5", "seed": "7"}


def _outputs(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


class TestEveryFlagIsRead:
    """Each optional flag a command declares changes what it writes, or is
    refused: none is silently ignored."""

    @pytest.mark.parametrize("argv", [
        ["map", "--mu0", UNIFORM_01, "--mu1", LINEAR_01],
        ["field", "--mu0", UNIFORM_01, "--mu1", LINEAR_01],
        ["flow", "--mu0", UNIFORM_01, "--mu1", LINEAR_01],
        ["verify", "--mu0", UNIFORM_01, "--mu1", LINEAR_01],
        ["example", "affine"],
        ["example", "gaussian"],
        ["sudakov", "--mu0", BALL_1, "--mu1", BALL_2],
    ], ids=lambda argv: "-".join(argv[:2]) if argv[0] == "example" else argv[0])
    def test_each_flag_changes_the_output(self, tmp_path, argv):
        run_cli(argv + ["--n", "64", "--out", str(tmp_path / "default")])
        default = _outputs(tmp_path / "default")
        assert default
        for action in _optional_flags(argv[0]):
            flag = action.option_strings[0]
            value = (next(c for c in action.choices if c != action.default)
                     if action.choices else _OTHER_VALUE[action.dest])
            rest = [] if action.dest == "n" else ["--n", "64"]
            out = tmp_path / action.dest
            code = run_cli(argv + rest + [flag, value, "--out", str(out)])
            assert code == 2 or _outputs(out) != default, \
                f"{argv[0]} ignores {flag} {value}"
