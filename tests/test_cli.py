"""Config parsing, command execution, exit codes, and CSV round-trips."""

import json

import pytest

from heisencurve import cli, flowtrace
from heisencurve.errors import ConfigError
from heisencurve.hgroup import Point
from heisencurve.hsurface import PolySurface

SURF_X11 = [[1, 0, 0, 1.0]]
SURF_X12 = [[0, 1, 0, 1.0]]
SURF_AFFINE = [[1, 0, 0, 1.0], [0, 0, 1, 1.0]]


def intersect_config(**over):
    doc = {
        "command": "intersect",
        "surfaces": [SURF_X12, SURF_AFFINE],
        "depth": 4,
        "step": 2e-3,
    }
    doc.update(over)
    return json.dumps(doc)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = cli.parse_config(json.dumps(
            {"command": "intersect", "surfaces": [SURF_X11, SURF_X12]}
        ))
        assert cfg.window == 0.5
        assert cfg.step == 1e-3
        assert cfg.bracket == (-2.0, 2.0)
        assert cfg.base_point == Point(0.0, 0.0, 0.0)

    def test_missing_second_surface(self):
        with pytest.raises(ConfigError, match=r"surfaces\[1\]"):
            cli.parse_config(json.dumps(
                {"command": "intersect", "surfaces": [SURF_X11]}
            ))

    def test_quadruple_encoding(self):
        cfg = cli.parse_config(json.dumps(
            {"command": "characteristics", "surfaces": [SURF_AFFINE]}
        ))
        p = cfg.surfaces[0]
        assert p.coefficients == {(1, 0, 0): 1.0, (0, 0, 1): 1.0}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="granularity"):
            cli.parse_config(json.dumps(
                {"command": "verify", "granularity": 1.0}
            ))

    def test_bad_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            cli.parse_config("{not json")

    def test_bad_command(self):
        with pytest.raises(ConfigError, match="command"):
            cli.parse_config(json.dumps({"command": "solve", "surfaces": []}))

    def test_bad_surface_row(self):
        with pytest.raises(ConfigError, match=r"surfaces\[0\]\[1\]"):
            cli.parse_config(json.dumps(
                {"command": "characteristics", "surfaces": [[[0, 0, 0, 1.0], [1, 2]]]}
            ))

    def test_base_point_validation(self):
        with pytest.raises(ConfigError, match="base_point"):
            cli.parse_config(intersect_config(base_point=[1.0, 2.0]))


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg_path = tmp / "prob.json"
    cfg_path.write_text(intersect_config())
    out1 = tmp / "curve1.csv"
    out2 = tmp / "curve2.csv"
    code1 = cli.main(["intersect", "--config", str(cfg_path), "--out", str(out1)])
    code2 = cli.main(["intersect", "--config", str(cfg_path), "--out", str(out2)])
    return code1, code2, out1, out2


@pytest.fixture(scope="module")
def trace_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    cfg_path = tmp / "trace.json"
    cfg_path.write_text(intersect_config(command="trace"))
    out = tmp / "trace.csv"
    code = cli.main(["trace", "--config", str(cfg_path), "--out", str(out)])
    return code, out


class TestRunIntersect:
    def test_exit_zero(self, outputs):
        code1, code2, *_ = outputs
        assert code1 == 0 and code2 == 0

    def test_header_and_shape(self, outputs):
        *_, out1, _ = outputs
        header, rows = read_csv(out1)
        assert header == ["xi", "eta", "tau", "x11", "x12", "t"]
        assert len(rows) > 10
        assert all(len(r) == 6 for r in rows)

    def test_deterministic_bytes(self, outputs):
        *_, out1, out2 = outputs
        assert out1.read_bytes() == out2.read_bytes()

    def test_round_trip_residuals(self, outputs):
        *_, out1, _ = outputs
        _, rows = read_csv(out1)
        f1 = PolySurface.from_quadruples(SURF_X12)
        f2 = PolySurface.from_quadruples(SURF_AFFINE)
        for xi, eta, tau, x11, x12, t in rows:
            q = Point(x11, x12, t)
            assert abs(f1(q)) <= 1e-8
            assert abs(f2(q)) <= 1e-8
        xis = [r[0] for r in rows]
        assert xis == sorted(xis)
        assert 0.0 <= xis[0] and xis[-1] <= 1.0

    def test_dependent_normals_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(
            {"command": "intersect", "surfaces": [SURF_X12, SURF_X12]}
        ))
        code = cli.main(["intersect", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "DependentNormals" in err
        assert "independent horizontal normals" in err


class TestOtherCommands:
    def test_characteristics_csv(self, tmp_path):
        cfg = tmp_path / "char.json"
        cfg.write_text(json.dumps({
            "command": "characteristics",
            "surfaces": [SURF_AFFINE],
            "tau0": [0.2],
            "step": 5e-3,
        }))
        out = tmp_path / "char.csv"
        assert cli.main(["characteristics", "--config", str(cfg),
                         "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["tau0", "eta", "tau", "nu"]
        # spot-check the closed form tau0 (1 - eta)^2 on the right half
        for tau0, eta, tau, nu in rows:
            if eta >= 0.0:
                assert abs(tau - 0.2 * (1.0 - eta) ** 2) <= 1e-4

    def test_characteristics_defaults_exit_zero(self, tmp_path):
        # the default tau0 keep every characteristic of x11 + t inside the window
        cfg = tmp_path / "char.json"
        cfg.write_text(json.dumps({"command": "characteristics", "surfaces": [SURF_AFFINE]}))
        out = tmp_path / "char.csv"
        assert cli.main(["characteristics", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert sorted({r[0] for r in rows}) == list(cli.RunConfig.tau0)

    def test_window_exit_note(self, tmp_path, capsys):
        # tau0 (1 - eta)^2 reaches 0.675 at eta = -0.5, past the window edge 0.5
        cfg = tmp_path / "char.json"
        cfg.write_text(json.dumps({"command": "characteristics", "surfaces": [SURF_AFFINE],
                                   "tau0": [0.3]}))
        code = cli.main(["characteristics", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "WindowExit" in err and "tau0 toward 0" in err

    def test_trace_csv(self, trace_output):
        code, out = trace_output
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["xi", "eta", "tau"]
        assert all(abs(r[1]) <= 1e-9 for r in rows)  # zeros of F sit at eta = 0

    def test_trace_is_planar_preimage_of_intersect(self, trace_output, outputs):
        # the same config as intersect: trace writes intersect's (eta, tau) columns
        code, out = trace_output
        *_, curve_csv, _ = outputs
        assert code == 0
        _, trace_rows = read_csv(out)
        _, curve_rows = read_csv(curve_csv)
        assert [r[1:3] for r in trace_rows] == [r[1:3] for r in curve_rows]

    @pytest.mark.parametrize("command", ["intersect", "trace"])
    def test_base_point_off_surfaces_exit_one(self, tmp_path, capsys, command):
        cfg = tmp_path / "off.json"
        cfg.write_text(json.dumps({"command": command, "surfaces": [SURF_X11, SURF_X12],
                                   "base_point": [0.3, 0.0, 0.0]}))
        code = cli.main([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "NotCommonZero" in err

    def test_vanishing_gradient_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "flat.json"
        cfg.write_text(json.dumps({"command": "characteristics",
                                   "surfaces": [[[0, 0, 1, 1.0]]]}))  # f = t
        code = cli.main(["characteristics", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "MarginViolated" in err

    def test_no_zero_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(flowtrace, "monotone_root",
                            lambda F, path, root_tol: (None, None))
        cfg = tmp_path / "nozero.json"
        cfg.write_text(intersect_config(depth=2))
        code = cli.main(["intersect", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "NoZeroFound" in err and "crosses F = 0" in err
        assert "Traceback" not in err

    def test_verify_single_suite(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--suite", "group", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert set(report["suites"]) == {"group"}
        assert all(c["passed"] for c in report["suites"]["group"]["checks"])

    def test_verify_unknown_suite(self, capsys):
        code = cli.main(["verify", "--suite", "nonsense"])
        assert code == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert cli.main(["intersect", "--config", "/nonexistent.json"]) == 2

    def test_command_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(intersect_config())
        assert cli.main(["trace", "--config", str(cfg)]) == 2

    def test_config_error_exit_two(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "intersect",
                                   "surfaces": [SURF_X11], "depth": 4}))
        assert cli.main(["intersect", "--config", str(cfg)]) == 2
