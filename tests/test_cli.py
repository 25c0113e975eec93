"""Config parsing, command execution, exit codes, and CSV round-trips."""

import json
import math

import numpy as np
import pytest
from conftest import bench_module

from heisencurve import cli, flowtrace
from heisencurve.errors import ConfigError, NoZeroFound
from heisencurve.hgroup import Point
from heisencurve.hsurface import PolySurface
from heisencurve.intersect import graph_field

SURF_X11 = [[1, 0, 0, 1.0]]
SURF_X12 = [[0, 1, 0, 1.0]]
SURF_AFFINE = [[1, 0, 0, 1.0], [0, 0, 1, 1.0]]
PAIRS = bench_module("pairs")


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
        with pytest.raises(ConfigError, match="command"):  # unhashable
            cli.parse_config(json.dumps({"command": ["intersect"], "surfaces": []}))

    def test_bad_surface_row(self):
        with pytest.raises(ConfigError, match=r"surfaces\[0\]\[1\]"):
            cli.parse_config(json.dumps(
                {"command": "characteristics", "surfaces": [[[0, 0, 0, 1.0], [1, 2]]]}
            ))

    @pytest.mark.parametrize("row", [[1.7, 0, 0, 1.0], [-0.5, 0, 0, 1.0]])
    def test_non_integral_exponent_names_row(self, row):
        with pytest.raises(ConfigError, match=r"surfaces\[1\]: row 0: exponents must be"):
            cli.parse_config(json.dumps(
                {"command": "intersect", "surfaces": [SURF_X12, [row, [0, 0, 1, 1.0]]]}
            ))

    @pytest.mark.parametrize("value", [math.inf, math.nan, 10**400, True],
                             ids=["inf", "nan", "huge", "bool"])
    def test_non_finite_surface_entry(self, value):
        with pytest.raises(ConfigError, match=r"surfaces\[0\]\[0\]: .* finite numbers"):
            cli.parse_config(json.dumps(
                {"command": "characteristics", "surfaces": [[[1, 0, 0, value]]]}
            ))

    def test_base_point_validation(self):
        with pytest.raises(ConfigError, match="base_point"):
            cli.parse_config(intersect_config(base_point=[1.0, 2.0]))

    @pytest.mark.parametrize("key, over", [
        ("base_point", {"base_point": [math.nan, 0.0, 0.0]}),
        ("window", {"window": math.inf}),
        ("bracket", {"bracket": [-math.inf, 2.0]}),
        ("tau0", {"tau0": [math.nan]}),
        ("tau0", {"tau0": [5.0], "window": 0.5}),
        ("tau0", {"command": "characteristics", "window": 0.1}),
        ("depth", {"depth": math.inf}),
        ("seed", {"seed": 10**400}),
        ("depth", {"depth": 2.7}),
        ("depth", {"depth": True}),
        ("window", {"window": True}),
        ("grid", {"grid": 2.5}),
        ("seed", {"seed": 1.5}),
    ])
    def test_non_finite_or_out_of_window_exit_two(self, key, over, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(intersect_config(**over))
        command = over.get("command", "intersect")
        assert cli.main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}:" in err and "Traceback" not in err


    def test_integral_floats_accepted(self):
        cfg = cli.parse_config(intersect_config(depth=2.0, grid=3.0, seed=1.0))
        assert [(v, type(v)) for v in (cfg.depth, cfg.grid, cfg.seed)] == [
            (2, int), (3, int), (1, int)]

    @pytest.mark.parametrize("over", [{"step": 1e-300}, {"window": 1e300}])
    def test_characteristic_node_cap(self, over):
        doc = {"command": "characteristics", "surfaces": [SURF_AFFINE], **over}
        with pytest.raises(ConfigError, match=r"^step: .* exceed 100001"):
            cli.parse_config(json.dumps(doc))
        cli.parse_config(intersect_config(**over))  # intersect caps its own grid

    def test_grid_cap(self):
        for grid in (201, cli.MAX_GRID):
            assert cli.parse_config(json.dumps({"command": "verify", "grid": grid})).grid == grid
        with pytest.raises(ConfigError, match=rf"^grid: .*\[2, {cli.MAX_GRID}\]"):
            cli.parse_config(json.dumps({"command": "verify", "grid": cli.MAX_GRID + 1}))


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

    @pytest.fixture(scope="class")
    def cubic_characteristics(self, tmp_path_factory):
        """The characteristics CSV of the benchmark's cubic f2 (seed 2, pair 2)."""
        doc = json.loads(PAIRS.config_text(PAIRS.draw_pair(2, 2), 1))
        cfg = {"command": "characteristics", "surfaces": doc["surfaces"][1:],
               **{k: doc[k] for k in ("base_point", "window", "bracket")}}
        tmp = tmp_path_factory.mktemp("cubic")
        out = tmp / "char.csv"
        (tmp / "char.json").write_text(json.dumps(cfg))
        assert cli.main(["characteristics", "--config", str(tmp / "char.json"),
                         "--out", str(out)]) == 0
        return cli.parse_config(json.dumps(cfg)), read_csv(out)[1]

    def test_characteristics_nu_is_the_array_root(self, cubic_characteristics):
        cfg, rows = cubic_characteristics
        patch = graph_field(cfg.surfaces[0], cfg.base_point, cfg.window, cfg.bracket).patch
        _, eta, tau, nu = np.array(rows).T
        assert np.array_equal(nu, patch.solve_many(eta, tau))

    def test_characteristics_rows_do_not_depend_on_earlier_tau0(
            self, cubic_characteristics, tmp_path):
        # at the default tau0 (-0.2, -0.1, 0.1, 0.2), the third run alone
        cfg, rows = cubic_characteristics
        cfg.tau0, cfg.out = (0.1,), str(tmp_path / "alone.csv")
        assert cli.run(cfg) == 0
        assert read_csv(tmp_path / "alone.csv")[1] == [r for r in rows if r[0] == 0.1]

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

    @pytest.mark.parametrize("command", ["intersect"])
    def test_base_point_off_surfaces_exit_one(self, tmp_path, capsys, command):
        cfg = tmp_path / "off.json"
        cfg.write_text(json.dumps({"command": command, "surfaces": [SURF_X11, SURF_X12],
                                   "base_point": [0.3, 0.0, 0.0]}))
        code = cli.main([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "NotCommonZero" in err

    def test_base_point_overflow_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps({"command": "intersect",
                                   "surfaces": [SURF_X12, [[1, 0, 0, 1.0], [0, 0, 3, 1.0]]],
                                   "base_point": [0, 0, 1e300]}))
        code = cli.main(["intersect", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "NotCommonZero" in err and "f2 overflows" in err
        assert "Traceback" not in err

    def test_characteristics_base_point_overflow_exit_one(self, tmp_path, capsys):
        # t**3 overflows at t = 1e300; it used to surface as a NaN graph margin
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps({"command": "characteristics",
                                   "surfaces": [[[1, 0, 0, 1.0], [0, 0, 3, 1.0]]],
                                   "base_point": [0, 0, 1e300]}))
        code = cli.main(["characteristics", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "NotCommonZero" in err and "f2 overflows" in err
        assert "MarginViolated" not in err and "Traceback" not in err

    def test_vanishing_gradient_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "flat.json"
        cfg.write_text(json.dumps({"command": "characteristics",
                                   "surfaces": [[[0, 0, 1, 1.0]]]}))  # f = t
        code = cli.main(["characteristics", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "MarginViolated" in err

    @pytest.mark.parametrize("command, error", [
        ("intersect", "MonotonicityViolated"),
        ("characteristics", "MarginViolated"),
    ])
    def test_steep_exact_gradient_exit_one(self, tmp_path, capsys, command, error):
        # x11 + 1e20 x11^2 has the exact gradient (1 + 2e20 x11, 0); the
        # hypotheses fail on the window, and that is what the run reports
        cfg = tmp_path / "steep.json"
        cfg.write_text(json.dumps({"command": command,
                                   "surfaces": [[[1, 0, 0, 1.0], [2, 0, 0, 1e20]], SURF_X12]}))
        code = cli.main([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"mathematical failure ({error})" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["intersect", "characteristics"])
    def test_gradient_overflow_exit_two(self, tmp_path, capsys, command):
        # 1e308 x11^3 is finite, but X1 of it has the coefficient 3e308
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps({"command": command,
                                   "surfaces": [[[1, 0, 0, 1.0], [3, 0, 0, 1e308]], SURF_X12]}))
        code = cli.main([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error: surfaces[0]: the coefficient of (2, 0, 0) in X1 f overflows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, surfaces, extra", [
        ("characteristics", [SURF_X12, [[1, 0, 0, 1.0], [3, 0, 0, 1e308]]], {}),
        ("verify", [SURF_X12, [[1, 0, 0, 1.0], [3, 0, 0, 1e308]]], {"suite": "group"}),
    ])
    def test_unused_gradient_overflow_exit_two(self, tmp_path, capsys, command, surfaces,
                                               extra):
        # the config check derives the gradient of every surface, including
        # one the command does not use
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps({"command": command, "surfaces": surfaces, **extra}))
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error: surfaces[1]: the coefficient of (2, 0, 0) in X1 f overflows" in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("command", ["intersect", "verify"])
    def test_unwritable_out_exit_two(self, tmp_path, capsys, command):
        cfg = tmp_path / "c.json"
        cfg.write_text(intersect_config(depth=1))
        argv = (["intersect", "--config", str(cfg)] if command == "intersect"
                else ["verify", "--suite", "group"])
        assert cli.main(argv + ["--out", str(tmp_path / "missing" / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "config error: out:" in err and "Traceback" not in err

    @staticmethod
    def _argv(tmp_path, command):
        if command == "verify":
            return ["verify", "--suite", "group"]
        cfg = tmp_path / "c.json"
        cfg.write_text(intersect_config(command=command, depth=1))
        return [command, "--config", str(cfg)]

    @staticmethod
    def _stub_computations(monkeypatch, error):
        def raise_error(*args, **kwargs):
            raise error

        for name in ("intersect_surfaces", "graph_field"):
            monkeypatch.setattr(cli, name, raise_error)
        monkeypatch.setattr(cli.verify_suites, "run_suites", raise_error)

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_fails_before_computing(self, tmp_path, capsys, monkeypatch,
                                                   command, target):
        argv = self._argv(tmp_path, command)
        self._stub_computations(monkeypatch, AssertionError("the computation ran"))
        assert cli.main(argv + ["--out", str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert "config error: out:" in err and "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("existing", [None, "kept\n"])
    def test_failed_run_leaves_out_untouched(self, tmp_path, capsys, monkeypatch,
                                             command, existing):
        argv = self._argv(tmp_path, command)
        out = tmp_path / "out.csv"
        if existing is not None:
            out.write_text(existing)
        self._stub_computations(monkeypatch, NoZeroFound("no crossing"))
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert "NoZeroFound" in capsys.readouterr().err
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_text() == existing

    def test_missing_config_file(self, capsys):
        assert cli.main(["intersect", "--config", "/nonexistent.json"]) == 2

    def test_command_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(intersect_config())
        assert cli.main(["characteristics", "--config", str(cfg)]) == 2

    def test_trace_subcommand_removed(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(intersect_config())
        assert cli.main(["trace", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: heisencurve") and "invalid choice" in err

    def test_no_subcommand_exit_two(self, capsys):
        assert cli.main([]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: heisencurve") and "required" in err

    def test_help_exit_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: heisencurve")

    def test_trace_command_in_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(intersect_config(command="trace"))
        assert cli.main(["intersect", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: command:")
        assert "('intersect', 'characteristics', 'verify')" in err

    def test_config_error_exit_two(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "intersect",
                                   "surfaces": [SURF_X11], "depth": 4}))
        assert cli.main(["intersect", "--config", str(cfg)]) == 2


# f1 = x11 + x12 + 1e-11 and f2 = 0.001 x12 + 1e-11 vanish at the origin
# within the tolerance, but the graph of f2 passes over it at s = -1e-8, so
# the traced F = f1 o Phi2 misses zero there by about 1e-8
MISSED_START = {"command": "intersect",
                "surfaces": [[[1, 0, 0, 1.0], [0, 1, 0, 1.0], [0, 0, 0, 1e-11]],
                             [[0, 1, 0, 0.001], [0, 0, 0, 1e-11]]],
                "base_point": [0, 0, 0]}


def test_trace_start_off_zero_exit_one(tmp_path, capsys):
    cfg = tmp_path / "start.json"
    cfg.write_text(json.dumps(MISSED_START))
    code = cli.main(["intersect", "--config", str(cfg), "--out", str(tmp_path / "c.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "mathematical failure (NotCommonZero)" in err and "Traceback" not in err


CUBIC_EXPONENTS = [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)]


def draw_surface(rng) -> list:
    """Linear parts in [-2, 2], up to four cubic terms, in about a third of
    the surfaces a constant of size 1e-14 to 1e-10, in some a scale 10^+-8."""
    rows = [[*e, float(rng.uniform(-2.0, 2.0))] for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for k in rng.choice(len(CUBIC_EXPONENTS), size=rng.integers(0, 5), replace=False):
        rows.append([*CUBIC_EXPONENTS[k], float(rng.uniform(-2.0, 2.0))])
    if rng.random() < 1 / 3:
        rows.append([0, 0, 0, float(rng.choice([-1, 1]) * 10.0 ** rng.uniform(-14, -10))])
    if rng.random() < 0.2:
        scale = 10.0 ** rng.choice([-8, 8])
        rows = [[*row[:3], scale * row[3]] for row in rows]
    return rows


def draw_config(rng) -> dict:
    """An intersect or characteristics config at the origin, with a window,
    bracket, depth and step each drawn from a few extremes."""
    command = str(rng.choice(["intersect", "characteristics"]))
    window = float(rng.choice([0.5, 0.1, 1e-3, 5.0]))
    doc = {"command": command,
           "surfaces": [draw_surface(rng) for _ in range(2 if command == "intersect" else 1)],
           "base_point": [0, 0, 0], "window": window,
           "bracket": [[-2.0, 2.0], [-1e-6, 1e-6], [-100.0, 100.0]][rng.integers(3)],
           "depth": int(rng.integers(0, 4)), "step": float(rng.choice([1e-3, 1e-2, 0.3]))}
    if command == "characteristics":
        doc["tau0"] = [-window / 2.0, window / 2.0]
    return doc


def test_seeded_configs_end_in_an_exit_code(tmp_path):
    rng = np.random.default_rng(2026)
    cfg, out = tmp_path / "c.json", tmp_path / "out.csv"
    for doc in [MISSED_START, *(draw_config(rng) for _ in range(100))]:
        cfg.write_text(json.dumps(doc))
        try:
            code = cli.main([doc["command"], "--config", str(cfg), "--out", str(out)])
        except Exception as e:
            raise AssertionError(f"{type(e).__name__} on {json.dumps(doc)}") from e
        assert code in (0, 1, 2), json.dumps(doc)
