import os
import select
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from jinxin import cli, diagnostics, harness
from jinxin.cli import build_parser, execute, parse_args

from conftest import assert_no_child_left

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParsing:
    def test_run_with_standard_flags(self):
        cmd = parse_args(
            "run --eps 1 --lambda 0.72 --a 0.5 --nx 200 --cfl 0.95 --tfinal 0.1".split()
        )
        assert cmd.kind == "run"
        cfg = cmd.config
        assert (cfg.eps, cfg.lam, cfg.a) == (1.0, 0.72, 0.5)
        assert cfg.n_cells == 200 and cfg.cfl == 0.95 and cfg.t_final == 0.1

    def test_canonical_flag_spellings(self):
        cmd = parse_args(
            ["run", "--n-cells", "64", "--t-final", "0.05", "--x-min", "-1",
             "--x-max", "2", "--u-left", "1.5", "--u-right", "0.5",
             "--well-prepared", "true", "--scheme", "semi-discrete",
             "--record-every", "3", "--flux", "linear"]
        )
        cfg = cmd.config
        assert cfg.n_cells == 64 and cfg.t_final == 0.05
        assert cfg.x_min == -1.0 and cfg.x_max == 2.0
        assert cfg.u_left == 1.5 and cfg.u_right == 0.5
        assert cfg.well_prepared is True
        assert cfg.scheme == "semi-discrete" and cfg.record_every == 3

    def test_study_eps_list(self):
        cmd = parse_args("study --eps-list 1e-1,5e-2,2.5e-2".split())
        assert cmd.kind == "study"
        assert cmd.eps_list == (1e-1, 5e-2, 2.5e-2)
        assert cmd.config.well_prepared is True  # rate protocol default

    def test_verify_eps_defaults_to_the_relaxation_regime(self, tmp_path):
        assert parse_args(["verify"]).config.eps == 0.1
        assert parse_args(["verify", "--eps", "0.3"]).config.eps == 0.3
        path = tmp_path / "verify.cfg"
        path.write_text("eps = 0.2\n")
        assert parse_args(["verify", "--config", str(path)]).config.eps == 0.2
        assert parse_args(["run"]).config.eps == 1.0  # the RunConfig default

    def test_study_default_sweep(self):
        cmd = parse_args(["study"])
        assert cmd.eps_list == tuple(harness.DEFAULT_EPS_SWEEP)

    def test_subcharacteristic_violation_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            parse_args("run --lambda 0.3 --eps 1 --a 0.5".split())
        assert err.value.code != 0
        assert "subcharacteristic" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme, reason", [
        ("jpt", "the grid rule dx <= eps needs eps > 0, got 0"),
        ("semi-discrete", "semi-discrete integration requires eps > 0"),
    ])
    def test_study_refuses_eps_zero_before_marching(self, scheme, reason, monkeypatch, capsys):
        monkeypatch.setattr(harness, "run_group", None)  # any march would fail loudly
        argv = ["study", "--eps-list", "0.1,0.05,0", "--nx", "20", "--tfinal", "0.001",
                "--scheme", scheme]
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"jinxin: error: eps=0: {reason}"

    @pytest.mark.parametrize("eps_list", ["0.1", "0.1,0.1"])
    def test_study_refuses_fewer_than_two_distinct_eps(self, eps_list, monkeypatch, capsys):
        monkeypatch.setattr(harness, "run_group", None)  # any march would fail loudly
        with pytest.raises(SystemExit) as err:
            cli.main(["study", "--eps-list", eps_list])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "jinxin: error: rate fit needs at least two points, got 1 distinct eps"
        )

    def test_semi_discrete_run_refuses_eps_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--scheme", "semi-discrete", "--eps", "0"])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "jinxin: error: semi-discrete integration requires eps > 0"
        )

    @pytest.mark.parametrize("check", ["residuals", "all"])
    def test_verify_refuses_eps_zero_before_any_check(self, check, monkeypatch, capsys):
        # the residual check marches the semi-discrete scheme, which needs eps > 0
        for name in ("verify_identity", "verify_residuals", "run_group"):
            monkeypatch.setattr(harness, name, None)  # any check would fail loudly
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--check", check, "--eps", "0"])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "jinxin: error: residual check: semi-discrete integration requires eps > 0"
        )

    @pytest.mark.parametrize("argv, reason", [
        ("run --scheme semi-discrete --eps 1e-300 --nx 10 --tfinal 0.001",
         "the step rule gives dt = 0: no finite step count reaches t_final"),
        ("study --scheme semi-discrete --eps-list 1e-1,1e-300 --nx 10 --tfinal 0.001",
         "eps=1e-300: the step rule gives dt = 0: no finite step count reaches t_final"),
        ("verify --check residuals --eps 1e-300",
         "residual check: the step rule gives dt = 0: no finite step count reaches t_final"),
        ("run --scheme semi-discrete --eps 1e-160 --nx 10 --tfinal 0.001",
         "the step rule gives dt = 4.99994e-321: no finite step count reaches t_final"),
        ("run --cfl 1e-320 --nx 10",
         "the step rule gives dt = 1.92686e-322: no finite step count reaches t_final"),
        # the sweep point's own grid: 1e300 cells, whose dx^2 underflows
        ("study --eps-list 1e-1,1e-300 --nx 10 --tfinal 0.001",
         "eps=1e-300: the step rule gives dt = 0: no finite step count reaches t_final"),
        ("study --eps-list 1e-1,1e-310 --nx 10 --tfinal 0.001",
         "eps=1e-310: the grid rule dx <= eps needs more cells than a float counts at eps=1e-310"),
        # lam^2 underflows to a zero divisor, or lam^2 or dx^2 overflows
        ("run --lambda 1e-300",
         "the step rule leaves the float range at dx = 0.005, lambda = 1e-300, eps = 1"),
        ("run --lambda 1e170",
         "the step rule leaves the float range at dx = 0.005, lambda = 1e+170, eps = 1"),
        ("study --eps-list 0.5,0.25 --x-max 1e300",
         "eps=0.5: the step rule leaves the float range at dx = 5e+297, lambda = 0.72, eps = 0.5"),
        # each end is finite, the width is not
        ("run --x-min=-1e308 --x-max 1e308 --nx 10",
         "the domain width x_max - x_min must be finite, got inf"),
        ("run --scheme semi-discrete --x-min=-1e308 --x-max 1e308 --nx 10",
         "the domain width x_max - x_min must be finite, got inf"),
        ("verify --check residuals --x-min=-1e308 --x-max 1e308",
         "the domain width x_max - x_min must be finite, got inf"),
    ])
    def test_a_step_rule_without_a_finite_step_count_is_refused(self, argv, reason, monkeypatch, capsys):
        # dt underflows to 0, t_final/dt overflows, or the grid rule's cell
        # count does: refused at parse time
        monkeypatch.setattr(harness, "run_group", None)  # any march would fail loudly
        with pytest.raises(SystemExit) as err:
            cli.main(argv.split())
        assert err.value.code == 2
        assert [line for line in capsys.readouterr().err.splitlines() if "error" in line] == [
            f"jinxin: error: {reason}"
        ]

    @pytest.mark.parametrize("argv, reason", [
        ("study --eps-list 1e-1,1e-10",
         "eps=1e-10: 10000000000 cells x 5456842105263157248 steps exceed the cap of 1e+09 cell-steps per march"),
        ("run --n-cells 100000",
         "100000 cells x 545684211 steps exceed the cap of 1e+09 cell-steps per march"),
    ])
    def test_an_oversized_march_is_refused(self, argv, reason, monkeypatch, capsys):
        monkeypatch.setattr(harness, "run_group", None)  # any march would fail loudly
        with pytest.raises(SystemExit) as err:
            cli.main(argv.split())
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"jinxin: error: {reason}"

    def test_theorem_check_ignores_the_config_eps(self, capsys):
        # the theorem check marches its own eps sweep
        assert cli.main(["verify", "--check", "theorem", "--eps", "0", "--nx", "20"]) == 0
        assert capsys.readouterr().out.startswith("[PASS] theorem")

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            parse_args("run --viscosity 3".split())
        assert err.value.code != 0
        assert "--viscosity" in capsys.readouterr().err

    def test_config_file_merge_and_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eps = 0.25\nn_cells = 64\n")
        cmd = parse_args(["run", "--config", str(path), "--n-cells", "32"])
        assert cmd.config.eps == 0.25
        assert cmd.config.n_cells == 32

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--eps", "nan"),
            ("--lambda", "nan"),
            ("--a", "inf"),
            ("--cfl", "nan"),
            ("--t-final", "inf"),
            ("--x-min", "-inf"),
            ("--x-max", "inf"),
            ("--u-left", "nan"),
            ("--u-right", "-inf"),
        ],
    )
    def test_non_finite_value_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as err:
            parse_args(["run", f"{flag}={value}"])  # "=" lets "-inf" through argparse
        assert err.value.code != 0
        assert "must be finite" in capsys.readouterr().err

    def test_a_config_file_that_is_not_utf8_is_refused(self, tmp_path, capsys):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"eps = 0.5\n\xff\xfe\x00\n")
        with pytest.raises(SystemExit) as err:
            cli.main(["run", "--config", str(path)])
        assert err.value.code == 2
        assert [line for line in capsys.readouterr().err.splitlines() if "error" in line] == [
            f"jinxin: error: {path}: not a UTF-8 text file (invalid start byte at byte 10)"
        ]

    def test_study_config_file_defaults_to_well_prepared(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("eps = 0.25\nn_cells = 64\n")
        assert parse_args(["study", "--config", str(path)]).config.well_prepared is True
        path.write_text("well_prepared = false\n")
        assert parse_args(["study", "--config", str(path)]).config.well_prepared is False
        cmd = parse_args(["study", "--config", str(path), "--well-prepared", "true"])
        assert cmd.config.well_prepared is True

    def test_help_lists_every_config_flag(self):
        parser = build_parser()
        sub = parser._subparsers._group_actions[0]
        # a study marches its sweep's eps unrecorded; verify marches the
        # semi-discrete scheme unrecorded and writes no file
        unread = {"run": set(), "study": {"--eps", "--record-every"},
                  "verify": {"--record-every", "--scheme", "--out-dir"}}
        for name in ("run", "study", "verify"):
            offered = set(sub.choices[name].format_help().replace(",", " ").split())
            flags = {"--" + key.replace("_", "-") for key in harness.CONFIG_KEYS} | {"--out-dir"}
            assert flags - unread[name] <= offered, name
            assert not unread[name] & offered, name
            assert "--config" in offered
        assert "--eps-list" in sub.choices["study"].format_help()
        assert "--check" in sub.choices["verify"].format_help()


class TestExecution:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cmd = parse_args(
            ["run", "--eps", "0.5", "--nx", "32", "--tfinal", "0.01",
             "--out-dir", str(tmp_path / "out")]
        )
        assert execute(cmd) == 0
        out = capsys.readouterr().out
        assert "squared space-time L2 error" in out
        assert (tmp_path / "out" / "profile_final.csv").exists()
        assert (tmp_path / "out" / "series.csv").exists()

    def test_study_writes_rate_file(self, tmp_path, capsys):
        cmd = parse_args(
            ["study", "--eps-list", "1e-1,5e-2", "--nx", "64",
             "--out-dir", str(tmp_path)]
        )
        assert execute(cmd) == 0
        lines = (tmp_path / "study.csv").read_text().splitlines()
        assert lines[0] == "eps,n_cells,l2err_sq"
        assert lines[-2].startswith("# slope=")
        assert lines[-1].startswith("# intercept=")
        assert "slope=" in capsys.readouterr().out

    def test_study_without_a_rate_still_reports_its_failures(self, tmp_path, capsys):
        argv = ["study", "--u-left", "1e160", "--u-right", "0", "--eps-list", "1e-1,5e-2",
                "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines() if "FAILED:" in line] == [
            "eps=0.1", "eps=0.05"]
        lines = (tmp_path / "study.csv").read_text().splitlines()
        assert lines == ["eps,n_cells,l2err_sq", "# slope=nan", "# intercept=nan"]

    def test_verify_identity_passes(self, capsys):
        cmd = parse_args(["verify", "--check", "identity"])
        assert execute(cmd) == 0
        assert "[PASS] identity" in capsys.readouterr().out

    def test_verify_detects_corrupted_residuals(self, capsys, monkeypatch):
        # mutation sanity check: break one residual and the identity check
        # must fail with a nonzero exit status
        true_residuals = diagnostics.residuals

        def corrupted(p, grid, hyp, lim):
            r1, r2, r3, r4 = true_residuals(p, grid, hyp, lim)
            return r1, r2, 1.01 * r3, r4

        monkeypatch.setattr(diagnostics, "residuals", corrupted)
        cmd = parse_args(["verify", "--check", "identity"])
        assert execute(cmd) != 0
        assert "[FAIL] identity" in capsys.readouterr().out

    def test_verify_residuals_subcommand(self, capsys):
        cmd = parse_args(["verify", "--check", "residuals", "--nx", "100",
                          "--tfinal", "0.02"])
        assert execute(cmd) == 0
        out = capsys.readouterr().out
        assert "[PASS] residuals" in out
        assert "summation-by-parts" in out

    def test_blow_up_is_an_error_not_a_traceback(self, tmp_path, capsys):
        # a finite, valid config whose HLL flux overflows on the first step
        argv = ["run", "--u-left", "1e308", "--nx", "32", "--tfinal", "0.01",
                "--out-dir", str(tmp_path)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: non-finite")

    @pytest.mark.parametrize("u_left, u_right", [("1e200", "1"), ("1e160", "0")])
    def test_overflowing_error_norms_are_an_error(self, u_left, u_right, tmp_path, capsys):
        # the cells stay finite, the squares of their differences do not
        argv = ["run", "--u-left", u_left, "--u-right", u_right, "--out-dir", str(tmp_path)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "nan" not in captured.out and "inf" not in captured.out
        assert captured.err.startswith("error: non-finite error norms")

    def test_blow_up_prints_only_the_error_line(self, tmp_path, capsys):
        argv = ["run", "--u-left", "1e308", "--nx", "32", "--tfinal", "0.01",
                "--out-dir", str(tmp_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 1
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("scheme", ["semi-discrete", "jpt"])
    @pytest.mark.parametrize("u_left, message", [
        ("1e308", "error: non-finite cell values: unstable step size or blow-up"),
        ("1e200", "error: non-finite error norms: the squared errors overflow"),
    ])
    def test_semi_discrete_blow_up_is_one_error_line(self, u_left, message, scheme, tmp_path, capsys):
        # 1e308: the closure vbar of the initial jump overflows; 1e200: the
        # cells stay finite and the squares of their differences overflow
        argv = ["run", "--scheme", scheme, "--u-left", u_left, "--nx", "40",
                "--tfinal", "0.01", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize("scheme", ["semi-discrete", "jpt"])
    def test_blow_up_inside_the_march_is_caught_at_the_end(self, scheme, tmp_path, capsys):
        # the initial cells are finite (dx = 25 keeps the closure gradient
        # small), but 2 u overflows inside the one step; no step checks, the
        # end of the march does
        argv = ["run", "--scheme", scheme, "--u-left", "9e307", "--u-right", "0",
                "--x-max", "1000", "--nx", "40", "--tfinal", "0.01", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite cell values: unstable step size or blow-up"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["profile_initial.csv"]

    def test_overflowing_residual_run_is_an_error(self, capsys):
        # the residual integrals overflow with the error sums; no verdict is printed
        argv = ["verify", "--check", "residuals", "--u-left", "1e200", "--nx", "40", "--tfinal", "0.01"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.splitlines() == ["error: non-finite error norms: the squared errors overflow"]

    def test_overflowing_residual_integrals_are_an_error(self, capsys):
        # the cells and the error norms stay finite; ||D_xx vbar||^2 overflows
        argv = ["verify", "--check", "residuals", "--u-left", "1e150", "--nx", "40", "--tfinal", "0.01"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.splitlines() == [
            "error: non-finite residual integrals: the residual terms overflow"
        ]

    @pytest.mark.parametrize("u_left, message", [
        ("1e200", "error: non-finite error norms: the squared errors overflow"),
        ("1e308", "error: non-finite cell values: unstable step size or blow-up"),
    ])
    def test_theorem_blow_up_is_one_error_line(self, u_left, message, capsys):
        # the three eps march as one group; the first failed one is reported
        assert cli.main(["verify", "--check", "theorem", "--u-left", u_left]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    @pytest.mark.parametrize("check", ["residuals", "all"])
    def test_residual_check_refuses_a_nonlinear_flux(self, check, monkeypatch, capsys):
        # the residual integrals exist for the linear flux only: refused at parse time
        for name in ("verify_identity", "run_group"):
            monkeypatch.setattr(harness, name, None)  # any check would fail loudly
        argv = ["verify", "--check", check, "--flux", "burgers", "--lambda", "3",
                "--nx", "20", "--tfinal", "0.001"]
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "jinxin: error: residual check: the residual integrals need the linear flux, not 'burgers'"
        )

    def test_theorem_check_refuses_a_nonlinear_flux(self, monkeypatch, capsys):
        # the stability bound and the quadratic phi are those of the linear system
        monkeypatch.setattr(harness, "run_group", None)  # any march would fail loudly
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--check", "theorem", "--flux", "burgers", "--lambda", "3"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "jinxin: error: theorem check: the stability bound and phi need the linear flux, not 'burgers'"
        )

    @pytest.mark.parametrize("argv", [
        "verify --record-every 5",
        "verify --scheme jpt --check identity",
        "verify --out-dir x --check identity",
        "study --record-every 5",
        "study --eps 0.3",  # not an abbreviation of --eps-list
        "study --eps 5 --eps-list 0.1,0.05",
    ])
    def test_a_command_refuses_the_flags_it_never_reads(self, argv, monkeypatch, capsys):
        # only run takes a record stride
        for name in ("verify_identity", "run_group"):
            monkeypatch.setattr(harness, name, None)  # any check or march would fail loudly
        with pytest.raises(SystemExit) as err:
            cli.main(argv.split())
        assert err.value.code == 2
        flag, value = argv.split()[1:3]
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"jinxin: error: unrecognized arguments: {flag} {value}"
        )
        assert parse_args(["run", "--record-every", "5"]).config.record_every == 5

    def test_a_study_ignores_the_config_file_keys_it_never_reads(self, tmp_path):
        # eps = 5 breaks the subcharacteristic condition, but no sweep point marches it
        path = tmp_path / "study.cfg"
        path.write_text("eps = 5\nrecord_every = -1\n")
        config = parse_args(["study", "--config", str(path), "--eps-list", "0.1,0.05"]).config
        assert (config.eps, config.record_every) == (1.0, 0)

    @pytest.mark.parametrize("argv", [
        ["verify", "--check", "theorem"],
        ["verify", "--check", "identity"],
        ["run", "--eps", "0.5", "--nx", "32", "--tfinal", "0.01", "--out-dir"],
        ["run", "--scheme", "semi-discrete", "--nx", "32", "--tfinal", "0.01", "--out-dir"],
    ])
    def test_one_check_or_one_march_starts_no_process(self, argv, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "fork", None)  # any fork would fail loudly
        if argv[-1] == "--out-dir":
            argv = [*argv, str(tmp_path)]
        assert cli.main(argv) == 0

    @pytest.mark.parametrize("argv", [
        ["verify", "--check", "identity"],
        ["verify", "--check", "all"],
        ["run", "--eps", "0.5", "--nx", "32", "--tfinal", "0.01", "--out-dir", "{out}"],
        ["study", "--eps-list", "1e-1,5e-2", "--nx", "32", "--tfinal", "0.01", "--out-dir", "{out}"],
    ], ids=["verify-identity", "verify-all", "run", "study"])
    def test_no_command_imports_numpy_random(self, argv, tmp_path):
        # numpy.random costs a process about 6 MiB; checked in a fresh interpreter
        script = (
            "import sys\n"
            "from jinxin import cli\n"
            "status = cli.main(sys.argv[1:])\n"
            "print(status, 'numpy.random' in sys.modules)\n"
        )
        argv = [arg.format(out=tmp_path) for arg in argv]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr

    def test_a_worker_that_dies_is_one_error_line(self, monkeypatch, capsys):
        # the parent's stand-in checks wait until the forked child has taken
        # one and killed itself
        parent = os.getpid()
        died_r, died_w = os.pipe()

        def check(*_args):
            if os.getpid() != parent:
                os.write(died_w, b"x")
                os.kill(os.getpid(), signal.SIGKILL)
            select.select([died_r], [], [], 10.0)
            return harness.CheckOutcome(name="stand-in", passed=True, lines=[])

        for name in ("verify_identity", "verify_residuals", "verify_theorem", "verify_entropy_inequality"):
            monkeypatch.setattr(harness, name, check)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        try:
            assert cli.main(["verify"]) == 1
        finally:
            os.close(died_r)
            os.close(died_w)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the worker process was killed by signal 9 before it sent its results"
        ]
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_directory_at_a_profile_path_is_one_error_line(self, cpus, monkeypatch, tmp_path, capsys):
        # with two CPUs the profiles go to a forked writer, whose error is raised here
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        blocked = tmp_path / "profile_initial.csv"
        blocked.mkdir()
        argv = ["run", "--eps", "0.5", "--nx", "32", "--tfinal", "0.01", "--record-every", "2",
                "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: [Errno 21] Is a directory: '{blocked}'"]
        assert [path.name for path in tmp_path.iterdir()] == ["profile_initial.csv"]
        assert_no_child_left()

    def test_main_exit_status(self, tmp_path):
        assert cli.main(["run", "--eps", "0.5", "--nx", "32", "--tfinal", "0.01",
                         "--out-dir", str(tmp_path)]) == 0
