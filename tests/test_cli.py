import argparse
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pdc_entanglement
from pdc_entanglement import (
    IntegrationError,
    NumericalDomainError,
    TruncationError,
    analysis,
    cli,
    fock_oracle,
    gaussian_core,
    pdc_dynamics,
)
from pdc_entanglement.cli import RunConfig, _build_parser, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def test_default_config_consistency():
    # omega1_bar = 2 pi nu1/g under the default coupling rule
    cfg = RunConfig()
    assert 2.0 * np.pi * cfg.nu1_hz / cfg.g == pytest.approx(cfg.omega1_bar, rel=1e-9)


def test_parser_reused_across_calls(capsys):
    # one process: the parser is built once, and each command prints the
    # bytes it prints as a process of its own
    sequence = [
        ["eval", "--y", "0.5", "--tau", "2.881", "--temp-k", "300"],
        ["fig1", "--temp-grid", "0:300:4"],
        ["eval", "--y", "0.9", "--tau", "20", "--temp-k", "50"],
    ]
    _build_parser.cache_clear()
    together = [run_cli(argv, capsys)[:2] for argv in sequence]
    assert _build_parser.cache_info().misses == 1
    src = os.path.dirname(os.path.dirname(pdc_entanglement.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv, (code, out) in zip(sequence, together):
        proc = subprocess.run(
            [sys.executable, "-m", "pdc_entanglement.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stdout) == (code, out)


class TestFig1:
    def test_format_and_anchors(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        code, _, _ = run_cli(
            ["fig1", "--temp-grid", "0:300:4", "--out", str(out)], capsys
        )
        assert code == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["temperature_K", "y", "tau_e"]
        assert len(rows) == 4 * 3
        by_point = {(r[0], r[1]): r[2] for r in rows}
        assert by_point[(0.0, 0.5)] == 0.0
        assert by_point[(300.0, 0.0)] == pytest.approx(2.7938815487, abs=1e-6)

    def test_monotone_along_temperature(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        run_cli(["fig1", "--out", str(out)], capsys)
        _, rows = parse_csv(out.read_text())
        for y in (0.0, 0.5, 0.9):
            curve = [r[2] for r in rows if r[1] == y]
            assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_bad_grid_is_usage_error(self, capsys):
        # each refusal of a malformed axis, grid or value list, by its message
        for flag, spec, message in [
            ("--temp-grid", "0:300:0", "grid needs at least one point, got 0"),
            ("--temp-grid", "0:300", "grid must look like a:b:n, got '0:300'"),
            (
                "--temp-grid",
                "0:300:x",
                "bad grid '0:300:x': invalid literal for int() with base 10: 'x'",
            ),
            ("--y-set", "0,x", "bad value list '0,x': could not convert string to float: 'x'"),
            ("--y-set", " , ", "empty value list ' , '"),
        ]:
            code, out, err = run_cli(["fig1", flag, spec], capsys)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command,grid", [("fig5", "0:nan:1"), ("fig1", "0:inf:3"), ("fig1", "nan:300:1")]
    )
    def test_grid_ends_must_be_finite(self, capsys, command, grid):
        # fig5 used to exit 0 on a NaN end, and an infinite end reached
        # np.linspace and its RuntimeWarning before the exit 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli([command, "--temp-grid", grid], capsys)
        assert code == 2
        assert out == ""
        assert "grid ends must be finite" in err


class TestFig2:
    def test_curve_ordering_in_temperature(self, capsys, tmp_path):
        out = tmp_path / "fig2.csv"
        code, _, _ = run_cli(
            ["fig2", "--y-grid", "0:0.99:12", "--out", str(out)], capsys
        )
        assert code == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["y", "temperature_K", "tau_e"]
        by_point = {(r[0], r[1]): r[2] for r in rows}
        ys = sorted({r[0] for r in rows})
        for y in ys:
            assert by_point[(y, 300.0)] >= by_point[(y, 150.0)] >= by_point[(y, 50.0)]
        # finite birth time even at extreme mismatch and room temperature
        assert 0.0 < by_point[(0.99, 300.0)] < 20.0
        for y in ys:
            for t in (50.0, 150.0, 300.0):
                curve = [by_point[(yy, t)] for yy in ys]
                assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, _ = run_cli(["fig2", "--y-grid", "0:0.9:-3"], capsys)
        assert code == 2


class TestFig3:
    def test_anchors(self, capsys, tmp_path):
        out = tmp_path / "fig3.csv"
        code, _, _ = run_cli(
            ["fig3", "--y-grid", "0:0.99:100", "--out", str(out)], capsys
        )
        assert code == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["y", "temperature_K", "log_negativity"]
        by_point = {(round(r[0], 4), r[1]): r[2] for r in rows}
        # TMSV limit at the default tau = 4.543
        assert by_point[(0.0, 0.0)] == pytest.approx(2 * 4.543, abs=1e-9)
        # still entangled at extreme mismatch for 50 K
        assert by_point[(0.99, 50.0)] > 1e-6
        # separable well past the boundary at 300 K
        assert by_point[(0.95, 300.0)] == 0.0

    def test_non_increasing_in_mismatch(self, capsys, tmp_path):
        out = tmp_path / "fig3.csv"
        run_cli(["fig3", "--y-grid", "0:0.99:50", "--out", str(out)], capsys)
        _, rows = parse_csv(out.read_text())
        for temp in (0.0, 50.0, 300.0):
            curve = [r[2] for r in rows if r[1] == temp]
            assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_grid_too_large_to_allocate_is_usage_error(self, capsys):
        # numpy refuses the 711 PiB array at once and allocates nothing;
        # its MemoryError used to leave main with a traceback and exit 1
        code, out, err = run_cli(["fig3", "--y-grid", "0:0.5:100000000000000000"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate 711. PiB")


class TestFig4:
    def test_boundary(self, capsys, tmp_path):
        out = tmp_path / "fig4.csv"
        code, _, _ = run_cli(["fig4", "--out", str(out)], capsys)
        assert code == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["y", "t_c_kelvin"]
        t_values = [r[1] for r in rows]
        assert all(b < a for a, b in zip(t_values, t_values[1:]))
        by_y = {round(r[0], 4): r[1] for r in rows}
        assert by_y[0.3] > 300.0
        assert by_y[0.0] == pytest.approx(360.0, rel=0.05)

    def test_mismatch_at_or_past_one_is_usage_error(self, capsys):
        code, _, _ = run_cli(["fig4", "--y-grid", "0:1.0:5"], capsys)
        assert code == 2

    def test_skipped_points_reported_on_stderr(self, capsys):
        # at tau = 20 the state is still entangled at t_max for both y
        code, out, err = run_cli(["fig4", "--tau", "20", "--y-grid", "0:0.5:2"], capsys)
        assert code == 0
        assert out == "y,t_c_kelvin\n"
        skipped = err.strip().split("\n")
        assert len(skipped) == 2
        assert "skipped y=0:" in skipped[0] and "skipped y=0.5:" in skipped[1]

    def test_default_grid_skips_nothing(self, capsys):
        code, out, err = run_cli(["fig4"], capsys)
        assert code == 0 and err == ""
        assert len(out.strip().split("\n")) == 1 + 19

    @pytest.mark.parametrize("t_max", ["1e78", "1e200", "1e300"])
    def test_wide_bracket_prints_the_default_bytes(self, capsys, t_max):
        # S0 overflows at these bracket ends, where fig4 used to exit 2
        default = run_cli(["fig4"], capsys)
        assert run_cli(["fig4", "--t-max", t_max], capsys) == default


class TestFig5:
    def test_columns_and_zero_temperature_row(self, capsys, tmp_path):
        out = tmp_path / "fig5.csv"
        code, _, _ = run_cli(
            ["fig5", "--temp-grid", "0:600:13", "--out", str(out)], capsys
        )
        assert code == 0
        header, rows = parse_csv(out.read_text())
        assert header == [
            "temperature_K",
            "sqrt_s0",
            "n_mean_y0",
            "n_mean_y0.5",
            "n_mean_y0.7",
        ]
        assert rows[0][0] == 0.0
        assert rows[0][1] == 0.0  # sqrt(S0) vanishes at T = 0
        assert rows[0][2] > 0.0  # but pairs have been produced
        sqrt_s0 = [r[1] for r in rows]
        assert all(b > a for a, b in zip(sqrt_s0, sqrt_s0[1:]))

    def test_crossings_match_phase_boundary(self, capsys, tmp_path):
        fig5 = tmp_path / "fig5.csv"
        fig4 = tmp_path / "fig4.csv"
        run_cli(["fig5", "--out", str(fig5)], capsys)
        run_cli(["fig4", "--y-grid", "0:0.7:15", "--out", str(fig4)], capsys)
        _, rows5 = parse_csv(fig5.read_text())
        _, rows4 = parse_csv(fig4.read_text())
        t_c = {round(r[0], 4): r[1] for r in rows4}
        for col, y in ((2, 0.0), (3, 0.5), (4, 0.7)):
            diff = [r[col] - r[1] for r in rows5]  # mean photons - sqrt(S0)
            temps = [r[0] for r in rows5]
            crossing = None
            for i in range(len(diff) - 1):
                if diff[i] > 0.0 >= diff[i + 1]:
                    frac = diff[i] / (diff[i] - diff[i + 1])
                    crossing = temps[i] + frac * (temps[i + 1] - temps[i])
                    break
            assert crossing is not None
            assert abs(crossing - t_c[y]) / t_c[y] < 0.01


class TestEval:
    def test_separable_initial_point(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--y", "0", "--tau", "0", "--temp-k", "0"], capsys
        )
        assert code == 1
        report = dict(line.split("=") for line in out.strip().split("\n"))
        assert report["verdict"] == "separable"
        assert float(report["S"]) == 0.0
        assert float(report["det_gamma"]) == 0.0
        assert float(report["E_N"]) == 0.0

    def test_entangled_tmsv_point(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--y", "0", "--tau", "1", "--temp-k", "0"], capsys
        )
        assert code == 0
        report = dict(line.split("=") for line in out.strip().split("\n"))
        assert report["verdict"] == "entangled"
        assert float(report["E_N"]) == pytest.approx(2.0, rel=1e-9)
        for key in (
            "nbar1", "nbar2", "n1", "n2", "r", "I1", "I2",
            "S0", "S", "det_gamma", "nu_minus_pt", "E_N", "W",
        ):
            assert key in report

    def test_room_temperature_mismatch_point_separable(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--y", "0.5", "--tau", "2.881", "--temp-k", "300"], capsys
        )
        assert code == 1
        assert "verdict=separable" in out

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run_cli(
            ["eval", "--y", "1.5", "--tau", "1", "--temp-k", "0"], capsys
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "y, tau, r",
        [("0", "1.7", "1.7"), ("0.6", "2", "1.6")],
        ids=["matched_reduces_to_tau", "arithmetic"],
    )
    def test_squeezing_is_x_tau(self, capsys, y, tau, r):
        # r = tau sqrt((1 - y)(1 + y)): tau itself at y = 0
        code, out, _ = run_cli(["eval", "--y", y, "--tau", tau], capsys)
        assert code == 0
        assert f"\nr={r}\n" in out

    def test_near_unity_mismatch_kills_squeezing(self, capsys):
        _, out, _ = run_cli(["eval", "--y", repr(1.0 - 1e-12), "--tau", "5"], capsys)
        report = dict(line.split("=") for line in out.strip().split("\n"))
        assert float(report["r"]) < 1e-5

    @pytest.mark.parametrize(
        "tau, temp, message",
        [("-1", "nan", "tau"), ("1", "nan", "temperature"), ("1", "-1", "temperature")],
    )
    def test_names_tau_before_temperature(self, capsys, tau, temp, message):
        # as every closed form does: tau, then T
        code, out, err = run_cli(["eval", "--tau", tau, "--temp-k", temp], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message} must be finite and >= 0\n"

    def test_report_is_the_public_closed_forms(self, capsys, monkeypatch):
        # eval builds one pair state and feeds it to the readers behind the
        # public closed forms; each value it prints is theirs to the bit
        # (printed here with repr in place of 12 digits)
        monkeypatch.setattr(cli, "_EVAL_REPORT", cli._EVAL_REPORT.replace("{:.12g}", "{!r}"))
        rng = np.random.default_rng(2503)
        codes = set()
        for _ in range(160):
            y = 0.99 * rng.random()
            tau = float(rng.choice([2.881, 4.543, 8.0, 20.0]))
            temp = 600.0 * rng.random()
            code, out, _ = run_cli(
                ["eval", "--y", repr(y), "--tau", repr(tau), "--temp-k", repr(temp)], capsys
            )
            report = dict(line.split("=") for line in out.strip().split("\n"))
            params = cli.build_params(RunConfig(), y)
            n1, n2 = pdc_dynamics.mean_photon_numbers(params, tau, temp)
            cm = pdc_dynamics.covariance_matrix(params, tau, temp)
            inv = gaussian_core.symplectic_invariants(cm)
            expected = {
                "n1": n1,
                "n2": n2,
                "I1": inv.i1,
                "I2": inv.i2,
                "S0": inv.s0,
                "S": inv.s,
                "det_gamma": pdc_dynamics.det_gamma_closed_form(params, tau, temp),
                "nu_minus_pt": inv.nu_minus_pt,
                "E_N": inv.log_negativity,
                "W": analysis.witness(params, tau, temp).w,
            }
            for key, value in expected.items():
                assert report[key] == repr(value), (key, y, tau, temp)
            assert code == (0 if gaussian_core.entanglement_report(cm).entangled else 1)
            codes.add(code)
        assert codes == {0, 1}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--tau", "400", "--temp-k", "1"],
                "mean photon number overflows the float range at (tau, T) = (400.0, 1.0)",
            ),
            (["--tau", "-1", "--temp-k", "nan"], "tau must be finite and >= 0"),
        ],
        ids=["photon_numbers_before_matrix", "tau_before_temperature"],
    )
    def test_refusals_keep_their_order(self, capsys, reference_params, argv, message):
        # at tau = 400 the matrix alone would refuse too, under its own name
        with pytest.raises(NumericalDomainError, match="covariance matrix overflows"):
            pdc_dynamics.covariance_matrix(reference_params, 400.0, 1.0)
        code, out, err = run_cli(["eval", *argv], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("y", cli._parse_grid(cli.FIG4_Y_GRID).tolist())
    def test_verdict_flips_at_fig4_critical_temperature(self, capsys, y):
        # separable at the float T_c that fig4 prints, entangled one float below
        tau = cli.FIG4_TAU
        t_c = analysis.critical_temperature(cli.build_params(RunConfig(), y), tau)
        for temp, code in ((t_c, 1), (math.nextafter(t_c, 0.0), 0)):
            got, _, _ = run_cli(
                ["eval", "--y", repr(y), "--tau", repr(tau), "--temp-k", repr(temp)], capsys
            )
            assert got == code, (y, temp)


class TestConfigFile:
    def test_config_applies_and_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("y = 0.5\ntau = 1.0\ntemp_k = 0\n# comment\n")
        code, out, _ = run_cli(["eval", "--config", str(cfg)], capsys)
        assert code == 0
        report = dict(line.split("=") for line in out.strip().split("\n"))
        assert float(report["r"]) == pytest.approx(np.sqrt(0.75), rel=1e-12)
        # flag overrides the file
        code, out, _ = run_cli(
            ["eval", "--config", str(cfg), "--y", "0"], capsys
        )
        report = dict(line.split("=") for line in out.strip().split("\n"))
        assert float(report["r"]) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("key", ["frobnicate", "g_hz"])
    def test_unknown_key_rejected(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 3\n")
        code, _, err = run_cli(["eval", "--config", str(cfg)], capsys)
        assert code == 2
        assert f"unknown config key {key!r}" in err

    def test_non_numeric_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("y=abc\n")
        code, _, err = run_cli(["eval", "--config", str(cfg)], capsys)
        assert code == 2
        assert "error" in err and "'y'" in err
        # a line with no '=' at all
        cfg.write_text("y 0.5\n")
        code, out, err = run_cli(["eval", "--config", str(cfg)], capsys)
        assert (code, out, err) == (2, "", "error: bad config line 'y 0.5'\n")

    @pytest.mark.parametrize("command", ["eval", "fig1"])
    def test_file_that_is_not_utf8_is_usage_error(self, capsys, tmp_path, command):
        # its UnicodeDecodeError used to leave main with a traceback and
        # exit 1, eval's "separable"
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"y=0.5\xff\n")
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: config file {str(cfg)!r} is not UTF-8 text\n"


class TestFlagsPerSubcommand:
    """Each subcommand takes the flags it reads and no other; a config
    file may still set any key, as one file can serve several."""

    COMMON = {"--nu1-hz", "--omega1-bar", "--omega2-bar", "--config"}
    OWN = {
        "fig1": {"--out", "--temp-grid", "--y-set"},
        "fig2": {"--out", "--y-grid", "--temp-set"},
        "fig3": {"--out", "--y-grid", "--temp-set", "--tau"},
        "fig4": {"--out", "--y-grid", "--tau", "--t-max"},
        "fig5": {"--out", "--temp-grid", "--y-set", "--tau"},
        "map": {"--out", "--y-grid", "--temp-grid", "--tau"},
        "eval": {"--y", "--tau", "--temp-k"},
        "oracle-check": {"--skip-fock"},
    }

    def test_each_subcommand_takes_its_own_flags(self):
        commands = next(
            action.choices for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = {
            name: {
                option for action in command._actions for option in action.option_strings
            } - {"-h", "--help"}
            for name, command in commands.items()
        }
        assert flags == {name: self.COMMON | own for name, own in self.OWN.items()}
        assert sum(map(len, flags.values())) == 58

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "--t-max", "1e200"],
            ["eval", "--out", "f"],
            ["fig1", "--y", "0.5"],  # not an abbreviation of --y-set
            ["fig1", "--tau", "1"],
            ["oracle-check", "--tau", "1"],
            ["oracle-check", "--out", "f"],
            ["fig3", "--temp-k", "5"],
            ["eval", "--g-hz", "1e9"],  # removed: --nu1-hz sets g
        ],
    )
    def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_file_may_set_keys_the_subcommand_does_not_read(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("y = 0.5\ntau = 1.0\ntemp_k = 0\nt_max = 500\nout = eval.csv\n")
        code, out, _ = run_cli(["eval", "--config", str(cfg)], capsys)
        assert code == 0
        assert "verdict=entangled" in out
        assert list(tmp_path.iterdir()) == [cfg]


class TestSubcommandDispatch:
    """An argv that starts with a subcommand is parsed by that
    subcommand's own parser, into the namespace the full parser gives;
    usage, -h and unknown commands take the full parser."""

    COMMANDS = [*cli.DATASETS, "eval", "oracle-check"]

    @staticmethod
    def argvs(name, config):
        flags = []
        for key in cli._command_keys(name):
            flag = "--" + key.replace("_", "-")
            flags += [flag, "0.5"] if key in cli._FLOAT_KEYS else [f"{flag}=0:1:3"]
        if name == "oracle-check":
            flags.append("--skip-fock")
        yield [name]
        yield [name, *flags]
        yield [name, "--config", config]
        yield [name, *flags[:2], "--config", config]

    @pytest.mark.parametrize("name", COMMANDS)
    def test_namespace_is_the_full_parsers(self, name, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("y = 0.5\n")
        for argv in self.argvs(name, str(cfg)):
            assert vars(cli._parse_args(argv)) == vars(_build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["-h"], ["eval", "-h"]])
    def test_usage_help_and_unknown_commands_unchanged(self, capsys, argv):
        with pytest.raises(SystemExit) as full:
            _build_parser().parse_args(argv)
        expected = (full.value.code, *capsys.readouterr())
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert (got.value.code, *capsys.readouterr()) == expected

    def test_unread_flag_gets_the_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--out", "f"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pdc-ent eval ")
        assert err.endswith("\npdc-ent eval: error: unrecognized arguments: --out f\n")


class TestPackageErrorsExit2:
    """Every package error exits 2, never 1 (eval's "separable")."""

    @staticmethod
    def _raise(exc):
        def fail(*args, **kwargs):
            raise exc("injected")

        return fail

    def test_numerical_domain_error(self, capsys, monkeypatch):
        monkeypatch.setattr(
            gaussian_core, "symplectic_invariants", self._raise(NumericalDomainError)
        )
        code, _, err = run_cli(
            ["eval", "--y", "0", "--tau", "1", "--temp-k", "0"], capsys
        )
        assert code == 2
        assert "error: injected" in err

    def test_truncation_error(self, capsys, monkeypatch):
        monkeypatch.setattr(fock_oracle, "evolve_fock", self._raise(TruncationError))
        code, _, err = run_cli(["oracle-check"], capsys)
        assert code == 2
        assert "error: injected" in err

    def test_integration_error(self, capsys, monkeypatch):
        monkeypatch.setattr(
            fock_oracle, "evolve_moments_ode", self._raise(IntegrationError)
        )
        code, _, err = run_cli(["oracle-check", "--skip-fock"], capsys)
        assert code == 2
        assert "error: injected" in err


    def test_critical_temperature_past_the_float_range(self, capsys):
        # at nu1 = 1 Hz the occupations overflow at the bracket end
        code, out, err = run_cli(["fig4", "--nu1-hz", "1", "--t-max", "1e300"], capsys)
        assert code == 2
        assert out == ""
        assert "error: thermal occupation overflows the float range at (T) = (1e+300)" in err

    def test_lab_phase_past_the_float_range(self, capsys):
        # the phase (omega1_bar + y) tau is inf: a bare ValueError exited 1
        argv = ["eval", "--nu1-hz", "1", "--omega1-bar", "1e308", "--tau", "2", "--temp-k", "0"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "error: lab-frame phase overflows the float range at (tau) = (2.0)\n"

    @pytest.mark.parametrize(
        "argv", [["eval", "--tau", "0.5", "--temp-k", "1e300"], ["fig4", "--t-max", "1e300"]]
    )
    def test_theta_past_the_float_range(self, capsys, argv):
        # eval said "entangled" and fig4 skipped every y, from an inf theta
        code, out, err = run_cli(
            [*argv, "--nu1-hz", "1", "--omega1-bar", "1e308", "--omega2-bar", "1e308"], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: theta = hbar*(omega1_bar + omega2_bar)*g/k_B must be finite")

    def test_overflow_names_the_occupations(self, capsys):
        # m is finite at 1e160 K; the occupations make S0 and K^2 overflow
        code, out, err = run_cli(["eval", "--temp-k", "1e160"], capsys)
        assert code == 2
        assert out == ""
        assert re.search(
            r"invariants overflows the float range at \(nbar1, nbar2, m\) = "
            r"\(6\.6\d*e\+159, 3\.3\d*e\+159, 1\.38\d*\)",
            err,
        )


class TestCsvFormat:
    def test_lf_endings_and_digit_count(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        run_cli(["fig1", "--temp-grid", "0:100:3", "--out", str(out)], capsys)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert not raw.decode().split("\n")[1].endswith(",")
        first_value = raw.decode().split("\n")[1].split(",")[0]
        mantissa = first_value.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) == 12

    def test_stdout_when_no_out_flag(self, capsys):
        code, out, _ = run_cli(["fig1", "--temp-grid", "0:10:2"], capsys)
        assert code == 0
        assert out.startswith("temperature_K,y,tau_e\n")


def reference_csv(header, columns):
    """The CSV of broadcast columns, every cell formatted on its own."""
    arrays = np.broadcast_arrays(*[np.asarray(c, dtype=float) for c in columns])
    flat = [a.ravel().tolist() for a in arrays]
    rows = [",".join("%.11e" % v for v in row) for row in zip(*flat)]
    return "".join(line + "\n" for line in [",".join(header)] + rows)


class TestCsvWriter:
    """The writer formats each value of an axis once; the bytes are those of
    one "%.11e" per cell."""

    @pytest.fixture
    def written(self, monkeypatch):
        """Every (header, columns) the CLI writes, passed on to the writer."""
        calls = []
        real = cli._write_csv

        def spy(out, header, columns):
            calls.append((header, columns))
            real(out, header, columns)

        monkeypatch.setattr(cli, "_write_csv", spy)
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--temp-grid", "0:400:5", "--y-set", "0,0.5,0.9"],
            ["fig2", "--y-grid", "0:0.99:4", "--temp-set", "50,300"],
            ["fig3", "--y-grid", "0:0.99:4", "--temp-set", "0,50,300"],
            ["fig4", "--y-grid", "0:0.9:4"],
            ["fig5", "--temp-grid", "0:600:5", "--y-set", "0,0.5"],
            ["map", "--y-grid", "0:0.99:3", "--temp-grid", "0:600:4"],
            # single-value axes, alone and with a single-value partner
            ["fig1", "--temp-grid", "0:400:5", "--y-set", "0.5"],
            ["map", "--y-grid", "0.5:0.5:1", "--temp-grid", "0:600:3"],
            ["map", "--y-grid", "0.5:0.5:1", "--temp-grid", "300:300:1"],
        ],
    )
    def test_matches_per_cell_formatting(self, capsys, written, argv):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == reference_csv(*written[0])

    def test_negative_zero_cell(self, capsys, written):
        # -0.0 on a broadcast temperature axis, then in every kind of column
        code, out, _ = run_cli(["fig2", "--y-grid", "0:0.99:3", "--temp-set=-0.0,300"], capsys)
        assert code == 0
        assert out == reference_csv(*written[0])
        assert ",-0.00000000000e+00," in out
        columns = [
            np.array([[-0.0], [1.5]]),
            np.array([[2.0, -0.0]]),
            np.array([[-0.0, 1.0], [2.0, 3.0]]),
        ]
        cli._write_csv(None, ["a", "b", "c"], columns)
        out = capsys.readouterr().out
        assert out == reference_csv(["a", "b", "c"], columns)
        assert out.split("\n")[1] == "-0.00000000000e+00,2.00000000000e+00,-0.00000000000e+00"

    @pytest.mark.parametrize("block_rows", [1, 5, 7, 12])
    def test_blocks_join_without_a_seam(self, capsys, written, monkeypatch, block_rows):
        # 12 rows of 3 x 4: blocks that divide it and blocks that do not
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
        code, out, _ = run_cli(["map", "--y-grid", "0:0.99:3", "--temp-grid", "0:600:4"], capsys)
        assert code == 0
        assert out == reference_csv(*written[0])
        assert out.count("\n") == 1 + 12


def test_fig4_reads_critical_temperature_at_call_time(capsys, monkeypatch):
    # the benchmark's fault injection and its trace span replace this name
    real = analysis.critical_temperature
    _, before, _ = run_cli(["fig4", "--y-grid", "0:0.5:2"], capsys)
    monkeypatch.setattr(
        analysis, "critical_temperature", lambda *a, **k: 2.0 * real(*a, **k)
    )
    _, after, _ = run_cli(["fig4", "--y-grid", "0:0.5:2"], capsys)
    assert after != before
    doubled = [2.0 * r[1] for r in parse_csv(before)[1]]
    assert [r[1] for r in parse_csv(after)[1]] == pytest.approx(doubled, rel=1e-11)


def test_module_entry_point_runs():
    # the child finds the package where this process found it, with or
    # without PYTHONPATH set
    src = os.path.dirname(os.path.dirname(pdc_entanglement.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pdc_entanglement.cli",
            "eval",
            "--y",
            "0",
            "--tau",
            "1",
            "--temp-k",
            "0",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "verdict=entangled" in proc.stdout


def test_oracle_check_moments_only(capsys):
    code, out, _ = run_cli(["oracle-check", "--skip-fock"], capsys)
    assert code == 0
    assert "PASS" in out


def test_oracle_check_full(capsys):
    code, out, _ = run_cli(["oracle-check"], capsys)
    assert code == 0
    assert "negativity" in out
    assert "PASS" in out


def test_oracle_check_reports_each_case(capsys):
    code, out, _ = run_cli(["oracle-check"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    ode = [line for line in lines if line.startswith("ode ")]
    fock = [line for line in lines if line.startswith("fock ")]
    assert len(ode) == 27
    assert len(fock) == 3
    assert "ode y=0.5 T=50 K tau=2.881: |ODE - closed form| = " in out
    for line in fock:
        for field in ("n_cut=", "|Fock - Gaussian| = ", "leakage = ", "edge_population = "):
            assert field in line
        # one block per difference sector n1 - n2, the largest at n1 = n2
        n_cut = int(re.search(r"n_cut=(\d+)", line).group(1))
        assert line.endswith(f", blocks = {2 * n_cut + 1} (largest {n_cut + 1})")
    assert lines[-1] == "oracle-check: PASS"


class TestRowsRederivableByEval:
    """Spot-check emitted rows against single-point evaluation."""

    def test_fig3_rows_match_eval(self, capsys, tmp_path):
        out = tmp_path / "fig3.csv"
        run_cli(["fig3", "--y-grid", "0:0.9:10", "--out", str(out)], capsys)
        _, rows = parse_csv(out.read_text())
        for row in rows[:: len(rows) // 3]:
            y, temp, en_csv = row
            code, text, _ = run_cli(
                [
                    "eval",
                    "--y", repr(y),
                    "--tau", "4.543",
                    "--temp-k", repr(temp),
                ],
                capsys,
            )
            report = dict(line.split("=") for line in text.strip().split("\n"))
            # the CSV carries 12 digits of y; one ulp of y moves E_N by
            # ~1e-10 through the rounded matrix entries
            assert float(report["E_N"]) == pytest.approx(
                en_csv, rel=1e-8, abs=1e-8
            )
            assert code == (0 if en_csv > 0 else 1)

    def test_fig5_row_matches_eval(self, capsys, tmp_path):
        out = tmp_path / "fig5.csv"
        run_cli(["fig5", "--temp-grid", "100:300:3", "--out", str(out)], capsys)
        _, rows = parse_csv(out.read_text())
        temp, sqrt_s0, mean_y0 = rows[1][0], rows[1][1], rows[1][2]
        _, text, _ = run_cli(
            ["eval", "--y", "0", "--tau", "2.881", "--temp-k", repr(temp)],
            capsys,
        )
        report = dict(line.split("=") for line in text.strip().split("\n"))
        assert np.sqrt(float(report["S0"])) == pytest.approx(sqrt_s0, rel=1e-10)
        n_mean = (float(report["n1"]) + float(report["n2"])) / 2.0
        assert n_mean == pytest.approx(mean_y0, rel=1e-10)

    def test_fig1_birth_time_sits_on_boundary(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        run_cli(["fig1", "--temp-grid", "200:300:2", "--out", str(out)], capsys)
        _, rows = parse_csv(out.read_text())
        temp, y, tau_e = rows[-1]
        _, text, _ = run_cli(
            ["eval", "--y", repr(y), "--tau", repr(tau_e), "--temp-k", repr(temp)],
            capsys,
        )
        report = dict(line.split("=") for line in text.strip().split("\n"))
        # at tau_E the indicator crosses zero: |S| is tiny against S0
        assert abs(float(report["S"])) < 1e-6 * float(report["S0"])


def test_eval_entangled_at_large_tau_room_temperature(capsys):
    code, out, _ = run_cli(
        ["eval", "--tau", "20", "--temp-k", "300", "--y", "0"], capsys
    )
    assert code == 0
    report = dict(line.split("=") for line in out.strip().split("\n"))
    assert report["verdict"] == "entangled"
    assert report["E_N"] == "34.4122353455"  # 34.412235345523136
