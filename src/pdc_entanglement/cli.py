"""Command-line front end.

Produces the five standard figure datasets as CSV, evaluates single
parameter points and runs the oracle equivalence suites:

    fig1   birth time of entanglement vs temperature, one curve per y
    fig2   birth time vs mismatch, one curve per temperature
    fig3   logarithmic negativity vs mismatch, one curve per temperature
    fig4   critical temperature vs mismatch (phase boundary)
    fig5   sqrt(S0) and mean photon number vs temperature
    eval   single-point report, exit code encodes the verdict
    oracle-check   closed form vs ODE moments and vs Fock negativity,
           one line per case

Exit code 2 means the run failed: bad input, or a package error
(numerical domain, Fock truncation, unstable integration); exit code 1
is reserved for eval's "separable" verdict and a failed oracle-check.

CSV output has a one-line header, comma separators, LF line endings and
12 significant digits; identical configurations produce byte-identical
files.  Flags win over --config file entries, which win over built-in
defaults.  Temperatures are kelvin, nu1 is Hz, the coupling rate is
rad/s, and everything else is dimensionless.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import analysis, fock_oracle, gaussian_core, pdc_dynamics
from .errors import (
    IntegrationError,
    NumericalDomainError,
    TruncationError,
    ValidationError,
)

DEFAULT_NU1_HZ = 3.12e10
DEFAULT_OMEGA1_BAR = 200.0
DEFAULT_OMEGA2_BAR = 400.0

FIG1_TEMP_GRID = "0:400:81"
FIG1_Y_SET = "0,0.5,0.9"
FIG2_Y_GRID = "0:0.99:100"
FIG2_TEMP_SET = "50,150,300"
FIG3_Y_GRID = "0:0.99:100"
FIG3_TEMP_SET = "0,50,300"
FIG3_TAU = 4.543
FIG4_Y_GRID = "0:0.9:19"
FIG4_TAU = 2.881
FIG5_TEMP_GRID = "0:600:121"
FIG5_Y_SET = "0,0.5,0.7"
FIG5_TAU = 2.881


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one CLI invocation."""

    nu1_hz: float = DEFAULT_NU1_HZ
    g_hz: Optional[float] = None  # coupling rate override, rad/s
    omega1_bar: float = DEFAULT_OMEGA1_BAR
    omega2_bar: float = DEFAULT_OMEGA2_BAR
    y: float = 0.0
    tau: float = 1.0
    temp_k: float = 0.0
    y_grid: Optional[str] = None
    temp_grid: Optional[str] = None
    y_set: Optional[str] = None
    temp_set: Optional[str] = None
    t_max: float = 2000.0
    out: Optional[str] = None

    @property
    def g(self) -> float:
        """Coupling rate: g = pi*1e-2*nu1 unless overridden."""
        return self.g_hz if self.g_hz is not None else np.pi * 1e-2 * self.nu1_hz

    @property
    def derived_omega1_bar(self) -> float:
        """2*pi*nu1/g; equals omega1_bar (= 200) under the default rule."""
        return 2.0 * np.pi * self.nu1_hz / self.g


def build_params(config: RunConfig, y: Optional[float] = None) -> pdc_dynamics.PdcParams:
    return pdc_dynamics.PdcParams(
        omega1_bar=config.omega1_bar,
        omega2_bar=config.omega2_bar,
        g=config.g,
        y=config.y if y is None else float(y),
    )


def _parse_grid(spec: str) -> np.ndarray:
    """Parse 'a:b:n' into n evenly spaced values from a to b inclusive."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must look like a:b:n, got {spec!r}")
    try:
        lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"bad grid {spec!r}: {exc}") from None
    if num < 1:
        raise ValidationError(f"grid needs at least one point, got {num}")
    if num == 1:
        return np.array([lo])
    return np.linspace(lo, hi, num)


def _parse_set(spec: str) -> list[float]:
    """Parse a comma-separated list of values."""
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad value list {spec!r}: {exc}") from None
    if not values:
        raise ValidationError(f"empty value list {spec!r}")
    return values


def _fmt(value: float) -> str:
    """12 significant digits, '.' decimal separator."""
    return f"{float(value):.11e}"


def _write_csv(out: Optional[str], header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def cmd_fig1(config: RunConfig) -> int:
    """BTE vs temperature for each mismatch in the y set."""
    temps = _parse_grid(config.temp_grid or FIG1_TEMP_GRID)
    y_values = _parse_set(config.y_set or FIG1_Y_SET)
    rows = []
    for temp in temps:
        for y in y_values:
            res = analysis.birth_time(build_params(config, y), float(temp))
            rows.append((temp, y, res.tau_e))
    _write_csv(config.out, ["temperature_K", "y", "tau_e"], rows)
    return 0


def cmd_fig2(config: RunConfig) -> int:
    """BTE vs mismatch for each temperature in the set."""
    y_values = _parse_grid(config.y_grid or FIG2_Y_GRID)
    temps = _parse_set(config.temp_set or FIG2_TEMP_SET)
    rows = []
    for y in y_values:
        for temp in temps:
            res = analysis.birth_time(build_params(config, y), float(temp))
            rows.append((y, temp, res.tau_e))
    _write_csv(config.out, ["y", "temperature_K", "tau_e"], rows)
    return 0


def cmd_fig3(config: RunConfig) -> int:
    """Logarithmic negativity vs mismatch at fixed interaction time."""
    y_values = _parse_grid(config.y_grid or FIG3_Y_GRID)
    temps = _parse_set(config.temp_set or FIG3_TEMP_SET)
    tau = config.tau
    rows = []
    for y in y_values:
        for temp in temps:
            cm = pdc_dynamics.covariance_matrix(build_params(config, y), tau, float(temp))
            rows.append((y, temp, gaussian_core.log_negativity(cm)))
    _write_csv(config.out, ["y", "temperature_K", "log_negativity"], rows)
    return 0


def cmd_fig4(config: RunConfig) -> int:
    """Critical temperature vs mismatch (the phase boundary)."""
    y_values = _parse_grid(config.y_grid or FIG4_Y_GRID)
    for y in y_values:
        if not (0.0 <= y < 1.0):
            raise ValidationError(f"mismatch grid must stay in [0, 1), got {y}")
    tau = config.tau
    points = analysis.phase_boundary(
        build_params(config), tau, [float(y) for y in y_values], t_max=config.t_max
    )
    _write_csv(config.out, ["y", "t_c_kelvin"], [(p.y, p.t_c) for p in points])
    return 0


def cmd_fig5(config: RunConfig) -> int:
    """sqrt(S0) and per-mismatch mean photon number vs temperature."""
    temps = _parse_grid(config.temp_grid or FIG5_TEMP_GRID)
    y_values = _parse_set(config.y_set or FIG5_Y_SET)
    tau = config.tau
    header = ["temperature_K", "sqrt_s0"] + [f"n_mean_y{y:g}" for y in y_values]
    rows = []
    for temp in temps:
        row = [float(temp)]
        first = analysis.witness(build_params(config, y_values[0]), tau, float(temp))
        row.append(first.threshold)
        row.append(first.mean_pair_photons)
        for y in y_values[1:]:
            wit = analysis.witness(build_params(config, y), tau, float(temp))
            row.append(wit.mean_pair_photons)
        rows.append(row)
    _write_csv(config.out, header, rows)
    return 0


def cmd_eval(config: RunConfig) -> int:
    """Single-point report; exit 0 if entangled, 1 if separable."""
    params = build_params(config)
    init = pdc_dynamics.thermal_init(params, config.temp_k)
    n1, n2 = pdc_dynamics.mean_photon_numbers(params, config.tau, config.temp_k)
    cm = pdc_dynamics.covariance_matrix(params, config.tau, config.temp_k)
    inv = gaussian_core.symplectic_invariants(cm)
    report = gaussian_core.entanglement_report(cm)
    wit = analysis.witness(params, config.tau, config.temp_k)
    det_gamma = pdc_dynamics.det_gamma_closed_form(params, config.tau, config.temp_k)
    pairs = [
        ("nbar1", init.nbar1),
        ("nbar2", init.nbar2),
        ("n1", float(n1)),
        ("n2", float(n2)),
        ("r", float(pdc_dynamics.squeezing_parameter(params.y, config.tau))),
        ("I1", float(inv.i1)),
        ("I2", float(inv.i2)),
        ("S0", float(inv.s0)),
        ("S", float(inv.s)),
        ("det_gamma", float(det_gamma)),
        ("nu_minus_pt", float(inv.nu_minus_pt)),
        ("E_N", report.log_negativity),
        ("W", wit.w),
    ]
    for key, value in pairs:
        print(f"{key}={value:.12g}")
    print(f"verdict={'entangled' if report.entangled else 'separable'}")
    return 0 if report.entangled else 1


def cmd_oracle_check(config: RunConfig, skip_fock: bool = False) -> int:
    """Run the oracle equivalence suites: one line per case, then the
    worst deviation of each suite and the verdict."""
    worst_cm = 0.0
    for y in (0.0, 0.5, 0.9):
        for temp in (0.0, 50.0, 300.0):
            for tau in (0.5, 1.5, 2.881):
                params = build_params(config, y)
                traj = fock_oracle.evolve_moments_ode(params, tau, temp)
                closed = pdc_dynamics.covariance_matrix(params, tau, temp)
                dev = float(
                    np.max(np.abs(traj.final().entries - closed.entries))
                )
                print(
                    f"ode y={y:g} T={temp:g} K tau={tau:g}: "
                    f"|ODE - closed form| = {dev:.3e}"
                )
                worst_cm = max(worst_cm, dev)
    print(f"moments: max |ODE - closed form| = {worst_cm:.3e} (tolerance 1e-8)")
    ok = worst_cm <= 1e-8

    if not skip_fock:
        worst_en = 0.0
        for y, tau, temp, n_cut in (
            (0.0, 0.5, 0.0, 20),
            (0.5, 1.0, 1.2, 36),
            (0.9, 1.0, 0.8, 26),
        ):
            params = build_params(config, y)
            state = fock_oracle.evolve_fock(params, tau, temp, n_cut=n_cut, step=1e-4)
            e_fock = fock_oracle.fock_log_negativity(state)
            closed = pdc_dynamics.covariance_matrix(params, tau, temp)
            e_gauss = gaussian_core.log_negativity(closed)
            dev = abs(e_fock - e_gauss)
            print(
                f"fock y={y:g} T={temp:g} K tau={tau:g} n_cut={n_cut}: "
                f"|Fock - Gaussian| = {dev:.3e}, leakage = {state.leakage:.3e}, "
                f"edge_population = {state.edge_population:.3e}"
            )
            worst_en = max(worst_en, dev)
        print(f"negativity: max |Fock - Gaussian| = {worst_en:.3e} (tolerance 1e-3)")
        ok = ok and worst_en <= 1e-3

    print("oracle-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _read_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; keys use underscores."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"bad config line {raw.rstrip()!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


_FLOAT_KEYS = {
    "nu1_hz",
    "g_hz",
    "omega1_bar",
    "omega2_bar",
    "y",
    "tau",
    "temp_k",
    "t_max",
}
_STR_KEYS = {"y_grid", "temp_grid", "y_set", "temp_set", "out"}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = _read_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in _FLOAT_KEYS | _STR_KEYS:
            raise ValidationError(f"unknown config key {key!r}")
    merged = {}
    for key in _FLOAT_KEYS | _STR_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
        elif key in _FLOAT_KEYS and key in file_values:
            try:
                merged[key] = float(file_values[key])
            except ValueError:
                raise ValidationError(
                    f"config key {key!r} needs a number, got {file_values[key]!r}"
                ) from None
        elif key in file_values:
            merged[key] = file_values[key]
    defaults = RunConfig()
    tau_fallbacks = {"fig3": FIG3_TAU, "fig4": FIG4_TAU, "fig5": FIG5_TAU}
    if "tau" not in merged and args.command in tau_fallbacks:
        merged["tau"] = tau_fallbacks[args.command]
    return replace(defaults, **merged)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdc-ent",
        description="Entanglement of mismatched parametric down-conversion "
        "at finite temperature: figure datasets, point evaluation, oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--nu1-hz", type=float, dest="nu1_hz",
                        help=f"signal frequency in Hz (default {DEFAULT_NU1_HZ:g})")
    common.add_argument("--g-hz", type=float, dest="g_hz",
                        help="coupling rate override in rad/s (default pi*1e-2*nu1)")
    common.add_argument("--omega1-bar", type=float, dest="omega1_bar",
                        help="dimensionless signal frequency (default 200)")
    common.add_argument("--omega2-bar", type=float, dest="omega2_bar",
                        help="dimensionless idler frequency (default 400)")
    common.add_argument("--y", type=float, help="mismatch, 0 <= y < 1")
    common.add_argument("--tau", type=float, help="dimensionless interaction time")
    common.add_argument("--temp-k", type=float, dest="temp_k", help="temperature, K")
    common.add_argument("--y-grid", dest="y_grid", help="mismatch grid a:b:n")
    common.add_argument("--temp-grid", dest="temp_grid", help="temperature grid a:b:n")
    common.add_argument("--y-set", dest="y_set", help="comma list of mismatches")
    common.add_argument("--temp-set", dest="temp_set", help="comma list of temperatures")
    common.add_argument("--t-max", type=float, dest="t_max",
                        help="critical-temperature bracket upper bound, K")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--config", help="key=value config file; flags win")
    for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "eval"):
        sub.add_parser(name, parents=[common])
    oracle = sub.add_parser("oracle-check", parents=[common])
    oracle.add_argument("--skip-fock", action="store_true",
                        help="run only the (fast) moment-ODE equivalence")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        if args.command == "fig1":
            return cmd_fig1(config)
        if args.command == "fig2":
            return cmd_fig2(config)
        if args.command == "fig3":
            return cmd_fig3(config)
        if args.command == "fig4":
            return cmd_fig4(config)
        if args.command == "fig5":
            return cmd_fig5(config)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "oracle-check":
            return cmd_oracle_check(config, skip_fock=args.skip_fock)
        raise ValidationError(f"unknown command {args.command!r}")
    except (
        ValidationError,
        NumericalDomainError,
        TruncationError,
        IntegrationError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
