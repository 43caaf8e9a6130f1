"""Command-line front end.

Produces the five standard figure datasets as CSV, evaluates single
parameter points and runs the oracle equivalence suites:

    fig1   birth time of entanglement vs temperature, one curve per y
    fig2   birth time vs mismatch, one curve per temperature
    fig3   logarithmic negativity vs mismatch, one curve per temperature
    fig4   critical temperature vs mismatch (phase boundary)
    fig5   sqrt(S0) and mean photon number vs temperature
    map    E_N, S, birth time and witness on a (y, T) grid at fixed tau
    eval   single-point report, exit code encodes the verdict
    oracle-check   closed form vs ODE moments and vs Fock negativity,
           one line per case

Exit code 2 means the run failed: bad input, a grid too large to
allocate, or a package error (numerical domain, Fock truncation,
unstable integration); exit code 1 is reserved for eval's "separable"
verdict and a failed oracle-check.

CSV output has a one-line header, comma separators, LF line endings and
12 significant digits; identical configurations produce byte-identical
files.  Every dataset but fig4 is one array call into the closed forms
over its whole grid; fig4 takes each mismatch's critical temperature
in turn and reports on stderr the points it skips.  Each subcommand
takes only the flags it reads; a --config file may set any key, and
flags win over its entries, which win over built-in defaults.
Temperatures are kelvin, nu1 is Hz, the coupling rate is rad/s, and
everything else is dimensionless.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

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
MAP_Y_GRID = "0:0.99:100"
MAP_TEMP_GRID = "0:600:121"
MAP_TAU = 2.881
CSV_BLOCK_ROWS = 8192  # rows formatted per write, which bounds the text held at once
# eval's report: one key=value line per value, then the verdict
_EVAL_REPORT = "".join(
    f"{key}={{:.12g}}\n"
    for key in (
        "nbar1", "nbar2", "n1", "n2", "r", "I1", "I2", "S0", "S",
        "det_gamma", "nu_minus_pt", "E_N", "W",
    )
) + "verdict={}\n"


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one CLI invocation."""

    nu1_hz: float = DEFAULT_NU1_HZ
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
        """Coupling rate: g = pi*1e-2*nu1."""
        return np.pi * 1e-2 * self.nu1_hz


def build_params(config: RunConfig, y: Optional[float] = None) -> pdc_dynamics.PdcParams:
    return pdc_dynamics.PdcParams(
        omega1_bar=config.omega1_bar,
        omega2_bar=config.omega2_bar,
        g=config.g,
        y=config.y if y is None else y,
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
    if not np.isfinite([lo, hi]).all():
        raise ValidationError(f"grid ends must be finite, got {spec!r}")
    if num < 1:
        raise ValidationError(f"grid needs at least one point, got {num}")
    if num == 1:
        return np.array([lo])
    return np.linspace(lo, hi, num)


def _parse_set(spec: str) -> np.ndarray:
    """Parse a comma-separated list of values."""
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad value list {spec!r}: {exc}") from None
    if not values:
        raise ValidationError(f"empty value list {spec!r}")
    return np.array(values)


def _write_csv(out: Optional[str], header: Sequence[str], columns) -> None:
    """One row per point of the broadcast columns, 12 significant digits
    ('.' decimal separator) per value, written a block of rows at a time.

    A column smaller than the grid, such as an axis broadcast along the
    other one, is formatted once per value it holds and enters each row
    as text; a full-size column is formatted in the row itself."""
    arrays = [np.asarray(c, dtype=float) for c in columns]
    size = math.prod(np.broadcast_shapes(*(a.shape for a in arrays)))
    cells, slots = [], []
    for a in arrays:
        if a.size < size:
            text = ["%.11e" % v for v in a.ravel().tolist()]
            a = np.array(text, dtype=object).reshape(a.shape)
        cells.append(a)
        slots.append("%s" if a.dtype == object else "%.11e")
    line = ",".join(slots) + "\n"
    views = np.broadcast_arrays(*cells)
    with contextlib.ExitStack() as stack:
        fh = sys.stdout if out is None else stack.enter_context(
            open(out, "w", newline="\n")
        )
        fh.write(",".join(header) + "\n")
        for start in range(0, size, CSV_BLOCK_ROWS):
            block = [v.flat[start:start + CSV_BLOCK_ROWS].tolist() for v in views]
            fh.write("".join([line % row for row in zip(*block)]))


# Each dataset builder takes the parameters, the run configuration and its
# parsed axes, and returns the CSV header and the columns.  An axis of n
# values feeds the closed forms as an (n, 1) or (1, n) array, so one call
# covers the whole grid.


def _fig1(params, config, temps, ys):
    """Birth time vs temperature, one curve per mismatch."""
    temps, ys = temps[:, None], ys[None, :]
    tau_e = analysis.birth_time(params, temps, y=ys).tau_e
    return ["temperature_K", "y", "tau_e"], [temps, ys, tau_e]


def _fig2(params, config, ys, temps):
    """Birth time vs mismatch, one curve per temperature."""
    ys, temps = ys[:, None], temps[None, :]
    tau_e = analysis.birth_time(params, temps, y=ys).tau_e
    return ["y", "temperature_K", "tau_e"], [ys, temps, tau_e]


def _fig3(params, config, ys, temps):
    """Logarithmic negativity vs mismatch at fixed interaction time."""
    ys, temps = ys[:, None], temps[None, :]
    inv = pdc_dynamics.pair_invariants(params, config.tau, temps, y=ys)
    return ["y", "temperature_K", "log_negativity"], [ys, temps, inv.log_negativity]


def _fig4(params, config, ys):
    """Critical temperature vs mismatch (the phase boundary); mismatches
    with no sign change of S in [0, t_max] are reported on stderr."""
    points = analysis.phase_boundary(params, config.tau, ys.tolist(), t_max=config.t_max)
    found = {p.y for p in points}
    for y in ys.tolist():
        if y not in found:
            print(
                f"fig4: skipped y={y:.12g}: S has no sign change for T in "
                f"[0, {config.t_max:g}] K (never entangled, or still "
                f"entangled at {config.t_max:g} K)",
                file=sys.stderr,
            )
    return ["y", "t_c_kelvin"], [[p.y for p in points], [p.t_c for p in points]]


def _fig5(params, config, temps, ys):
    """sqrt(S0) and the mean photon number per mismatch vs temperature."""
    wit = analysis.witness(params, config.tau, temps[:, None], y=ys[None, :])
    header = ["temperature_K", "sqrt_s0"] + [f"n_mean_y{y:g}" for y in ys]
    return header, [temps, wit.threshold[:, 0], *wit.mean_pair_photons.T]


def _map(params, config, ys, temps):
    """E_N, S, birth time and witness on the (y, T) grid at fixed tau."""
    ys, temps = ys[:, None], temps[None, :]
    inv = pdc_dynamics.pair_invariants(params, config.tau, temps, y=ys)
    tau_e = analysis.birth_time(params, temps, y=ys).tau_e
    w = analysis.witness(params, config.tau, temps, y=ys).w
    header = ["y", "temperature_K", "log_negativity", "s", "tau_e", "w"]
    return header, [ys, temps, inv.log_negativity, inv.s, tau_e, w]


class Dataset(NamedTuple):
    """A CSV subcommand: its builder, its axes as (config field, default
    spec) pairs, its default interaction time (None if it reads none) and
    any further config fields its builder reads."""

    build: Callable
    axes: tuple
    tau: Optional[float] = None
    reads: tuple = ()


DATASETS = {
    "fig1": Dataset(_fig1, (("temp_grid", FIG1_TEMP_GRID), ("y_set", FIG1_Y_SET))),
    "fig2": Dataset(_fig2, (("y_grid", FIG2_Y_GRID), ("temp_set", FIG2_TEMP_SET))),
    "fig3": Dataset(_fig3, (("y_grid", FIG3_Y_GRID), ("temp_set", FIG3_TEMP_SET)), FIG3_TAU),
    "fig4": Dataset(_fig4, (("y_grid", FIG4_Y_GRID),), FIG4_TAU, ("t_max",)),
    "fig5": Dataset(_fig5, (("temp_grid", FIG5_TEMP_GRID), ("y_set", FIG5_Y_SET)), FIG5_TAU),
    "map": Dataset(_map, (("y_grid", MAP_Y_GRID), ("temp_grid", MAP_TEMP_GRID)), MAP_TAU),
}


def cmd_dataset(config: RunConfig, dataset: Dataset) -> int:
    """Parse the dataset's axes ('a:b:n' grids, comma sets) and write its CSV."""
    axes = []
    for field, default in dataset.axes:
        spec = getattr(config, field) or default
        axes.append(_parse_grid(spec) if field.endswith("_grid") else _parse_set(spec))
    header, columns = dataset.build(build_params(config), config, *axes)
    _write_csv(config.out, header, columns)
    return 0


def cmd_eval(config: RunConfig) -> int:
    """Single-point report; exit 0 if entangled, 1 if separable.

    The pair state is built once.  The readers behind
    ``mean_photon_numbers``, ``covariance_matrix``, ``witness`` and
    ``det_gamma_closed_form`` take it alone in that order, each with its own
    finiteness check, so a refusal is the one those functions would give
    first; the verdict is the pair state's ``entangled()``, as in
    ``entanglement_report``.  Nothing is written before every value is known.
    """
    pair = pdc_dynamics._pair_state(build_params(config), config.tau, config.temp_k)
    n1, n2 = pdc_dynamics._photon_numbers(pair)
    cm = pdc_dynamics._pair_matrix(pair)
    inv = gaussian_core.symplectic_invariants(cm)
    entangled = pair.entangled()
    w = analysis._witness(pair).w
    det_gamma = pdc_dynamics._det_gamma(pair)
    sys.stdout.write(_EVAL_REPORT.format(
        pair.nbar1, pair.nbar2, n1, n2, pair.tau * pair.x, inv.i1, inv.i2, inv.s0, inv.s,
        det_gamma, inv.nu_minus_pt, inv.log_negativity, w,
        "entangled" if entangled else "separable",
    ))
    return 0 if entangled else 1


def cmd_oracle_check(config: RunConfig, skip_fock: bool = False) -> int:
    """Run the oracle equivalence suites: one line per case, then the
    worst deviation of each suite and the verdict."""
    worst_cm = 0.0
    for y in (0.0, 0.5, 0.9):
        params = build_params(config, y)
        for temp in (0.0, 50.0, 300.0):
            for tau in (0.5, 1.5, 2.881):
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
            state = fock_oracle.evolve_fock(params, tau, temp, n_cut=n_cut)
            e_fock = fock_oracle.fock_log_negativity(state)
            closed = pdc_dynamics.covariance_matrix(params, tau, temp)
            e_gauss = gaussian_core.log_negativity(closed)
            dev = abs(e_fock - e_gauss)
            print(
                f"fock y={y:g} T={temp:g} K tau={tau:g} n_cut={n_cut}: "
                f"|Fock - Gaussian| = {dev:.3e}, leakage = {state.leakage:.3e}, "
                f"edge_population = {state.edge_population:.3e}, "
                f"blocks = {len(state.blocks)} "
                f"(largest {max(idx.size for idx, _ in state.blocks)})"
            )
            worst_en = max(worst_en, dev)
        print(f"negativity: max |Fock - Gaussian| = {worst_en:.3e} (tolerance 1e-3)")
        ok = ok and worst_en <= 1e-3

    print("oracle-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _read_config_file(path: str) -> dict:
    """key=value lines of UTF-8 text; '#' starts a comment; keys use
    underscores."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ValidationError(f"config file {path!r} is not UTF-8 text") from None
    values = {}
    for raw in text.split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"bad config line {raw.rstrip()!r}")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


# Every config key, with the help text of the flag that sets it: --key,
# with '-' for '_'.  A config file may set any of them, since one file
# can serve several subcommands; a subcommand takes the flags it reads.
_KEY_HELP = {
    "nu1_hz": f"signal frequency in Hz (default {DEFAULT_NU1_HZ:g})",
    "omega1_bar": "dimensionless signal frequency (default 200)",
    "omega2_bar": "dimensionless idler frequency (default 400)",
    "y": "mismatch, 0 <= y < 1",
    "tau": "dimensionless interaction time",
    "temp_k": "temperature, K",
    "y_grid": "mismatch grid a:b:n",
    "temp_grid": "temperature grid a:b:n",
    "y_set": "comma list of mismatches",
    "temp_set": "comma list of temperatures",
    "t_max": "critical-temperature bracket upper bound, K",
    "out": "output path (default stdout)",
}
_FLOAT_KEYS = {"nu1_hz", "omega1_bar", "omega2_bar", "y", "tau", "temp_k", "t_max"}
_PHYSICS_KEYS = ("nu1_hz", "omega1_bar", "omega2_bar")


def _command_keys(name: str) -> tuple:
    """The config keys a subcommand reads, which are the flags it takes
    (besides --config, and --skip-fock for oracle-check)."""
    if name == "eval":
        return _PHYSICS_KEYS + ("y", "tau", "temp_k")
    if name == "oracle-check":
        return _PHYSICS_KEYS
    dataset = DATASETS[name]
    tau = () if dataset.tau is None else ("tau",)
    return _PHYSICS_KEYS + ("out",) + tuple(f for f, _ in dataset.axes) + tau + dataset.reads


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = _read_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in _KEY_HELP:
            raise ValidationError(f"unknown config key {key!r}")
    merged = {}
    for key in _KEY_HELP:
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
    dataset = DATASETS.get(args.command)
    if "tau" not in merged and dataset is not None and dataset.tau is not None:
        merged["tau"] = dataset.tau
    return RunConfig(**merged)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs more than a whole ``eval``."""
    parser = argparse.ArgumentParser(
        prog="pdc-ent",
        description="Entanglement of mismatched parametric down-conversion "
        "at finite temperature: figure datasets, point evaluation, oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*DATASETS, "eval", "oracle-check"):
        # no abbreviations: fig1 would otherwise read --y as --y-set
        command = sub.add_parser(name, allow_abbrev=False)
        for key in _command_keys(name):
            command.add_argument(
                "--" + key.replace("_", "-"), dest=key, help=_KEY_HELP[key],
                type=float if key in _FLOAT_KEYS else None,
            )
        command.add_argument("--config", help="key=value config file; flags win")
        if name == "oracle-check":
            command.add_argument("--skip-fock", action="store_true",
                                 help="run only the (fast) moment-ODE equivalence")
    parser.commands = sub.choices  # name -> that subcommand's own parser
    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The namespace the full parser gives for ``argv``.  An argv that
    starts with a subcommand goes straight to that subcommand's parser,
    as the full parser would pass it on; a flag that subcommand does not
    read is then refused under its own usage line.  Anything else (no
    argument, -h, an unknown command) takes the full parser."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        config = _resolve_config(args)
        if args.command == "eval":
            return cmd_eval(config)
        if args.command == "oracle-check":
            return cmd_oracle_check(config, skip_fock=args.skip_fock)
        return cmd_dataset(config, DATASETS[args.command])
    except (
        ValidationError,
        NumericalDomainError,
        TruncationError,
        IntegrationError,
        OSError,
        MemoryError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
