"""The benchmark's workloads: seeded inputs, the calls into the package, and
the checks of every output.

A workload builds a fixed cycle of rounds of items from its seed and
serves them round by round, from the start again once the cycle is done,
so a run attempts the same items whatever its length.  ``Item.run`` makes
only package calls and is the timed part; ``Item.check`` compares the
output with the benchmark's own reference and returns a list of
``Failure``s (empty when the item is right).  Items are hashable values;
equal items are the same item.  Every call goes through a module attribute
(``pdc_dynamics.covariance_matrix``, not an imported name), so a traced
pass sees it.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

import reference as ref
from pdc_entanglement import analysis, cli, fock_oracle, gaussian_core, pdc_dynamics

# the CLI's default reference point, so phase_map and figures share parameters
OMEGA1_BAR = 200.0
OMEGA2_BAR = 400.0
G = math.pi * 1e-2 * 3.12e10
T_MAX = 2000.0  # critical-temperature bracket, the library default

TAUS = (2.881, 4.543, 8.0, 20.0)
# The seed's E_N, S and verdict lose every digit once sinh(x tau) is large
# (ROADMAP item 1).  Failures of those checks at tau >= this value are the
# known defect: they count in `failed` and pass_frac but do not make a run
# incorrect.  Any other failure does.
KNOWN_DEFECT_MIN_TAU = 4.5
KNOWN_DEFECT_CHECKS = frozenset({"E_N", "S", "verdict"})

EN_REL = Decimal("1e-9")  # E_N: relative, floor 1
VALUE_REL = Decimal("1e-9")  # S, W, tau_E, n_mean, sqrt(S0): relative to their scale
TC_BRACKET = 1e-5  # T_c must sit inside T_c*(1 -+ this) by the reference sign
BISECTION_ABS = 1e-9  # bisection birth time against the closed form
ODE_ABS = 1e-8  # moment ODE against the closed-form CM, entrywise
FOCK_EN_ABS = 1e-3  # Fock negativity against the closed-form E_N


@dataclass(frozen=True)
class Failure:
    check: str
    tau: float

    @property
    def known(self) -> bool:
        return self.check in KNOWN_DEFECT_CHECKS and self.tau >= KNOWN_DEFECT_MIN_TAU


def params(y: float) -> pdc_dynamics.PdcParams:
    return pdc_dynamics.PdcParams(omega1_bar=OMEGA1_BAR, omega2_bar=OMEGA2_BAR, g=G, y=float(y))


def ref_thermal(temperature: float):
    return ref.thermal_pair(OMEGA1_BAR * G, OMEGA2_BAR * G, temperature)


def ref_point(y: float, tau: float, temperature: float) -> ref.RefPoint:
    _, m = ref.pair_gain(y, tau)
    return ref.point(*ref_thermal(temperature), m)


def ref_birth_time(y: float, temperature: float) -> Decimal:
    return ref.birth_time(*ref_thermal(temperature), ref.stretch(y))


def ref_s(m: Decimal, temperature: float) -> Decimal:
    return ref.point(*ref_thermal(temperature), m).s


def check_state(fails, tau, r: ref.RefPoint, e_n, s, entangled, w) -> None:
    """The checks every (y, tau, T) state gets: E_N, S, verdict and W."""
    if not ref.close(e_n, r.log_negativity, EN_REL):
        fails.append(Failure("E_N", tau))
    if not ref.within(s, r.s, VALUE_REL * r.s_scale):
        fails.append(Failure("S", tau))
    if entangled != r.entangled and not r.verdict_is_marginal():
        fails.append(Failure("verdict", tau))
    if not ref.within(w, r.witness, VALUE_REL * (r.s0.sqrt() + r.n_mean)):
        fails.append(Failure("W", tau))


def check_t_c(fails, y: float, tau: float, t_c) -> None:
    """T_c must bracket the reference sign change of S; no root must mean
    the reference finds none in [0, T_MAX]."""
    _, m = ref.pair_gain(y, tau)
    if t_c is None:
        if ref_s(m, 0.0) < 0 and ref_s(m, T_MAX) >= 0:
            fails.append(Failure("T_c", tau))
    elif not (ref_s(m, t_c * (1 - TC_BRACKET)) < 0 < ref_s(m, t_c * (1 + TC_BRACKET))):
        fails.append(Failure("T_c", tau))


class Workload:
    """A fixed cycle of rounds, served in order and then again."""

    name: str
    cycle: list[list]  # built from the seed by each workload's __init__
    _served = 0

    def next_round(self) -> list:
        items = self.cycle[self._served % len(self.cycle)]
        self._served += 1
        return items

    def warmup(self) -> None:
        """Run and check the first round once, outside the measurement."""
        for item in self.cycle[0]:
            item.check(item.run())


def stratified(rng, n: int) -> np.ndarray:
    """n jittered points in [0, 1), one per cell of width 1/n, in order."""
    return (np.arange(n) + rng.random(n)) / n


# ---------------------------------------------------------------- phase_map

N_Y = 48  # y cells per tau
N_T = 24  # T cells per row
BISECT_EVERY = 8  # every 8th T point of a row also runs the bisection route


@dataclass(frozen=True)
class Row:
    """One (tau, y) row of the phase map: every T point, T_c and a few
    bisection birth times."""

    tau: float
    y: float
    temps: tuple

    @property
    def points(self) -> int:
        return len(self.temps)

    def run(self):
        p = params(self.y)
        states = []
        for temp in self.temps:
            cm = pdc_dynamics.covariance_matrix(p, self.tau, temp)
            report = gaussian_core.entanglement_report(cm)
            wit = analysis.witness(p, self.tau, temp)
            bte = analysis.birth_time(p, temp)
            states.append((report, wit.w, bte.tau_e))
        bisected = [
            analysis.birth_time(p, self.temps[j], method="bisection").tau_e
            for j in range(0, len(self.temps), BISECT_EVERY)
        ]
        boundary = analysis.phase_boundary(p, self.tau, [self.y], t_max=T_MAX)
        return states, bisected, boundary

    def check(self, out) -> list[Failure]:
        states, bisected, boundary = out
        fails: list[Failure] = []
        x, m = ref.pair_gain(self.y, self.tau)
        for temp, (report, w, tau_e) in zip(self.temps, states):
            nbar1, nbar2 = ref_thermal(temp)
            r = ref.point(nbar1, nbar2, m)
            check_state(fails, self.tau, r, report.log_negativity, report.s, report.entangled, w)
            if not ref.close(tau_e, ref.birth_time(nbar1, nbar2, x), VALUE_REL):
                fails.append(Failure("tau_E", self.tau))
        for j, tau_b in zip(range(0, len(self.temps), BISECT_EVERY), bisected):
            if not abs(tau_b - states[j][2]) <= BISECTION_ABS:
                fails.append(Failure("bisection", self.tau))
        check_t_c(fails, self.y, self.tau, boundary[0].t_c if boundary else None)
        return fails


class PhaseMap(Workload):
    """Closed-form sweep over y in [0, 0.99] x T in [0, 600] K x TAUS.

    The cycle is one sweep over the N_Y y cells in seeded order.  A round
    is one y cell at every tau, so each round weighs the taus equally.
    """

    name = "phase_map"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.cycle = []
        for i in rng.permutation(N_Y):
            rows = []
            for tau in TAUS:
                y = 0.99 * (i + rng.random()) / N_Y
                temps = 600.0 * stratified(rng, N_T)
                rows.append(Row(tau=tau, y=float(y), temps=tuple(float(t) for t in temps)))
            self.cycle.append(rows)


# ---------------------------------------------------------------- figures

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5")
FIG3_TAU = 4.543  # the interaction times the CLI uses by default
FIG4_TAU = 2.881
FIG5_TAU = 2.881
FIG5_Y = (0.0, 0.5, 0.7)
EVALS_PER_TAU = 6  # 24 evals and 5 datasets a round: p50 sits well inside the evals
# per tau, the eval points of a cycle fill a jittered (y, T) grid of this
# many cells, so the share of them in the known-defect region depends on
# the seed as little as it can; the cycle is 20 * 12 / EVALS_PER_TAU = 40
# rounds
EVAL_GRID = (20, 12)


def _parse_csv(text: str):
    lines = text.splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


FIG_SHAPES = {  # header, data rows at the default grids
    "fig1": (["temperature_K", "y", "tau_e"], 243),
    "fig2": (["y", "temperature_K", "tau_e"], 300),
    "fig3": (["y", "temperature_K", "log_negativity"], 300),
    "fig4": (["y", "t_c_kelvin"], None),  # rows with no root are omitted
    "fig5": (["temperature_K", "sqrt_s0", "n_mean_y0", "n_mean_y0.5", "n_mean_y0.7"], 121),
}


def check_figure(name: str, text: str) -> list[Failure]:
    """Every row of a default-grid dataset against the reference."""
    header, rows = _parse_csv(text)
    want_header, want_rows = FIG_SHAPES[name]
    if header != want_header or (want_rows is not None and len(rows) != want_rows):
        return [Failure("shape", 0.0)]
    fails: list[Failure] = []
    if name in ("fig1", "fig2"):
        for row in rows:
            temp, y = (row[0], row[1]) if name == "fig1" else (row[1], row[0])
            if not ref.close(row[2], ref_birth_time(y, temp), VALUE_REL):
                fails.append(Failure("tau_E", 0.0))
    elif name == "fig3":
        for y, temp, e_n in rows:
            if not ref.close(e_n, ref_point(y, FIG3_TAU, temp).log_negativity, EN_REL):
                fails.append(Failure("E_N", FIG3_TAU))
    elif name == "fig4":
        present = {round(y, 9): t_c for y, t_c in rows}
        for y in np.linspace(0.0, 0.9, 19):
            check_t_c(fails, float(y), FIG4_TAU, present.get(round(float(y), 9)))
    else:
        gains = [ref.pair_gain(y, FIG5_TAU)[1] for y in FIG5_Y]
        for temp, sqrt_s0, *n_means in rows:
            thermal = ref_thermal(temp)
            points = [ref.point(*thermal, m) for m in gains]
            if not ref.close(sqrt_s0, points[0].s0.sqrt(), VALUE_REL):
                fails.append(Failure("sqrt_s0", FIG5_TAU))
            for n_mean, r in zip(n_means, points):
                if not ref.close(n_mean, r.n_mean, VALUE_REL):
                    fails.append(Failure("n_mean", FIG5_TAU))
    return fails


def _call_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@dataclass(frozen=True)
class FigureCall:
    """One default-grid dataset subcommand."""

    name: str
    owner: "Figures"

    @property
    def points(self) -> int:
        return self.owner.points.get(self.name, 0)

    def run(self):
        return _call_cli([self.name])

    def check(self, out) -> list[Failure]:
        code, text = out
        if code != 0:
            return [Failure("exit", 0.0)]
        return self.owner.verdict(self.name, text)


@dataclass(frozen=True)
class EvalCall:
    """One `eval` point; exit 0 means entangled, 1 separable."""

    y: float
    tau: float
    temp: float
    points = 1

    def run(self):
        return _call_cli(
            ["eval", "--y", repr(self.y), "--tau", repr(self.tau), "--temp-k", repr(self.temp)]
        )

    def check(self, out) -> list[Failure]:
        code, text = out
        values = dict(line.split("=", 1) for line in text.splitlines())
        entangled = values.get("verdict") == "entangled"
        fails: list[Failure] = []
        if code != (0 if entangled else 1):
            fails.append(Failure("exit", self.tau))
        r = ref_point(self.y, self.tau, self.temp)
        check_state(fails, self.tau, r, float(values["E_N"]), float(values["S"]),
                    entangled, float(values["W"]))
        return fails


class Figures(Workload):
    """fig1..fig5 at their default grids plus seeded eval points, in-process
    through cli.main.

    Every round calls the five datasets and EVALS_PER_TAU eval points at
    each tau.  The first output of each dataset is checked row by row
    against the reference; every repeat must be byte-identical to it and
    shares its verdict.
    """

    name = "figures"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.first: dict[str, tuple[str, list[Failure]]] = {}
        self.points: dict[str, int] = {}
        n_y, n_t = EVAL_GRID
        n_rounds = n_y * n_t // EVALS_PER_TAU
        evals = []  # per tau, the grid's points in seeded order
        for tau in TAUS:
            cells = [(i, j) for i in range(n_y) for j in range(n_t)]
            points = [
                EvalCall(y=float(0.99 * (i + rng.random()) / n_y), tau=tau,
                         temp=float(600.0 * (j + rng.random()) / n_t))
                for i, j in cells
            ]
            evals.append([points[k] for k in rng.permutation(len(points))])
        datasets = [FigureCall(name, self) for name in FIGURES]
        self.cycle = [
            datasets + [e for per_tau in evals for e in per_tau[r * EVALS_PER_TAU:(r + 1) * EVALS_PER_TAU]]
            for r in range(n_rounds)
        ]

    def verdict(self, name: str, text: str) -> list[Failure]:
        if name not in self.first:
            self.first[name] = (text, check_figure(name, text))
            self.points[name] = text.count("\n") - 1
        first_text, fails = self.first[name]
        if text != first_text:
            return fails + [Failure("determinism", 0.0)]
        return list(fails)


# ---------------------------------------------------------------- oracle

# per n_cut: (T_max in K, tau) inside the oracle's limits, nbar <= 2 and
# n_cut >= 8(1 + nbar), with the Fock truncation error on E_N below half the
# 1e-3 tolerance.  The seed draws y and T; tau is fixed, because the cost of
# the RK4 matrix power depends on the binary digits of tau/step, and a
# seeded tau would change the work per round by up to 2x between seeds.
FOCK_BOXES = {20: (1.0, 0.4), 26: (1.0, 0.5), 30: (1.2, 0.55)}
# two n_cut = 26 cases a round: a 30 s run holds 5-6 rounds, so the 11th
# slowest item (item_tail_ms) falls mid-way through the n_cut = 26 cases
# rather than at their edge
FOCK_PER_ROUND = {20: 1, 26: 2, 30: 1}
ODE_PER_ROUND = 12  # keeps the ODE cases a clear majority, so p50 sits inside them
ORACLE_ROUNDS = 4  # rounds in a cycle, about 20 s
FOCK_STEP = 1e-4


@dataclass(frozen=True)
class OdeCase:
    y: float
    tau: float
    temp: float
    points = 1
    calibration = "ld"  # extended-precision matrix powers: scaled by the ld kernel

    def run(self):
        p = params(self.y)
        traj = fock_oracle.evolve_moments_ode(p, self.tau, self.temp)
        closed = pdc_dynamics.covariance_matrix(p, self.tau, self.temp)
        return float(np.max(np.abs(traj.final().entries - closed.entries)))

    def check(self, dev) -> list[Failure]:
        return [] if dev <= ODE_ABS else [Failure("ode", self.tau)]


@dataclass(frozen=True)
class FockCase:
    y: float
    tau: float
    temp: float
    n_cut: int
    points = 1
    calibration = "blas"  # dense BLAS work: scaled by the BLAS kernel

    def run(self):
        p = params(self.y)
        state = fock_oracle.evolve_fock(p, self.tau, self.temp, n_cut=self.n_cut, step=FOCK_STEP)
        e_fock = fock_oracle.fock_log_negativity(state)
        physical = gaussian_core.physicality_check(fock_oracle.moments_from_fock(state))
        e_closed = gaussian_core.log_negativity(
            pdc_dynamics.covariance_matrix(p, self.tau, self.temp))
        return e_fock, e_closed, physical

    def check(self, out) -> list[Failure]:
        e_fock, e_closed, physical = out
        fails = []
        if not abs(e_fock - e_closed) <= FOCK_EN_ABS:
            fails.append(Failure("fock_E_N", self.tau))
        if not physical:
            fails.append(Failure("fock_physical", self.tau))
        return fails


class Oracle(Workload):
    """Moment-ODE cases over seeded (y, T, tau), plus FOCK_PER_ROUND Fock
    cases per n_cut each round."""

    name = "oracle"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        strata = ODE_PER_ROUND * ORACLE_ROUNDS
        self.cycle = []
        for r in range(ORACLE_ROUNDS):
            cases = []
            for n_cut, (t_hi, tau) in FOCK_BOXES.items():
                for _ in range(FOCK_PER_ROUND[n_cut]):
                    cases.append(FockCase(y=float(0.9 * rng.random()), tau=tau,
                                          temp=float(t_hi * rng.random()), n_cut=n_cut))
            # tau stratified over [0.5, 2.881], since an ODE case costs about
            # tau: the cycle has one case per stratum, and each round one per
            # twelfth of the range, so rounds cost about the same
            for k in range(ODE_PER_ROUND):
                tau = 0.5 + (2.881 - 0.5) * (k * ORACLE_ROUNDS + r + rng.random()) / strata
                cases.append(OdeCase(y=float(0.9 * rng.random()), tau=float(tau),
                                     temp=float(300.0 * rng.random())))
            self.cycle.append(cases)

    def warmup(self) -> None:
        """One small Fock case and one ODE case, outside the measurement:
        the first dense solve pays BLAS thread start-up and page faults."""
        for case in (FockCase(0.0, 0.3, 0.0, 20), OdeCase(0.0, 0.5, 0.0)):
            case.check(case.run())


WORKLOADS = {cls.name: cls for cls in (PhaseMap, Figures, Oracle)}
