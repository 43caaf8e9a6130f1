"""Array inputs to the closed forms, and the y -> 1 edge of the core.

The closed-form birth time, the witness and the pair-route invariants take
numpy arrays of y, tau and T.  They must agree with the scalar API point by
point, refuse an array when any one of its points would be refused alone,
and give the figure datasets the bytes a scalar loop gives.  A 0-d array is
a scalar: it gives the scalar call's bits, and the entry points that take
scalars only accept it.  The y -> 1
points, and a seeded sweep over the whole domain, are checked against a
test-owned `decimal` reference.
"""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from pdc_entanglement import (
    HBAR,
    K_B,
    NumericalDomainError,
    PdcParams,
    ValidationError,
    birth_time,
    covariance_matrix,
    critical_temperature,
    det_gamma_closed_form,
    entanglement_report,
    evolve_fock,
    evolve_moments_ode,
    log_negativity,
    mean_photon_numbers,
    pair_invariants,
    phase_boundary,
    thermal_init,
    thermal_occupation,
    witness,
)
from pdc_entanglement.cli import main
from conftest import G_COUPLING


def params_at(y):
    return PdcParams(omega1_bar=200.0, omega2_bar=400.0, g=G_COUPLING, y=y)


# ---------------------------------------------------------------- reference


def ref_occupations(params, temperature):
    """(nbar1, nbar2) in Decimal from the same float omegas as the package."""
    if temperature == 0.0:
        return Decimal(0), Decimal(0)
    out = []
    for omega_bar in (params.omega1_bar, params.omega2_bar):
        beta = Decimal(HBAR) * Decimal(omega_bar * params.g) / (
            Decimal(K_B) * Decimal(temperature)
        )
        out.append(1 / (beta.exp() - 1))
    return tuple(out)


def ref_stretch(y, tau):
    """(x, sinh(x tau)/x) with x = sqrt(1 - y^2) of the exact float y."""
    y = Decimal(y)
    x = (1 - y * y).sqrt()
    z = x * Decimal(tau)
    sinh = (z.exp() - (-z).exp()) / 2
    return x, sinh / x


def ref_pair_gain(y, tau):
    """(x, m) with x = sqrt(1 - y^2) of the exact float y, m = sinh^2(x tau)/x^2."""
    x, ratio = ref_stretch(y, tau)
    return x, ratio * ratio


def ref_log_negativity(n1, n2, m):
    k = n1 + n2 + 1
    d = k * (1 + 2 * m) + ((n1 - n2) ** 2 + 4 * k * k * m * (m + 1)).sqrt()
    return max(Decimal(0), (d / ((2 * n1 + 1) * (2 * n2 + 1))).ln())


def ref_birth_time(n1, n2, x):
    s0 = n1 * n2 * (n1 + 1) * (n2 + 1)
    k = n1 + n2 + 1
    c = 4 * s0 / (k * k)
    # (sqrt(1 + c) - 1)/2, rationalized: no cancellation at tiny S0
    m_star = c / (2 * (1 + (1 + c).sqrt()))
    u = x * m_star.sqrt()
    with localcontext() as ctx:
        # ln(u + sqrt(u^2 + 1)) = asinh(u) loses about -log10(u) digits
        ctx.prec += max(0, -u.adjusted())
        return (u + (u * u + 1).sqrt()).ln() / x


# ---------------------------------------------------------------- y -> 1


@pytest.mark.parametrize("temp", [0.0, 300.0])
@pytest.mark.parametrize(
    "y, tau", [(1.0 - 5e-15, 1e6), (1.0 - 5e-15, 1e7), (1.0 - 5e-15, 3e7), (1.0 - 1e-10, 1e7)]
)
def test_log_negativity_near_unit_mismatch(y, tau, temp):
    # at y = 1 - 5e-15, x ~ 1e-7 and x*tau runs from 0.1 to 3: the retired
    # series branch for x < 1e-6 was off by up to 0.58 there.  At
    # y = 1 - 1e-10, sqrt(1 - y*y) loses the (1 - y)^2 term, which moves m
    # by 7e-9 relative at tau = 1e7; the product form keeps it
    params = params_at(y)
    with localcontext() as ctx:
        ctx.prec = 60
        _, m = ref_pair_gain(y, tau)
        want = ref_log_negativity(*ref_occupations(params, temp), m)
    for got in (
        log_negativity(covariance_matrix(params, tau, temp)),
        float(pair_invariants(params, np.array([tau]), temp).log_negativity[0]),
    ):
        assert abs(Decimal(got) - want) <= Decimal("1e-12") * max(1, want)


def test_birth_time_near_unit_mismatch():
    # x ~ 4.5e-8 and m* ~ 1e7: the retired sqrt(m*) branch dropped the
    # x^2 m*/6 term, 7.4e-9 relative
    y = 1.0 - 1e-15
    params = params_at(y)
    with localcontext() as ctx:
        ctx.prec = 60
        x, _ = ref_pair_gain(y, 0.0)
        want = ref_birth_time(*ref_occupations(params, 1e8), x)
    for got in (
        birth_time(params, 1e8).tau_e,
        float(birth_time(params, np.array([1e8])).tau_e[0]),
    ):
        assert abs(Decimal(got) - want) <= Decimal("1e-12") * want


# ---------------------------------------------------------------- domain


def sweep_points(count, seed=20261018):
    """Seeded (y, T, tau): y up to 1 - 1e-15, T from 0 to 1e8 K, tau from 0
    to the float range.  Most times are tau = z/x with z = x*tau spread
    over [1e-3, 1e3] in log and, for a quarter of them, over [0, 800] in
    line, across the end of the exp range at z = 709.8; an eighth of the
    times reach 1e300."""
    rng = np.random.default_rng(seed)
    ys = 1.0 - 10.0 ** rng.uniform(-15.0, 0.0, count)
    ys[::16] = 0.0
    temps = 10.0 ** rng.uniform(-2.0, 8.0, count)
    temps[::8] = 0.0
    xs = np.sqrt((1.0 - ys) * (1.0 + ys))
    zs = np.where(rng.random(count) < 0.25, 800.0 * rng.random(count),
                  10.0 ** rng.uniform(-3.0, 3.0, count))
    taus = zs / xs
    taus[3::8] = 10.0 ** rng.uniform(0.0, 300.0, count // 8)
    taus[5::16] = 0.0
    return list(zip(ys.tolist(), temps.tolist(), taus.tolist()))


def near_float_range(y, temp, tau):
    """Whether the point lies where an answer can leave the float range: x*tau
    near the end of the exp range, or the correlation 4 m(m+1)K^2 near
    the largest float."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = (1 - Decimal(y) ** 2).sqrt()
        if x * Decimal(tau) > 700:
            return True
        _, m = ref_pair_gain(y, tau)
        n1, n2 = ref_occupations(params_at(y), temp)
        return 4 * m * (m + 1) * (n1 + n2 + 1) ** 2 > Decimal("1e300")


def test_domain_sweep_right_or_refused():
    # every E_N, verdict and closed-form tau_E is within 1e-9 of the
    # reference, by the scalar and the array path alike, or the call
    # refuses; and refuses only near the end of the float range
    answered = refused = 0
    for y, temp, tau in sweep_points(512):
        params = params_at(y)
        try:
            report = entanglement_report(covariance_matrix(params, tau, temp))
            inv = pair_invariants(params, np.array([tau]), temp)
            e_n = (report.log_negativity, float(inv.log_negativity[0]))
            entangled = (report.entangled, bool(inv.s[0] < 0.0))
        except (NumericalDomainError, ValidationError):
            assert near_float_range(y, temp, tau), (y, temp, tau)
            refused += 1
            continue
        tau_e = (
            birth_time(params, temp).tau_e,
            float(birth_time(params, np.array([temp])).tau_e[0]),
        )
        with localcontext() as ctx:
            # the reference S = S0 - m(m+1)K^2 cancels about 2 z/ln(10) digits
            ctx.prec = int(0.87 * math.sqrt((1.0 - y) * (1.0 + y)) * tau) + 40
            n1, n2 = ref_occupations(params, temp)
            x, m = ref_pair_gain(y, tau)
            want_e_n = ref_log_negativity(n1, n2, m)
            want_tau_e = ref_birth_time(n1, n2, x)
            k = n1 + n2 + 1
            s0 = n1 * n2 * (n1 + 1) * (n2 + 1)
            want_s = s0 - m * (m + 1) * k * k
        on_boundary = abs(want_s) <= Decimal("1e-9") * (s0 + 1)
        for got in e_n:
            assert abs(Decimal(got) - want_e_n) <= Decimal("1e-9") * max(1, want_e_n)
        for got in entangled:
            assert got == (want_s < 0) or on_boundary, (y, temp, tau)
        for got in tau_e:
            assert abs(Decimal(got) - want_tau_e) <= Decimal("1e-9") * want_tau_e
        answered += 1
    assert answered > 300 and refused > 50


# ---------------------------------------------------------------- arrays


def test_array_matches_scalar_on_random_points(reference_params):
    rng = np.random.default_rng(20261018)
    ys = 0.99 * rng.random(300)
    temps = 600.0 * rng.random(300)
    taus = 20.0 * rng.random(300)
    inv = pair_invariants(reference_params, taus, temps, y=ys)
    e_n = inv.log_negativity
    tau_e = birth_time(reference_params, temps, y=ys).tau_e
    wit = witness(reference_params, taus, temps, y=ys)
    assert e_n.shape == inv.s.shape == tau_e.shape == wit.w.shape == (300,)
    for i in range(300):
        params = params_at(float(ys[i]))
        report = entanglement_report(covariance_matrix(params, taus[i], temps[i]))
        one = witness(params, taus[i], temps[i])
        # S and W are differences of terms that can be far larger than
        # themselves, so they are compared against those terms
        s_scale = inv.s0[i] + (inv.s0[i] - inv.s[i])
        w_scale = one.threshold + one.mean_pair_photons
        assert abs(e_n[i] - report.log_negativity) <= 1e-14 * max(1.0, report.log_negativity)
        assert abs(inv.s[i] - report.s) <= 1e-14 * s_scale
        assert abs(tau_e[i] - birth_time(params, temps[i]).tau_e) <= 1e-14 * tau_e[i]
        assert abs(wit.w[i] - one.w) <= 1e-14 * w_scale


def bits(result):
    """Type and exact bits of every field of a closed form's result."""
    fields = result if isinstance(result, tuple) else (result,)
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in fields]


def outcome(call):
    """The bits of ``call()``, or the type and message of its refusal."""
    try:
        return bits(call())
    except (ValidationError, NumericalDomainError) as error:
        return type(error), str(error)


# the ends of the Python-float comparison chain, each at an otherwise
# ordinary (y, tau, T): tau = 0, T = 0, y = -0.0 and the last float below
# 1 pass it; y = 1, tau = inf and T = nan are refused
CHAIN_EDGES = [
    (0.3, 0.0, 300.0),
    (0.3, 2.881, 0.0),
    (-0.0, 2.881, 300.0),
    (math.nextafter(1.0, 0.0), 2.881, 300.0),
    (1.0, 2.881, 300.0),
    (0.3, math.inf, 300.0),
    (0.3, 2.881, math.nan),
]


def test_zero_dim_arrays_give_the_scalar_bits(reference_params):
    # each point passes a seeded, non-empty subset of its inputs as 0-d
    # arrays; the result must be the scalar call's, in Python floats
    rng = np.random.default_rng(20261019)
    omega = reference_params.omega1_bar * reference_params.g
    closed_forms = {
        "covariance_matrix": lambda p, y, tau, t: (
            lambda cm: (*cm.entries.ravel().tolist(), *entanglement_report(cm))
        )(covariance_matrix(p, tau, t)),
        "pair_invariants": lambda p, y, tau, t: pair_invariants(reference_params, tau, t, y),
        "witness": lambda p, y, tau, t: witness(reference_params, tau, t, y),
        "mean_photon_numbers": lambda p, y, tau, t: mean_photon_numbers(p, tau, t),
        "det_gamma_closed_form": lambda p, y, tau, t: det_gamma_closed_form(p, tau, t),
        "birth_time": lambda p, y, tau, t: birth_time(reference_params, t, y=y),
        "bisection": lambda p, y, tau, t: birth_time(p, t, method="bisection"),
        "thermal_occupation": lambda p, y, tau, t: thermal_occupation(omega, t),
    }
    for i in range(400):
        point = (0.99 * rng.random(), 20.0 * rng.random(), 2000.0 * rng.random() * (i % 10 > 0))
        zero_dim = rng.permutation([True, rng.random() < 0.5, rng.random() < 0.5])
        wrapped = [np.array(v) if z else v for v, z in zip(point, zero_dim)]
        params, wrapped_params = params_at(point[0]), params_at(wrapped[0])
        for name, closed_form in closed_forms.items():
            if name == "bisection" and i % 8:
                continue
            want = bits(closed_form(params, *point))
            assert bits(closed_form(wrapped_params, *wrapped)) == want, (name, point, zero_dim)
    # at the chain's edges, all three inputs as Python floats, as
    # np.float64 and as 0-d arrays give the same bits or the same refusal;
    # PdcParams refuses y = 1 itself, so there the closed forms that read
    # params.y run at the reference y and those that take y meet it
    for point in CHAIN_EDGES:
        for name, closed_form in closed_forms.items():
            for kind in (float, np.float64, np.array):
                y, tau, t = (kind(v) for v in point)
                params = params_at(y) if point[0] < 1.0 else reference_params
                got = outcome(lambda: closed_form(params, y, tau, t))
                if kind is float:
                    want = got
                assert got == want, (name, point, kind)


def test_arrays_broadcast_over_a_grid(reference_params):
    ys = np.linspace(0.0, 0.9, 4)[:, None]
    temps = np.array([[0.0, 50.0, 300.0]])
    assert pair_invariants(reference_params, 2.881, temps, y=ys).s.shape == (4, 3)
    assert birth_time(reference_params, temps, y=ys).tau_e.shape == (4, 3)
    assert witness(reference_params, 2.881, temps, y=ys).w.shape == (4, 3)


@pytest.mark.parametrize(
    "arrays",
    [
        {"tau": [1.0, 2.881]},
        {"y": [0.0, 0.5]},
        {"temperature": [50.0, 300.0]},
        {"y": [[0.0], [0.5]], "temperature": [[0.0, 50.0, 300.0]]},
    ],
    ids=["tau", "y", "temperature", "y_by_temperature"],
)
def test_every_field_has_the_broadcast_shape(reference_params, arrays):
    # I1, I2, S0 and the witness threshold depend on T alone, yet every
    # field has the broadcast shape of (y, tau, T), each point the bits
    # of the scalar call
    point = {"tau": 2.881, "y": 0.3, "temperature": 300.0}
    arrays = {name: np.array(value) for name, value in arrays.items()}
    shape = np.broadcast_shapes(*(a.shape for a in arrays.values()))
    for closed_form in (pair_invariants, witness):
        result = closed_form(reference_params, **{**point, **arrays})
        assert [np.shape(v) for v in result] == [shape] * len(result)
        for index in np.ndindex(shape):
            one = {k: float(np.broadcast_to(a, shape)[index]) for k, a in arrays.items()}
            want = bits(closed_form(reference_params, **{**point, **one}))
            assert bits(tuple(float(v[index]) for v in result)) == want, (index, one)


def csv_text(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(f"{float(v):.11e}" for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def scalar_figure(name):
    """A default figure dataset from a loop over the public scalar API."""
    if name == "fig1":
        rows = [
            (t, y, birth_time(params_at(y), float(t)).tau_e)
            for t in np.linspace(0.0, 400.0, 81)
            for y in (0.0, 0.5, 0.9)
        ]
        return csv_text(["temperature_K", "y", "tau_e"], rows)
    if name == "fig2":
        rows = [
            (y, t, birth_time(params_at(float(y)), t).tau_e)
            for y in np.linspace(0.0, 0.99, 100)
            for t in (50.0, 150.0, 300.0)
        ]
        return csv_text(["y", "temperature_K", "tau_e"], rows)
    if name == "fig3":
        rows = [
            (y, t, log_negativity(covariance_matrix(params_at(float(y)), 4.543, t)))
            for y in np.linspace(0.0, 0.99, 100)
            for t in (0.0, 50.0, 300.0)
        ]
        return csv_text(["y", "temperature_K", "log_negativity"], rows)
    rows = []
    for t in np.linspace(0.0, 600.0, 121):
        wits = [witness(params_at(y), 2.881, float(t)) for y in (0.0, 0.5, 0.7)]
        rows.append([t, wits[0].threshold] + [w.mean_pair_photons for w in wits])
    header = ["temperature_K", "sqrt_s0", "n_mean_y0", "n_mean_y0.5", "n_mean_y0.7"]
    return csv_text(header, rows)


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig5"])
def test_default_figures_equal_scalar_loop(name, capsys):
    assert main([name]) == 0
    assert capsys.readouterr().out == scalar_figure(name)


def test_point_past_float_range_raises(reference_params):
    # y = 0, T = 0: m(m+1)K^2 overflows from tau ~ 177, and x*tau leaves
    # the exp range at tau ~ 710.  At omega = 1 rad/s the occupations' sum
    # overflows from T ~ 7e296 K, and each occupation from 1.4e297 K
    with pytest.raises(NumericalDomainError):
        pair_invariants(reference_params, np.array([1.0, 2.0, 200.0]), 0.0)
    with pytest.raises(NumericalDomainError):
        pair_invariants(reference_params, np.array([1.0, 800.0]), 0.0)
    with pytest.raises(NumericalDomainError):
        witness(reference_params, np.array([1.0, 800.0]), 0.0)
    slow = PdcParams(omega1_bar=1.0, omega2_bar=1.0, g=1.0)
    for temps in (7e296, np.array([300.0, 7e296]), np.array([300.0, 2e297])):
        with pytest.raises(NumericalDomainError, match="thermal occupation"):
            birth_time(slow, temps)


@pytest.mark.parametrize(
    "closed_form, tau",
    [(witness, 400.0), (mean_photon_numbers, 400.0), (det_gamma_closed_form, 200.0)],
    ids=["witness", "mean_photon_numbers", "det_gamma_closed_form"],
)
def test_overflowing_result_raises(reference_params, closed_form, tau):
    # x*tau is inside the exp range, but m = sinh^2(tau) (witness, photon numbers)
    # or m^2 (det gamma) is not; these used to return inf, and an array
    # used to warn as well
    for taus in (tau, np.array([1.0, tau])):
        with pytest.raises(NumericalDomainError, match="float range"):
            closed_form(reference_params, taus, 0.0)


@pytest.mark.parametrize(
    "tau, temps, ys",
    [
        (1.0, np.array([1.0, -1.0, 2.0]), 0.5),
        (1.0, np.array([1.0, np.nan]), 0.5),
        (1.0, 300.0, np.array([0.2, 1.0])),
        (np.array([1.0, -0.5]), 300.0, 0.5),
    ],
    ids=["negative_T", "nan_T", "unit_y", "negative_tau"],
)
def test_one_invalid_point_raises(reference_params, tau, temps, ys):
    with pytest.raises(ValidationError):
        pair_invariants(reference_params, tau, temps, y=ys)
    with pytest.raises(ValidationError):
        witness(reference_params, tau, temps, y=ys)
    if np.ndim(tau) == 0:
        with pytest.raises(ValidationError):
            birth_time(reference_params, temps, y=ys)


def test_mismatch_array_message_matches_params():
    with pytest.raises(ValidationError, match=r"mismatch y must lie in \[0, 1\), got 1\.0"):
        params_at(1.0)
    with pytest.raises(ValidationError, match=r"mismatch y must lie in \[0, 1\), got 1\.0"):
        birth_time(params_at(0.0), 300.0, y=np.array([0.5, 1.0, 0.2]))


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda p: pair_invariants(p, np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])),
            "tau of shape (2,), temperature of shape (3,)",
        ),
        (
            lambda p: witness(p, np.array([1.0, 2.0]), 300.0, y=np.array([0.1, 0.2, 0.3])),
            "tau of shape (2,), y of shape (3,)",
        ),
        (
            lambda p: birth_time(p, np.array([1.0, 2.0]), y=np.array([0.1, 0.2, 0.3])),
            "temperature of shape (2,), y of shape (3,)",
        ),
        (
            lambda p: mean_photon_numbers(p, np.ones((2, 3)), np.ones(2)),
            "tau of shape (2, 3), temperature of shape (2,)",
        ),
        (
            lambda p: thermal_occupation(np.array([1e12, 2e12]), np.array([1.0, 2.0, 3.0])),
            "omega of shape (2,), temperature of shape (3,)",
        ),
    ],
    ids=[
        "pair_invariants",
        "witness",
        "birth_time",
        "mean_photon_numbers",
        "thermal_occupation",
    ],
)
def test_shapes_that_do_not_broadcast_are_refused(reference_params, call, message):
    # named, not left to numpy's bare ValueError from inside the arithmetic
    with pytest.raises(ValidationError, match="^" + re.escape(
        f"array arguments do not broadcast together: {message}"
    ) + "$"):
        call(reference_params)


def test_bisection_refuses_arrays(reference_params):
    with pytest.raises(ValidationError):
        birth_time(reference_params, np.array([50.0, 300.0]), method="bisection")


PAIR = np.array([1.0, 2.0])


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda p, a: critical_temperature(p, a),
            "critical_temperature takes a scalar tau_i and t_max",
        ),
        (
            lambda p, a: critical_temperature(p, 2.881, t_max=a),
            "critical_temperature takes a scalar tau_i and t_max",
        ),
        (
            lambda p, a: critical_temperature(p, 2.881, t_max=a.tolist()),
            "critical_temperature takes a scalar tau_i and t_max",
        ),
        (
            lambda p, a: phase_boundary(p, a, [0.1]),
            "phase_boundary takes a scalar tau_i and t_max",
        ),
        (
            lambda p, a: phase_boundary(p, 2.881, [a / 4.0]),
            "phase_boundary takes a scalar y per y_grid entry",
        ),
        (lambda p, a: thermal_init(p, a), "thermal_init takes a scalar temperature"),
        (
            lambda p, a: evolve_moments_ode(p, 1.0, a),
            "evolve_moments_ode takes a scalar tau_end and temperature",
        ),
        (
            lambda p, a: evolve_moments_ode(p, a / 4.0, 0.5),
            "evolve_moments_ode takes a scalar tau_end and temperature",
        ),
        (
            lambda p, a: evolve_fock(p, a / 4.0, 0.5, n_cut=20),
            "evolve_fock takes a scalar tau_end, temperature and step",
        ),
    ],
    ids=[
        "critical_temperature",
        "critical_temperature_t_max",
        "critical_temperature_t_max_list",
        "phase_boundary",
        "phase_boundary_y_grid_entry",
        "thermal_init",
        "evolve_moments_ode_temperature",
        "evolve_moments_ode_tau",
        "evolve_fock",
    ],
)
def test_scalar_entry_points_refuse_arrays(reference_params, call, message):
    # named, where numpy used to raise a bare TypeError or ValueError; a
    # list is refused as an array is
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        call(reference_params, PAIR)
    # a 0-d array is a scalar, and accepted as one
    call(reference_params, PAIR[:1].reshape(()))


# ---------------------------------------------------------------- pdc-ent map


def test_map_command(capsys, tmp_path):
    out = tmp_path / "map.csv"
    argv = ["map", "--y-grid", "0:0.9:4", "--temp-grid", "0:300:3", "--tau", "2.881"]
    assert main(argv + ["--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "y,temperature_K,log_negativity,s,tau_e,w"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == 4 * 3
    assert [(r[0], r[1]) for r in rows[:3]] == [(0.0, 0.0), (0.0, 150.0), (0.0, 300.0)]
    for y, temp, e_n, s, tau_e, w in rows[1::4]:
        main(["eval", "--y", repr(y), "--tau", "2.881", "--temp-k", repr(temp)])
        report = dict(line.split("=") for line in capsys.readouterr().out.split())
        assert float(report["E_N"]) == pytest.approx(e_n, rel=1e-10, abs=1e-12)
        assert float(report["S"]) == pytest.approx(s, rel=1e-10)
        assert float(report["W"]) == pytest.approx(w, rel=1e-10)
        assert birth_time(params_at(y), temp).tau_e == pytest.approx(tau_e, rel=1e-11)


def test_map_default_grid(capsys):
    assert main(["map"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 100 * 121
