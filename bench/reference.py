"""High-precision reference for the closed forms, owned by the benchmark.

Everything here is computed with the standard-library ``decimal`` module at
80 significant digits from the pair state (n1, n2, m, K) of a thermal input
squeezed by the mismatched down-conversion:

    x = sqrt(1 - y^2),  m = sinh^2(x tau) / x^2,
    nbar_j = 1 / (exp(hbar omega_j / (k_B T)) - 1),  K = nbar1 + nbar2 + 1,
    n_j = nbar_j + m K,  c^2 = m (m + 1) K^2.

The covariance matrix of that state is in standard form, so the smaller
partially transposed symplectic eigenvalue is

    nu_- = (n1 + n2 + 1 - sqrt((n1 - n2)^2 + 4 c^2)) / 2

and E_N = max(0, -ln 2 nu_-), S = S0 - c^2 with S0 = nbar1 nbar2 (nbar1+1)
(nbar2+1).  At 80 digits the subtraction in nu_- keeps more than 40 digits
for every tau the benchmark uses (tau <= 20).  No code of the package is
imported: inputs are plain floats and results are Decimals.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal

CTX = Context(prec=80)
HBAR = Decimal("1.054571817e-34")  # J s, CODATA 2018 exact
K_B = Decimal("1.380649e-23")  # J/K, CODATA 2018 exact
ZERO = Decimal(0)
ONE = Decimal(1)


def _d(value) -> Decimal:
    """Exact decimal image of a float."""
    return Decimal(float(value))


def occupation(omega, temperature) -> Decimal:
    """Bose-Einstein occupation of a mode of angular frequency omega (rad/s)."""
    if temperature == 0.0:
        return ZERO
    beta = CTX.divide(CTX.multiply(HBAR, _d(omega)), CTX.multiply(K_B, _d(temperature)))
    return CTX.divide(ONE, CTX.subtract(CTX.exp(beta), ONE))


def stretch(y) -> Decimal:
    """x = sqrt(1 - y^2)."""
    return CTX.sqrt(CTX.subtract(ONE, CTX.multiply(_d(y), _d(y))))


def pair_gain(y, tau) -> tuple[Decimal, Decimal]:
    """(x, m) with x = sqrt(1 - y^2) and m = sinh^2(x tau)/x^2."""
    x = stretch(y)
    if x == 0:
        return x, CTX.multiply(_d(tau), _d(tau))
    z = CTX.multiply(x, _d(tau))
    ez = CTX.exp(z)
    sinh = CTX.divide(CTX.subtract(ez, CTX.divide(ONE, ez)), 2)
    return x, CTX.divide(CTX.multiply(sinh, sinh), CTX.multiply(x, x))


@dataclass(frozen=True)
class RefPoint:
    """Reference values at one (y, tau, T) point."""

    nbar1: Decimal
    nbar2: Decimal
    m: Decimal
    big_k: Decimal
    s0: Decimal
    s: Decimal
    s_scale: Decimal  # S0 + c^2: the size of the two terms S subtracts
    log_negativity: Decimal
    n_mean: Decimal  # (n1 + n2) / 2
    witness: Decimal

    @property
    def entangled(self) -> bool:
        return self.s < 0

    def verdict_is_marginal(self, rel=1e-9) -> bool:
        """True when |S| is within rel of its scale, where either verdict
        is acceptable for a floating-point evaluation."""
        return abs(self.s) <= Decimal(rel) * self.s_scale


def thermal_pair(omega1, omega2, temperature) -> tuple[Decimal, Decimal]:
    return occupation(omega1, temperature), occupation(omega2, temperature)


def point(nbar1: Decimal, nbar2: Decimal, m: Decimal) -> RefPoint:
    """All reference quantities from the pair state (nbar1, nbar2, m)."""
    c = CTX
    big_k = c.add(c.add(nbar1, nbar2), ONE)
    gain = c.multiply(m, big_k)
    n1 = c.add(nbar1, gain)
    n2 = c.add(nbar2, gain)
    c2 = c.multiply(c.multiply(m, c.add(m, ONE)), c.multiply(big_k, big_k))
    s0 = c.multiply(c.multiply(nbar1, nbar2), c.multiply(c.add(nbar1, ONE), c.add(nbar2, ONE)))
    diff = c.subtract(n1, n2)
    root = c.sqrt(c.add(c.multiply(diff, diff), c.multiply(4, c2)))
    nu_minus = c.divide(c.subtract(c.add(c.add(n1, n2), ONE), root), 2)
    e_n = max(ZERO, c.minus(c.ln(c.multiply(2, nu_minus))))
    n_mean = c.divide(c.add(n1, n2), 2)
    return RefPoint(
        nbar1=nbar1,
        nbar2=nbar2,
        m=m,
        big_k=big_k,
        s0=s0,
        s=c.subtract(s0, c2),
        s_scale=c.add(s0, c2),
        log_negativity=e_n,
        n_mean=n_mean,
        witness=c.subtract(c.sqrt(s0), n_mean),
    )


def birth_time(nbar1: Decimal, nbar2: Decimal, x: Decimal) -> Decimal:
    """tau_E solving m(m+1)K^2 = S0, i.e. m* = (sqrt(1 + 4 S0/K^2) - 1)/2."""
    c = CTX
    s0 = c.multiply(c.multiply(nbar1, nbar2), c.multiply(c.add(nbar1, ONE), c.add(nbar2, ONE)))
    if s0 == 0:
        return ZERO
    big_k = c.add(c.add(nbar1, nbar2), ONE)
    ratio = c.divide(c.multiply(4, s0), c.multiply(big_k, big_k))
    m_star = c.divide(c.subtract(c.sqrt(c.add(ONE, ratio)), ONE), 2)
    if x == 0:
        return c.sqrt(m_star)
    arg = c.multiply(x, c.sqrt(m_star))
    asinh = c.ln(c.add(arg, c.sqrt(c.add(c.multiply(arg, arg), ONE))))
    return c.divide(asinh, x)


def within(value, ref: Decimal, tol) -> bool:
    """|value - ref| <= tol, compared in decimal; NaN and inf never pass."""
    try:
        got = Decimal(float(value))
    except (TypeError, ValueError, OverflowError):
        return False
    return got.is_finite() and abs(CTX.subtract(got, ref)) <= Decimal(tol)


def close(value, ref: Decimal, rel, floor=1) -> bool:
    """|value - ref| <= rel * max(floor, |ref|)."""
    return within(value, ref, CTX.multiply(Decimal(rel), max(Decimal(floor), abs(ref))))
