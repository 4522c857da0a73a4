"""Special functions for cylindrical and spherical mode evaluation.

Cylindrical Bessel functions J_m and derivatives, associated Legendre
functions P_j^m (Condon-Shortley phase), transverse vector spherical
harmonics, and the closed-form finite-radius Bessel overlap used as an
independent quadrature oracle.

Evaluation is delegated to scipy.special; this module adds the domain
checks, the negative-order/negative-m conventions used throughout the
package, and the closed forms scipy does not provide.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import jv, lpmv, sph_harm_y

MAX_ORDER = 200
# below this sin(theta), vsh_grid takes m Y_jm / sin(theta) from the ladder identity
_POLE_SIN = 1e-8


class DomainError(ValueError):
    """Argument outside the supported domain of a special function."""


def _checked_order_and_argument(name, m, x):
    """(int m, float x) for the scalar Bessel functions, or DomainError.

    One chained comparison checks x: NaN fails it, so it is refused along
    with +/-inf and negative values.
    """
    m = int(m)
    if abs(m) > MAX_ORDER:
        raise DomainError(f"Bessel order |m|={abs(m)} exceeds {MAX_ORDER}")
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} requires finite x >= 0")
    return m, x


def bessel_j(m, x):
    """Cylindrical Bessel function J_m(x) for integer m and one real x >= 0.

    Negative orders follow J_{-m}(x) = (-1)^m J_m(x).
    """
    m, x = _checked_order_and_argument("bessel_j", m, x)
    return jv(m, x)


def bessel_j_prime(m, x):
    """dJ_m/dx via the recurrence J'_m = (J_{m-1} - J_{m+1})/2, for one real x."""
    m, x = _checked_order_and_argument("bessel_j_prime", m, x)
    return 0.5 * (jv(m - 1, x) - jv(m + 1, x))


def bessel_j_over_x(m, x):
    """m * J_m(x) / x for one real x, with the x -> 0 limit taken by series.

    The combination appears in the rho-component of the mode vectors and
    is finite at the axis: it tends to 1/2 for m = +/-1 and 0 otherwise.
    Below x = 1e-4 a 4-term ascending series keeps full accuracy.
    """
    m, x = int(m), float(x)
    if m == 0:
        return 0.0
    if not x < 1e-4:
        return m * jv(m, x) / x
    # J_m(x)/x = sum_s (-1)^s x^(|m|-1+2s) / (2^(|m|+2s) s! (|m|+s)!)
    am = abs(m)
    sign = m * (1.0 if m > 0 else (-1.0) ** am)  # m * J_m sign rule
    acc = 0.0
    for s in range(4):
        c = (-1.0) ** s / (2.0 ** (am + 2 * s) * math.factorial(s) * math.factorial(am + s))
        acc += c * x ** (am - 1 + 2 * s)
    return sign * acc


# Tables of bessel_j_outer, keyed on (|m|, k bytes, x bytes).  The quadrature
# suite asks for each of its 15 distinct grids about 6 times over (98 calls,
# coarse and fine grids interleaved), so the cap holds one whole suite: about
# 100 MB at the default margin.
_OUTER_CACHE = {}
_OUTER_CACHE_SIZE = 16


def bessel_j_outer(m, k, x):
    """J_m(k_i x_j) on the outer product grid of scale factors and abscissas.

    Tables are cached on |m| and the exact bytes of `k` and `x`, holding at
    most ``_OUTER_CACHE_SIZE`` of them (oldest dropped first).  Negative
    orders come from J_{-m} = (-1)^m J_m, which matches ``jv(-m, .)`` bit
    for bit.  The returned array is read-only.
    """
    m = int(m)
    if abs(m) > MAX_ORDER:
        raise DomainError(f"Bessel order |m|={abs(m)} exceeds {MAX_ORDER}")
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    key = (abs(m), k.tobytes(), x.tobytes())
    table = _OUTER_CACHE.get(key)
    if table is None:
        table = jv(abs(m), np.outer(k, x))
        table.setflags(write=False)
        if len(_OUTER_CACHE) >= _OUTER_CACHE_SIZE:
            del _OUTER_CACHE[next(iter(_OUTER_CACHE))]
        _OUTER_CACHE[key] = table
    if m < 0 and m % 2:
        table = -table
        table.setflags(write=False)
    return table


def lommel_overlap(m, k, k2, R):
    """Closed form of the finite Hankel overlap  int_0^R J_m(k r) J_m(k2 r) r dr.

    Requires k != k2; use :func:`lommel_overlap_equal` on the diagonal.
    """
    if k <= 0 or k2 <= 0 or R <= 0:
        raise DomainError("lommel_overlap requires k, k2, R > 0")
    if k == k2:
        raise DomainError("k == k2: use lommel_overlap_equal")
    num = k2 * bessel_j(m, k * R) * bessel_j_prime(m, k2 * R) - k * bessel_j(
        m, k2 * R
    ) * bessel_j_prime(m, k * R)
    return R * num / (k**2 - k2**2)


def lommel_overlap_equal(m, k, R):
    """int_0^R J_m(k r)^2 r dr, the equal-argument (diagonal) Lommel form."""
    if k <= 0 or R <= 0:
        raise DomainError("lommel_overlap_equal requires k, R > 0")
    x = k * R
    return 0.5 * R**2 * (bessel_j_prime(m, x) ** 2 + (1.0 - m**2 / x**2) * bessel_j(m, x) ** 2)


def assoc_legendre(j, m, x):
    """Associated Legendre P_j^m(x), Condon-Shortley phase, 0 <= m <= j, one real x."""
    j, m = int(j), int(m)
    if m < 0 or j < 0 or m > j:
        raise DomainError("assoc_legendre requires 0 <= m <= j")
    if j > MAX_ORDER:
        raise DomainError(f"degree j={j} exceeds {MAX_ORDER}")
    x = float(x)
    if abs(x) > 1:
        raise DomainError("assoc_legendre requires |x| <= 1")
    return lpmv(m, j, x)


def assoc_legendre_prime(j, m, x):
    """dP_j^m/dx at one real x in (-1, 1), via (x^2-1) P' = j x P_j^m - (j+m) P_{j-1}^m."""
    j, m = int(j), int(m)
    if m < 0 or m > j:
        raise DomainError("assoc_legendre_prime requires 0 <= m <= j")
    x = float(x)
    if abs(x) >= 1:
        raise DomainError("assoc_legendre_prime requires |x| < 1")
    if j == 0:
        return 0.0
    pjm1 = lpmv(m, j - 1, x) if j - 1 >= m else 0.0
    return (j * x * lpmv(m, j, x) - (j + m) * pjm1) / (x * x - 1.0)


def spherical_harmonic(j, m, theta, phi):
    """Scalar Y_jm(theta, phi), orthonormal on the sphere, Condon-Shortley."""
    j, m = int(j), int(m)
    if abs(m) > j:
        raise DomainError("spherical_harmonic requires |m| <= j")
    return sph_harm_y(j, m, theta, phi)


def vsh_grid(j, m, theta, phi):
    """(Y^(E), Y^(M)) transverse vector spherical harmonics on angle grids.

    Y^(E)_jm = grad_n Y_jm / (j(j+1)),  Y^(M)_jm = n x Y^(E)_jm, with theta
    and phi broadcast against each other.  The theta derivative comes from
    the ladder identity.  So does the m Y_jm / sin(theta) term where
    sin(theta) < _POLE_SIN, through m cot(theta) Y_jm; the values are finite
    and exact on the poles too.  Returns two complex arrays shaped
    broadcast(theta, phi).shape + (3,), Cartesian components.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    st, ct = np.sin(theta), np.cos(theta)
    # dY/dtheta = up - dn and m cot(theta) Y_jm = -(up + dn)
    up = dn = 0.0
    if m + 1 <= j:
        up = 0.5 * math.sqrt((j - m) * (j + m + 1)) * sph_harm_y(
            j, m + 1, theta, phi
        ) * np.exp(-1j * phi)
    if m - 1 >= -j:
        dn = 0.5 * math.sqrt((j + m) * (j - m + 1)) * sph_harm_y(
            j, m - 1, theta, phi
        ) * np.exp(1j * phi)
    dth = np.zeros(theta.shape, dtype=complex) + up - dn
    if m == 0:
        dphi_over_sin = np.zeros_like(dth)
    else:
        pole = st < _POLE_SIN
        dphi_over_sin = np.where(
            pole,
            -1j * (up + dn) / np.where(pole, ct, 1.0),
            1j * m * sph_harm_y(j, m, theta, phi) / np.where(pole, 1.0, st),
        )
    that = np.stack([ct * np.cos(phi), ct * np.sin(phi), -st], axis=-1)
    phat = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(theta)], axis=-1)
    ye = (dth[..., None] * that + dphi_over_sin[..., None] * phat) / (j * (j + 1))
    n_hat = np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)
    ym = np.cross(n_hat, ye)
    return ye, ym
