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


class DomainError(ValueError):
    """Argument outside the supported domain of a special function."""


def bessel_j(m, x):
    """Cylindrical Bessel function J_m(x) for integer m, x >= 0.

    Negative orders follow J_{-m}(x) = (-1)^m J_m(x).
    """
    m = int(m)
    if abs(m) > MAX_ORDER:
        raise DomainError(f"Bessel order |m|={abs(m)} exceeds {MAX_ORDER}")
    x = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(x)) or np.any(x < 0):
        raise DomainError("bessel_j requires finite x >= 0")
    return jv(m, x)


def bessel_j_prime(m, x):
    """dJ_m/dx via the recurrence J'_m = (J_{m-1} - J_{m+1})/2."""
    m = int(m)
    if abs(m) > MAX_ORDER:
        raise DomainError(f"Bessel order |m|={abs(m)} exceeds {MAX_ORDER}")
    x = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(x)) or np.any(x < 0):
        raise DomainError("bessel_j_prime requires finite x >= 0")
    return 0.5 * (jv(m - 1, x) - jv(m + 1, x))


def bessel_j_over_x(m, x, eps=1e-4):
    """m * J_m(x) / x, with the x -> 0 limit taken by series.

    The combination appears in the rho-component of the mode vectors and
    is finite at the axis: it tends to 1/2 for m = +/-1 and 0 otherwise.
    Below `eps` a 4-term ascending series keeps full accuracy.
    """
    m = int(m)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    out = np.zeros_like(x)
    if m != 0:
        small = x < eps
        big = ~small
        if np.any(big):
            out[big] = m * jv(m, x[big]) / x[big]
        if np.any(small):
            # J_m(x)/x = sum_s (-1)^s x^(|m|-1+2s) / (2^(|m|+2s) s! (|m|+s)!)
            am = abs(m)
            sign = m * (1.0 if m > 0 else (-1.0) ** am)  # m * J_m sign rule
            xs = x[small]
            acc = np.zeros_like(xs)
            for s in range(4):
                c = (-1.0) ** s / (2.0 ** (am + 2 * s) * math.factorial(s) * math.factorial(am + s))
                acc += c * xs ** (am - 1 + 2 * s)
            out[small] = sign * acc
    return out[0] if scalar else out


def bessel_j_outer(m, k, x):
    """J_m(k_i x_j) on the outer product grid of scale factors and abscissas."""
    m = int(m)
    if abs(m) > MAX_ORDER:
        raise DomainError(f"Bessel order |m|={abs(m)} exceeds {MAX_ORDER}")
    return jv(m, np.outer(k, x))


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
    """Associated Legendre P_j^m(x) with Condon-Shortley phase, 0 <= m <= j."""
    j, m = int(j), int(m)
    if m < 0 or j < 0 or m > j:
        raise DomainError("assoc_legendre requires 0 <= m <= j")
    if j > MAX_ORDER:
        raise DomainError(f"degree j={j} exceeds {MAX_ORDER}")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1):
        raise DomainError("assoc_legendre requires |x| <= 1")
    return lpmv(m, j, x)


def assoc_legendre_prime(j, m, x):
    """dP_j^m/dx on (-1, 1), via (x^2-1) P' = j x P_j^m - (j+m) P_{j-1}^m."""
    j, m = int(j), int(m)
    if m < 0 or m > j:
        raise DomainError("assoc_legendre_prime requires 0 <= m <= j")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= 1):
        raise DomainError("assoc_legendre_prime requires |x| < 1")
    if j == 0:
        return np.zeros_like(x)
    pj = lpmv(m, j, x)
    pjm1 = lpmv(m, j - 1, x) if j - 1 >= m else np.zeros_like(x)
    return (j * x * pj - (j + m) * pjm1) / (x**2 - 1.0)


def assoc_legendre_dkz(j, m, k_z, omega, c=1.0):
    """d/dk_z of P_j^m(c k_z / omega) at fixed omega: (c/omega) P_j^m'(x)."""
    if omega <= 0:
        raise DomainError("omega must be positive")
    x = c * k_z / omega
    if abs(x) >= 1:
        raise DomainError("requires |c k_z| < omega")
    return (c / omega) * float(assoc_legendre_prime(j, m, x))


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
    the ladder identity, so the values stay finite as long as the grid
    avoids the exact poles.  Returns two complex arrays shaped
    broadcast(theta, phi).shape + (3,), Cartesian components.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    st, ct = np.sin(theta), np.cos(theta)
    dth = np.zeros(theta.shape, dtype=complex)
    if m + 1 <= j:
        dth = dth + 0.5 * math.sqrt((j - m) * (j + m + 1)) * sph_harm_y(
            j, m + 1, theta, phi
        ) * np.exp(-1j * phi)
    if m - 1 >= -j:
        dth = dth - 0.5 * math.sqrt((j + m) * (j - m + 1)) * sph_harm_y(
            j, m - 1, theta, phi
        ) * np.exp(1j * phi)
    if m == 0:
        dphi_over_sin = np.zeros_like(dth)
    else:
        dphi_over_sin = 1j * m * sph_harm_y(j, m, theta, phi) / st
    that = np.stack([ct * np.cos(phi), ct * np.sin(phi), -st], axis=-1)
    phat = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(theta)], axis=-1)
    ye = (dth[..., None] * that + dphi_over_sin[..., None] * phat) / (j * (j + 1))
    n_hat = np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)
    ym = np.cross(n_hat, ye)
    return ye, ym


def vector_spherical_harmonic(kind, j, m, direction):
    """Transverse vector spherical harmonic Y^(E) or Y^(M) at a unit direction.

    One direction of :func:`vsh_grid`, with the argument checks.
    Returns a complex Cartesian 3-vector orthogonal to `direction`.
    """
    if kind not in ("E", "M"):
        raise DomainError("kind must be 'E' or 'M'")
    j, m = int(j), int(m)
    if j < 1:
        raise DomainError("no transverse j = 0 harmonic")
    if abs(m) > j:
        raise DomainError("|m| <= j required")
    n = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise DomainError("direction must be unit-normalized to 1e-12")
    theta = math.acos(np.clip(n[2], -1.0, 1.0))
    phi = math.atan2(n[1], n[0])
    if math.sin(theta) < 1e-9:
        # Y_jm / sin(theta) is 0/0 exactly at the poles; nudge off-axis.
        theta = 1e-9 if theta < 1.0 else math.pi - 1e-9
    ye, ym = vsh_grid(j, m, theta, phi)
    return ye if kind == "E" else ym
