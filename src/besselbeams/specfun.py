"""Special functions for cylindrical and spherical mode evaluation.

Cylindrical Bessel functions J_m and derivatives, outer-product J_m tables
memoized in a dict the caller owns, transverse vector spherical harmonics,
and the closed-form finite-radius Bessel overlap used as an independent
quadrature oracle.

Evaluation is delegated to scipy.special; this module adds the domain
checks, the negative-order/negative-m conventions used throughout the
package, and the closed forms scipy does not provide.  Each function has one
route.  The point Bessel functions (one x per call) go through the compiled
scalar kernel ``scipy.special.cython_special.jv`` and return a Python
``float``, which equals the ufunc's value bit for bit at about a quarter of
its per-call cost and keeps NumPy-scalar arithmetic out of the per-point field
path.  The harmonics go through the ``sph_harm_y`` ufunc on angle arrays; so
does P_j^m, which callers take from ``scipy.special.lpmv`` directly.  A Bessel
table (``_bessel_j_table``) is filled on
the calling thread from one ``j0`` and one ``j1`` pass per (k, x) grid, kept in
the caller's dict as the grid's tables of orders 0 and 1 (x = 0 included).  An
order n >= 2 takes the upward recurrence from them at and above its turning
point x = n, which agrees with ``jv`` to 4e-15 at orders up to 8 and x <= 500
and to 5e-14 at any order and x <= 1200 (where ``jv``'s own error dominates),
and ``jv`` itself below it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j0, j1, jv, sph_harm_y
from scipy.special.cython_special import jv as jv_point

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
    return jv_point(m, x)


def bessel_j_prime(m, x):
    """dJ_m/dx via the recurrence J'_m = (J_{m-1} - J_{m+1})/2, for one real x."""
    m, x = _checked_order_and_argument("bessel_j_prime", m, x)
    return 0.5 * (jv_point(m - 1, x) - jv_point(m + 1, x))


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
        return m * jv_point(m, x) / x
    # J_m(x)/x = sum_s (-1)^s x^(|m|-1+2s) / (2^(|m|+2s) s! (|m|+s)!)
    am = abs(m)
    sign = m * (1.0 if m > 0 else (-1.0) ** am)  # m * J_m sign rule
    acc = 0.0
    for s in range(4):
        c = (-1.0) ** s / (2.0 ** (am + 2 * s) * math.factorial(s) * math.factorial(am + s))
        acc += c * x ** (am - 1 + 2 * s)
    return sign * acc


def _bessel_j_table(order, arg, seeds):
    """J_order(arg) for an array `arg` >= 0 and 0 <= order <= MAX_ORDER, on one thread.

    `seeds` is (J_0(arg), J_1(arg)) from ``j0`` and ``j1``, the tables of orders 0 and 1.
    From order 2, entries at or above the turning point, arg >= order, come from the
    seeds and the upward recurrence J_{n+1} = (2n/x) J_n - J_{n-1} (DLMF 10.6.1), stable
    there; the rest are one ``jv`` call's, bit for bit.  The module docstring states the accuracy.
    """
    if order < 2:
        return seeds[order]
    table = np.empty_like(arg)
    above = arg >= order
    table[~above] = jv(order, arg[~above])
    x = arg[above]
    prev, cur = seeds[0][above], seeds[1][above]
    for n in range(1, order):
        np.subtract(2 * n * cur / x, prev, out=prev)  # J_{n+1}, into J_{n-1}'s buffer
        prev, cur = cur, prev
    table[above] = cur
    return table


def bessel_j_outer(m, k, x, tables):
    """J_m(k_i x_j) on the outer product grid of scale factors and abscissas.

    Tables are memoized in the caller's dict `tables`, keyed on |m| and the
    exact bytes of `k` and `x`; `_bessel_j_table` computes a missing one.  A
    grid's first table also memoizes its orders 0 and 1, one ``j0`` and one
    ``j1`` pass, as every other order's seeds; a failing fill memoizes nothing.
    Negative orders are (-1)^m times the |m| table, J_{-m} = (-1)^m J_m, bit
    for bit.  The returned arrays are read-only.
    """
    m = int(m)
    if abs(m) > MAX_ORDER:
        raise DomainError(f"Bessel order |m|={abs(m)} exceeds {MAX_ORDER}")
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    grid = (k.tobytes(), x.tobytes())
    table = tables.get((abs(m),) + grid)
    if table is None:
        arg = np.outer(k, x)
        seeds = (tables[(0,) + grid], tables[(1,) + grid]) if (0,) + grid in tables else (j0(arg), j1(arg))
        table = _bessel_j_table(abs(m), arg, seeds)
        for order, t in ((0, seeds[0]), (1, seeds[1]), (abs(m), table)):
            t.setflags(write=False)
            tables[(order,) + grid] = t
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


def vsh_grid(j, m, theta, phi):
    """(Y^(E), Y^(M)) transverse vector spherical harmonics on angle grids.

    Y^(E)_jm = grad_n Y_jm / (j(j+1)),  Y^(M)_jm = n x Y^(E)_jm, with theta
    and phi broadcast against each other.  The theta derivative comes from
    the ladder identity.  So does the m Y_jm / sin(theta) term where
    sin(theta) < _POLE_SIN, through m cot(theta) Y_jm; the values are finite
    and exact on the poles too.  `j` is one degree or an integer array of
    them, whose axes lead the result's: each degree's values equal those of
    its own call bit for bit, and a bare angle pair's those at its place in
    an array of angles.  Returns two complex arrays shaped
    j.shape + broadcast(theta, phi).shape + (3,), Cartesian components.
    """
    j = np.asarray(j, dtype=int)
    if j.max() > MAX_ORDER:  # scipy's sph_harm_y returns NaN from degree 646 on
        raise DomainError(f"degree j={j.max()} exceeds {MAX_ORDER}")
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    j = j.reshape(j.shape + (1,) * theta.ndim)
    st, ct = np.sin(theta), np.cos(theta)

    def ladder(step, rank, phase):
        """0.5 sqrt(rank) Y_j,m+step e^(phase): a complex zero where m + step leaves degree j."""
        inside = abs(m + step) <= j
        # np.multiply, not *: numpy scalars would round the complex product
        # apart from the array loop, so one angle pair or one degree would
        # round apart from its place in an array
        term = np.multiply(0.5 * np.sqrt(np.where(inside, rank, 0)) * sph_harm_y(j, m + step, theta, phi),
                           np.exp(phase))
        return term if inside.all() else np.where(inside, term, 0.0)

    # dY/dtheta = up - dn and m cot(theta) Y_jm = -(up + dn)
    up = ladder(1, (j - m) * (j + m + 1), -1j * phi)
    dn = ladder(-1, (j + m) * (j - m + 1), 1j * phi)
    dth = np.zeros(up.shape, dtype=complex) + up - dn
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
    ye = (dth[..., None] * that + dphi_over_sin[..., None] * phat) / (j * (j + 1))[..., None]
    n_hat = np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)
    ym = np.cross(n_hat, ye)
    return ye, ym
