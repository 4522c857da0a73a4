"""Classical electromagnetic Bessel-beam mode geometry.

Evaluates the transverse vector mode functions M and N, the TE/TM vector
potentials with the physical normalization amplitude, the resulting E and
B fields, and the plane-wave angular-spectrum quadrature representation of
M and N.

Phase convention is exp(-i w t + i k_z z + i m phi) throughout.  M and N
are written down once, as a term table in the e_-, e_+, e_3 basis
(`mode_terms`); every term is regular at rho = 0, so point values on the
axis need no special case and come out in the Cartesian frame.  The
transverse profile does not depend on z, so a point whose z is a 1-D
sequence evaluates the profile once and takes one axial phase per z.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .specfun import bessel_j
# Unused here: perfbench/tracing.py wraps these names in modes.__dict__.
from .specfun import bessel_j_over_x, bessel_j_prime  # noqa: F401

TM, TE = "TM", "TE"

# i^n = I_POWERS[n % 4], exactly: a complex power such as (-1j)**150 drifts
# in its last bits past |n| = 100
I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def omega(c, k_perp, k_z):
    """w = c hypot(k_perp, k_z), with math.hypot, which rounds correctly where
    numpy's hypot may miss by an ulp: a Python float for numbers, and for
    arrays the same value element by element, broadcast."""
    if isinstance(k_perp, np.ndarray) or isinstance(k_z, np.ndarray):
        kp, kz = np.broadcast_arrays(k_perp, k_z)
        # flat iterators, not tolist(): no list of the grid's Python floats is built
        return c * np.fromiter(map(math.hypot, kp.flat, kz.flat), float, kp.size).reshape(kp.shape)
    return c * math.hypot(k_perp, k_z)


@dataclass(frozen=True)
class ModeIndex:
    """One Bessel mode: family, azimuthal index and wavenumbers."""

    family: str
    m: int
    k_perp: float
    k_z: float

    def __post_init__(self):
        if self.family not in (TM, TE):
            raise ValueError(f"family must be TM or TE, got {self.family!r}")
        if not (math.isfinite(self.k_perp) and math.isfinite(self.k_z)):
            raise ValueError("k_perp and k_z must be finite")
        if not self.k_perp > 0:
            raise ValueError("k_perp must be > 0")
        if self.k_z == 0:
            raise ValueError("k_z = 0 is excluded (1/k_z factors in the mode functions)")

    def omega(self, c=1.0):
        return omega(c, self.k_perp, self.k_z)


@dataclass(frozen=True)
class CylPoint:
    """Cylindrical sample point (rho, phi, z) at time t.

    z is one value or a 1-D sequence of values: the latter stands for the
    points (rho, phi, z_k) on one line parallel to the beam axis.
    """

    rho: float
    phi: float = 0.0
    z: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be >= 0")


@dataclass(frozen=True)
class NormalizationConvention:
    """Physical constants and the per-mode normalization amplitude.

    The amplitude makes a photon of frequency w carry energy hbar*w:
    E_m(k_perp, k_z) = k_z c sqrt(hbar k_perp / (2 pi w)), identical for
    both families.
    """

    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0 and self.c > 0):
            raise ValueError("hbar and c must be positive")

    def amplitude(self, K: ModeIndex):
        w = K.omega(self.c)
        return K.k_z * self.c * math.sqrt(self.hbar * K.k_perp / (2.0 * math.pi * w))

    def amplitude_grid(self, k_perp, k_z, w=None):
        """Vectorized amplitude over (k_perp, k_z) arrays; `w` is their omega if the caller has it."""
        w = omega(self.c, k_perp, k_z) if w is None else w
        return k_z * self.c * np.sqrt(self.hbar * k_perp / (2.0 * math.pi * w))


# Only angular_spectrum returns this wrapper: perfbench/checks.py reads its .components.
@dataclass(frozen=True)
class ComplexVec3:
    """Complex 3-vector sample with Cartesian (x, y, z) components."""

    components: np.ndarray


E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
E_PLUS = E1 + 1j * E2
E_MINUS = E1 - 1j * E2


_POL = {"-": E_MINUS, "+": E_PLUS, "3": E3}
# the same vectors as (x, y, z) complex constants, for the point path
_POL_COMPLEX = {pol: tuple(complex(v) for v in vec) for pol, vec in _POL.items()}


def mode_terms(which, m, k_perp, k_z, c=1.0, w=None):
    """Term table of M or N: (polarization, Bessel order, coefficient) triples.

    A table stands for  sum coeff J_order(k_perp rho) e^(i order phi) e_pol,
    times e^(i k_z z - i w t), with e_-/+ = e1 -/+ i e2 and e_3 = e3:
        M = (w/(2 c k_z)) (J_{m+1} e_- + J_{m-1} e_+),
        N = -(i/2) (J_{m+1} e_- - J_{m-1} e_+) + (k_perp/k_z) J_m e_3,
    i.e. M = (w/(c k_z)) [(m/(k_perp rho)) J_m e_rho + i J'_m e_phi] and
    N = i J'_m e_rho - (m/(k_perp rho)) J_m e_phi + (k_perp/k_z) J_m e_z.
    Coefficients broadcast over k_perp, k_z arrays and are Python numbers for one node.
    `w` is omega(c, k_perp, k_z) if the caller has it.
    """
    if which == "M":
        half = 0.5 * (omega(c, k_perp, k_z) if w is None else w) / (c * k_z)
        return (("-", m + 1, half), ("+", m - 1, half))
    if which == "N":
        return (("-", m + 1, -0.5j), ("+", m - 1, 0.5j), ("3", m, k_perp / k_z))
    raise ValueError("which must be 'M' or 'N'")


def _eval_mode(which, m, k_perp, k_z, p: CylPoint, c):
    x, w = k_perp * p.rho, omega(c, k_perp, k_z)
    # Sum term * e_pol per Cartesian component in complex scalars.  Each
    # product with a component of e_pol is by exact 0 or +/-1, and the sums
    # start from +0, so they equal elementwise array sums bit for bit.
    cx = cy = cz = 0j
    for pol, order, coeff in mode_terms(which, m, k_perp, k_z, c, w):
        term = complex(coeff * bessel_j(order, x) * cmath.exp(1j * order * p.phi))
        ex, ey, ez = _POL_COMPLEX[pol]
        cx += term * ex
        cy += term * ey
        cz += term * ez
    # The phase product a e^(i psi) = (ar cos psi - ai sin psi) + i (ai cos psi + ar sin psi)
    # takes separate real multiplies and adds, never fused (an FMA) as numpy's or a C
    # compiler's complex multiply may be, so no SIMD level or build changes a field value.
    # A z sequence adds (-ai) sin psi, the difference bit for bit: row k is the value at z_k.
    wt = w * p.t
    # np.ndim of a Python float costs about as much as a bessel_j call, so
    # isinstance settles the common case first
    if isinstance(p.z, (float, int)) or np.ndim(p.z) == 0:
        phase = cmath.exp(1j * (k_z * p.z - wt))
        pr, pi, xr, xi = phase.real, phase.imag, cx.real, cx.imag
        yr, yi, zr, zi = cy.real, cy.imag, cz.real, cz.imag
        return np.array((xr * pr - xi * pi, xi * pr + xr * pi, yr * pr - yi * pi, yi * pr + yr * pi,
                         zr * pr - zi * pi, zi * pr + zr * pi)).view(complex)
    zs = np.asarray(p.z, dtype=float)
    if zs.ndim != 1:
        raise ValueError("z must be one value or a 1-D sequence")
    phase = np.array([cmath.exp(1j * (k_z * z - wt)) for z in zs.tolist()])
    # rows: (re, im) of each component a, then of i a; a e^(i psi) = a cos psi + (i a) sin psi
    a, ia = np.array((cx.real, cx.imag, cy.real, cy.imag, cz.real, cz.imag,
                      -cx.imag, cx.real, -cy.imag, cy.real, -cz.imag, cz.real)).reshape(2, 6, 1)
    return (a * phase.real + ia * phase.imag).T.copy().view(complex)


def eval_M(m, k_perp, k_z, p: CylPoint, c=1.0):
    """Mode vector M at a point, Cartesian (see mode_terms): a (3,) complex
    array, or (n_z, 3) when p.z is a sequence of n_z values."""
    return _eval_mode("M", m, k_perp, k_z, p, c)


def eval_N(m, k_perp, k_z, p: CylPoint, c=1.0):
    """Mode vector N at a point, Cartesian (see mode_terms): a (3,) complex
    array, or (n_z, 3) when p.z is a sequence of n_z values."""
    return _eval_mode("N", m, k_perp, k_z, p, c)


# The field rule, (field, family) -> (mode vector, sign):
# E^(TM) = amp N, E^(TE) = -amp M, B^(TM) = amp M, B^(TE) = amp N.
# A sign is a negation, not a product with -1.0, so a complex prefactor
# keeps the signed zero of its real part.
FIELD_RULE = {
    ("E", TM): ("N", operator.pos),
    ("E", TE): ("M", operator.neg),
    ("B", TM): ("M", operator.pos),
    ("B", TE): ("N", operator.pos),
}


def _eval_field(which, K: ModeIndex, p: CylPoint, norm: NormalizationConvention, pref=1.0):
    """pref times the `which` field of mode K at a point (FIELD_RULE), as a
    (3,) or (n_z, 3) complex array (see eval_M); the product is array times
    scalar, elementwise."""
    vector, sign = FIELD_RULE[which, K.family]
    return _eval_mode(vector, K.m, K.k_perp, K.k_z, p, norm.c) * (sign(pref) * norm.amplitude(K))


def eval_potential(K: ModeIndex, p: CylPoint, norm: NormalizationConvention):
    """Vector potential mode A = (c/(i w)) E, E by FIELD_RULE; shaped as eval_M."""
    return _eval_field("E", K, p, norm, norm.c / (1j * K.omega(norm.c)))


def eval_E(K: ModeIndex, p: CylPoint, norm: NormalizationConvention):
    """Electric field mode: E^(TM) = E N, E^(TE) = -E M (FIELD_RULE); shaped as eval_M."""
    return _eval_field("E", K, p, norm)


def eval_B(K: ModeIndex, p: CylPoint, norm: NormalizationConvention):
    """Magnetic field mode: B^(TM) = E M,  B^(TE) = E N (FIELD_RULE); shaped as eval_M."""
    return _eval_field("B", K, p, norm)


def _ring_nodes(m, k_perp, rho):
    """Trapezoid nodes on the cone-azimuth ring that resolve J_m(k_perp rho) e^(i m phi)."""
    return int(8 * (abs(m) + k_perp * rho + 8))


def scalar_angular_spectrum(m, k_perp, rho, phi):
    """((-i)^m / 2 pi) closed contour quadrature reproducing J_m(k_perp rho) e^(i m phi)."""
    phik = np.linspace(0.0, 2.0 * math.pi, _ring_nodes(m, k_perp, rho), endpoint=False)
    integrand = np.exp(1j * m * phik + 1j * k_perp * rho * np.cos(phi - phik))
    return I_POWERS[-m % 4] * np.mean(integrand)


def cone_density(which, m, k_perp, k_z, phi_k, c=1.0):
    """Plane-wave density of M or N on the wavevector cone, at azimuths phi_k.

    Each term J_n(k_perp rho) e^(i n phi) of mode_terms is replaced by its
    ring integrand ((-i)^n / 2 pi) e^(i n phi_k), so that
        F(r, t) = int dphi_k density(phi_k) e^(i k_perp rho cos(phi - phi_k))
                  e^(i k_z z - i w t).
    Returns an array shaped phi_k.shape + (3,), Cartesian components.
    """
    phi_k = np.asarray(phi_k, dtype=float)[..., None]
    return sum(
        coeff * (I_POWERS[-order % 4] / (2.0 * math.pi)) * np.exp(1j * order * phi_k) * _POL[pol]
        for pol, order, coeff in mode_terms(which, m, k_perp, k_z, c)
    )


def angular_spectrum(which, m, k_perp, k_z, p: CylPoint, c=1.0):
    """M or N via trapezoidal quadrature of cone_density over the cone azimuth.

    The radial and axial delta factors of the full 3D plane-wave
    representation are collapsed analytically.

    Returns (ComplexVec3, n_nodes), with the `_ring_nodes` count of nodes.
    """
    n_nodes = _ring_nodes(m, k_perp, p.rho)
    phik = np.linspace(0.0, 2.0 * math.pi, n_nodes, endpoint=False)
    wave = np.exp(1j * k_perp * p.rho * np.cos(p.phi - phik))
    density = cone_density(which, m, k_perp, k_z, phik, c)
    comp = 2.0 * math.pi * (density * wave[:, None]).mean(axis=0)
    return ComplexVec3(comp * np.exp(1j * (k_z * p.z - omega(c, k_perp, k_z) * p.t))), n_nodes
