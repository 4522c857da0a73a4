"""The Hertz-potential assembly of the TM/TE fields: an independent reference
for the mode-vector path of ``besselbeams.modes``, used only by the tests."""

import math

import numpy as np

from besselbeams.modes import TE, TM, CylPoint
from besselbeams.specfun import DomainError, bessel_j, bessel_j_prime


def hertz_fields(family, m, k_perp, k_z, p: CylPoint, c=1.0):
    """(E, B) assembled from analytic derivatives of the Hertz potential.

    Theta = J_m(k_perp rho) exp(-i w t + i k_z z + i m phi) sources the
    TM fields (Theta_1) or the TE fields (Theta_2).  Independent of the
    mode-vector path up to a constant factor; requires rho > 0.  The
    (rho, phi, z) components are rotated to Cartesian at azimuth p.phi, and
    each field is a (3,) complex array.
    """
    if family not in (TM, TE):
        raise ValueError("family must be TM or TE")
    if p.rho <= 0:
        raise DomainError("hertz_fields requires rho > 0; use the mode path on the axis")
    omega = c * math.hypot(k_perp, k_z)
    x = k_perp * p.rho
    J = bessel_j(m, x)
    Jp = bessel_j_prime(m, x)
    ph = np.exp(1j * (-omega * p.t + m * p.phi + k_z * p.z))
    # Derivative factors: d/dz -> i k_z, d/(c dt) -> -i w/c, d/dphi -> i m,
    # d/drho -> k_perp J'.
    if family == TM:
        e_rho = 1j * k_z * k_perp * Jp
        e_phi = -(k_z * m / p.rho) * J
        e_z = (omega**2 / c**2 - k_z**2) * J
        b_rho = (m * omega / (c * p.rho)) * J
        b_phi = 1j * (omega / c) * k_perp * Jp
        b_z = 0.0
    else:
        e_rho = -(m * omega / (c * p.rho)) * J
        e_phi = -1j * (omega / c) * k_perp * Jp
        e_z = 0.0
        b_rho = 1j * k_z * k_perp * Jp
        b_phi = -(k_z * m / p.rho) * J
        b_z = (omega**2 / c**2 - k_z**2) * J
    cphi, sphi = math.cos(p.phi), math.sin(p.phi)

    def cartesian(v_rho, v_phi, v_z):
        v_rho, v_phi, v_z = np.array([v_rho, v_phi, v_z]) * ph
        return np.array([v_rho * cphi - v_phi * sphi, v_rho * sphi + v_phi * cphi, v_z])

    return cartesian(e_rho, e_phi, e_z), cartesian(b_rho, b_phi, b_z)
