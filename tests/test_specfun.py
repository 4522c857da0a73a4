"""Special-function oracles: closed forms against direct quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import jv, lpmv

from besselbeams import specfun
from besselbeams.specfun import (
    DomainError,
    assoc_legendre,
    assoc_legendre_dkz,
    assoc_legendre_prime,
    bessel_j,
    bessel_j_outer,
    bessel_j_over_x,
    bessel_j_prime,
    lommel_overlap,
    lommel_overlap_equal,
    spherical_harmonic,
    vector_spherical_harmonic,
    vsh_grid,
)

RNG = np.random.default_rng(20240811)


def _quad_overlap(m, k, k2, R):
    re, _ = quad(lambda r: jv(m, k * r) * jv(m, k2 * r) * r, 0.0, R, limit=400)
    return re


class TestLommelOverlap:
    def test_against_direct_quadrature_random_tuples(self):
        # independent oracle: adaptive quadrature of the radial overlap
        worst = 0.0
        for _ in range(100):
            m = int(RNG.integers(0, 6))
            k = float(RNG.uniform(0.2, 3.0))
            k2 = float(RNG.uniform(0.2, 3.0))
            if abs(k - k2) < 1e-3:
                k2 += 0.1
            R = float(RNG.uniform(0.5, 12.0))
            closed = lommel_overlap(m, k, k2, R)
            direct = _quad_overlap(m, k, k2, R)
            worst = max(worst, abs(closed - direct))
        assert worst < 1e-10

    def test_equal_argument_form(self):
        for m, k, R in [(0, 1.0, 5.0), (2, 0.7, 3.0), (4, 2.2, 9.0), (1, 1.5, 0.8)]:
            closed = lommel_overlap_equal(m, k, R)
            direct = _quad_overlap(m, k, k, R)
            assert abs(closed - direct) < 1e-10

    def test_symmetry_in_k_arguments(self):
        assert lommel_overlap(3, 0.9, 1.7, 4.0) == pytest.approx(
            lommel_overlap(3, 1.7, 0.9, 4.0), abs=1e-15
        )

    def test_equal_arguments_rejected(self):
        with pytest.raises(DomainError):
            lommel_overlap(1, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            lommel_overlap(1, -1.0, 2.0, 2.0)

    def test_continuity_across_the_diagonal(self):
        # closed form has a removable 0/0 at k = k2; the equal-argument
        # form must be its limit
        lim = lommel_overlap(2, 1.3, 1.3 + 1e-7, 6.0)
        assert abs(lim - lommel_overlap_equal(2, 1.3, 6.0)) < 1e-6


class TestBessel:
    def test_negative_order_reflection(self):
        x = np.linspace(0.0, 20.0, 101)
        for m in range(6):
            assert np.allclose(bessel_j(-m, x), (-1.0) ** m * bessel_j(m, x), atol=1e-15)

    def test_three_term_recurrence(self):
        x = np.linspace(0.1, 15.0, 97)
        for m in range(1, 7):
            lhs = bessel_j(m - 1, x) + bessel_j(m + 1, x)
            rhs = (2.0 * m / x) * bessel_j(m, x)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_derivative_against_finite_difference(self):
        h = 1e-6
        for m in (0, 1, 3):
            for x in (0.5, 2.7, 11.0):
                fd = (bessel_j(m, x + h) - bessel_j(m, x - h)) / (2 * h)
                assert abs(bessel_j_prime(m, x) - fd) < 1e-9

    def test_over_x_axis_limits(self):
        assert bessel_j_over_x(1, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert bessel_j_over_x(-1, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert bessel_j_over_x(0, 0.0) == 0.0
        assert bessel_j_over_x(2, 0.0) == 0.0

    def test_over_x_series_matches_direct_branch(self):
        # the series branch agrees with m J_m(x)/x just below the switch
        for m in (1, -1, 2, -3):
            for x in (5e-5, 9.99e-5):
                assert bessel_j_over_x(m, x) == pytest.approx(
                    m * jv(m, x) / x, abs=1e-15
                )

    def test_outer_grid(self):
        k = np.array([0.5, 2.0])
        x = np.array([0.1, 1.0, 3.0])
        out = bessel_j_outer(2, k, x)
        assert out.shape == (2, 3)
        assert out[1, 2] == pytest.approx(jv(2, 6.0), abs=1e-15)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            bessel_j(201, 1.0)
        with pytest.raises(DomainError):
            bessel_j(2, -1.0)

    @given(st.integers(-8, 8), st.floats(0.0, 30.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_over_x_consistency_property(self, m, x):
        val = bessel_j_over_x(m, x)
        if x > 1e-3:
            assert val == pytest.approx(m * jv(m, x) / x, abs=1e-12)
        assert np.isfinite(val)


class TestLegendre:
    def test_matches_scipy(self):
        x = np.linspace(-0.99, 0.99, 41)
        for j in range(0, 7):
            for m in range(0, j + 1):
                assert np.allclose(assoc_legendre(j, m, x), lpmv(m, j, x), atol=1e-14)

    def test_derivative_against_finite_difference(self):
        h = 1e-6
        for j, m in [(1, 0), (3, 1), (5, 4), (6, 0)]:
            for x in (-0.6, 0.1, 0.85):
                fd = (lpmv(m, j, x + h) - lpmv(m, j, x - h)) / (2 * h)
                assert abs(float(assoc_legendre_prime(j, m, x)) - fd) < 1e-7

    def test_dkz_chain_rule(self):
        # d/dkz P(c kz / w) at fixed w
        j, m, kz, w, c = 4, 2, 1.2, 2.5, 1.0
        h = 1e-6
        fd = (lpmv(m, j, c * (kz + h) / w) - lpmv(m, j, c * (kz - h) / w)) / (2 * h)
        assert assoc_legendre_dkz(j, m, kz, w, c) == pytest.approx(fd, abs=1e-7)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            assoc_legendre(2, 3, 0.5)
        with pytest.raises(DomainError):
            assoc_legendre(2, 1, 1.5)
        with pytest.raises(DomainError):
            assoc_legendre_prime(2, 1, 1.0)


def _random_directions(n):
    """(unit vectors (n, 3), theta, phi) away from the poles."""
    theta = np.arccos(RNG.uniform(-0.99, 0.99, n))
    phi = RNG.uniform(-math.pi, math.pi, n)
    dirs = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], -1)
    return dirs, theta, phi


class TestVectorSphericalHarmonic:
    def test_transverse_to_direction(self):
        for j, m in [(1, 0), (2, 2), (3, -1), (4, 3)]:
            for _ in range(5):
                v = RNG.normal(size=3)
                n = v / np.linalg.norm(v)
                for kind in ("E", "M"):
                    y = vector_spherical_harmonic(kind, j, m, n)
                    assert abs(np.dot(n, y)) < 1e-10
            # the whole array in one vsh_grid call, equal to the per-direction values
            dirs, theta, phi = _random_directions(50)
            for kind, y in zip("EM", vsh_grid(j, m, theta, phi)):
                assert y.shape == (50, 3)
                assert np.abs(np.einsum("ni,ni->n", dirs, y)).max() < 1e-10
                single = [vector_spherical_harmonic(kind, j, m, n) for n in dirs]
                assert np.allclose(y, single, rtol=0, atol=1e-14)

    def test_m_is_n_cross_e(self):
        n = np.array([0.3, -0.4, math.sqrt(1 - 0.25)])
        ye = vector_spherical_harmonic("E", 3, 1, n)
        ym = vector_spherical_harmonic("M", 3, 1, n)
        assert np.allclose(ym, np.cross(n, ye), atol=1e-14)
        dirs, theta, phi = _random_directions(200)
        for j, m in [(1, -1), (3, 1), (6, 0), (11, -7)]:
            ye, ym = vsh_grid(j, m, theta, phi)
            assert np.allclose(ym, np.cross(dirs, ye), rtol=0, atol=1e-14)

    def test_sphere_norm(self):
        # int |Y^E|^2 dOmega = int |Y^M|^2 dOmega = 1/(j(j+1)), by product
        # quadrature over one vsh_grid call
        nt, nph = 60, 80
        from scipy.special import roots_legendre

        ct, wt = roots_legendre(nt)
        phis = np.linspace(0, 2 * math.pi, nph, endpoint=False)
        w2d = wt[:, None] * (2 * math.pi / nph)
        for j, m in [(3, 2), (1, 0), (7, -5)]:
            for y in vsh_grid(j, m, np.arccos(ct)[:, None], phis[None, :]):
                acc = np.sum(w2d * np.einsum("abi,abi->ab", y, y.conj()).real)
                assert acc == pytest.approx(1.0 / (j * (j + 1)), rel=1e-10)

    def test_scalar_harmonic_orthonormality(self):
        from scipy.special import roots_legendre

        nt, nph = 40, 60
        ct, wt = roots_legendre(nt)
        phis = np.linspace(0, 2 * math.pi, nph, endpoint=False)
        TH = np.arccos(ct)[:, None] * np.ones((1, nph))
        PH = np.ones((nt, 1)) * phis[None, :]
        y1 = spherical_harmonic(3, 1, TH, PH)
        y2 = spherical_harmonic(4, 1, TH, PH)
        w2d = wt[:, None] * (2 * math.pi / nph)
        assert np.sum(w2d * np.abs(y1) ** 2) == pytest.approx(1.0, rel=1e-12)
        assert abs(np.sum(w2d * y1 * np.conj(y2))) < 1e-12

    def test_pole_regularity(self):
        north = np.array([0.0, 0.0, 1.0])
        y = vector_spherical_harmonic("E", 2, 1, north)
        assert np.all(np.isfinite(y))
        assert np.linalg.norm(y) > 0

    def test_rejects_unnormalized_direction(self):
        with pytest.raises(DomainError):
            vector_spherical_harmonic("E", 2, 1, np.array([0.0, 0.0, 2.0]))
        with pytest.raises(DomainError):
            vector_spherical_harmonic("Q", 2, 1, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(DomainError):
            vector_spherical_harmonic("E", 0, 0, np.array([0.0, 0.0, 1.0]))
