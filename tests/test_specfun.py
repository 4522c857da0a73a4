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
    assoc_legendre_prime,
    bessel_j,
    bessel_j_outer,
    bessel_j_over_x,
    bessel_j_prime,
    lommel_overlap,
    lommel_overlap_equal,
    spherical_harmonic,
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
        for x in np.linspace(0.0, 20.0, 101).tolist():
            for m in range(6):
                assert abs(bessel_j(-m, x) - (-1.0) ** m * bessel_j(m, x)) <= 1e-15, (m, x)

    def test_three_term_recurrence(self):
        for x in np.linspace(0.1, 15.0, 97).tolist():
            for m in range(1, 7):
                lhs = bessel_j(m - 1, x) + bessel_j(m + 1, x)
                rhs = (2.0 * m / x) * bessel_j(m, x)
                assert abs(lhs - rhs) < 1e-12, (m, x)

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

    def test_outer_negative_orders_bitwise(self):
        # J_{-m} = (-1)^m J_m folds negative orders onto the cached |m| table
        k = np.array([0.0, 0.37, 1.0, 2.5])
        x = np.linspace(0.0, 40.0, 301)
        for m in range(-8, 9):
            out = bessel_j_outer(m, k, x)
            assert out.view(np.int64).tolist() == jv(m, np.outer(k, x)).view(np.int64).tolist(), m

    def test_outer_tables_are_read_only(self):
        for m in (3, -3, -4):
            out = bessel_j_outer(m, np.array([0.5, 1.5]), np.array([0.1, 2.0]))
            assert not out.flags.writeable
            with pytest.raises(ValueError):
                out[0, 0] = 1.0

    def test_outer_cache_is_capped(self):
        x = np.linspace(0.0, 5.0, 7)
        scales = 1.0 + np.arange(specfun._OUTER_CACHE_SIZE + 5)
        for s in scales:
            bessel_j_outer(1, np.array([s]), x)
        assert len(specfun._OUTER_CACHE) <= specfun._OUTER_CACHE_SIZE
        # the newest table is kept, the oldest dropped
        assert (1, scales[:1].tobytes(), x.tobytes()) not in specfun._OUTER_CACHE
        assert (1, scales[-1:].tobytes(), x.tobytes()) in specfun._OUTER_CACHE

    def test_cached_quadrature_suite_repeats(self):
        from besselbeams.verify import quadrature_suite

        specfun._OUTER_CACHE.clear()
        first = [r.to_dict() for r in quadrature_suite(margin=0.25)]
        cached = dict(specfun._OUTER_CACHE)
        second = [r.to_dict() for r in quadrature_suite(margin=0.25)]
        # every table came from the cache: same keys, same array objects
        assert specfun._OUTER_CACHE.keys() == cached.keys()
        assert all(specfun._OUTER_CACHE[key] is table for key, table in cached.items())
        assert second == first

    def test_order_cap(self):
        with pytest.raises(DomainError):
            bessel_j(201, 1.0)
        with pytest.raises(DomainError):
            bessel_j(2, -1.0)

    @pytest.mark.parametrize("fn", [bessel_j, bessel_j_prime], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300],
                             ids=["nan", "inf", "-inf", "-1e-300"])
    def test_argument_check_refuses_nonfinite_and_negative(self, fn, bad):
        message = f"^{fn.__name__} requires finite x >= 0$"
        with pytest.raises(DomainError, match=message):
            fn(2, bad)
        with pytest.raises(DomainError, match=message):
            fn(2, np.float64(bad))

    def test_argument_check_accepts_zero_and_finite_floats(self):
        for x in (0.0, 1e-300, 0.5, 3.0, 40.0, np.float64(2.5), 7):
            for m in (-3, 0, 1, 4):
                assert bessel_j(m, x) == jv(m, x)
                assert bessel_j_prime(m, x) == 0.5 * (jv(m - 1, x) - jv(m + 1, x))

    @pytest.mark.parametrize("fn", [bessel_j, bessel_j_prime, bessel_j_over_x],
                             ids=lambda f: f.__name__)
    def test_point_functions_refuse_arrays(self, fn):
        # one real x per call: a grid goes through bessel_j_outer
        with pytest.raises(TypeError):
            fn(2, np.array([0.5, 1.0]))

    @given(st.integers(-8, 8), st.floats(0.0, 30.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_over_x_consistency_property(self, m, x):
        val = bessel_j_over_x(m, x)
        if x > 1e-3:
            assert val == pytest.approx(m * jv(m, x) / x, abs=1e-12)
        assert np.isfinite(val)


class TestLegendre:
    def test_matches_scipy(self):
        for x in np.linspace(-0.99, 0.99, 41).tolist() + [-1.0, 1.0]:
            for j in range(0, 7):
                for m in range(0, j + 1):
                    assert assoc_legendre(j, m, x) == lpmv(m, j, x), (j, m, x)

    def test_derivative_against_finite_difference(self):
        h = 1e-6
        for j, m in [(1, 0), (3, 1), (5, 4), (6, 0)]:
            for x in (-0.6, 0.1, 0.85):
                fd = (lpmv(m, j, x + h) - lpmv(m, j, x - h)) / (2 * h)
                assert abs(assoc_legendre_prime(j, m, x) - fd) < 1e-7

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            assoc_legendre(2, 3, 0.5)
        with pytest.raises(DomainError):
            assoc_legendre(2, 1, 1.5)
        with pytest.raises(DomainError):
            assoc_legendre_prime(2, 1, 1.0)
        with pytest.raises(DomainError):
            assoc_legendre_prime(2, 1, -1.0)
        with pytest.raises(TypeError):
            assoc_legendre(2, 1, np.array([0.1, 0.2]))
        with pytest.raises(TypeError):
            assoc_legendre_prime(2, 1, np.array([0.1, 0.2]))


def _random_directions(n):
    """(unit vectors (n, 3), theta, phi) away from the poles."""
    theta = np.arccos(RNG.uniform(-0.99, 0.99, n))
    phi = RNG.uniform(-math.pi, math.pi, n)
    dirs = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], -1)
    return dirs, theta, phi


class TestVectorSphericalHarmonic:
    def test_transverse_to_direction(self):
        for j, m in [(1, 0), (2, 2), (3, -1), (4, 3)]:
            # one direction at a time (scalar angles), then the whole array
            # in one call, equal to the per-direction values
            dirs, theta, phi = _random_directions(50)
            single = [vsh_grid(j, m, th, ph) for th, ph in zip(theta, phi)]
            for n, pair in zip(dirs[:5], single):
                for y in pair:
                    assert y.shape == (3,)
                    assert abs(np.dot(n, y)) < 1e-10
            for k, y in enumerate(vsh_grid(j, m, theta, phi)):
                assert y.shape == (50, 3)
                assert np.abs(np.einsum("ni,ni->n", dirs, y)).max() < 1e-10
                assert np.allclose(y, [pair[k] for pair in single], rtol=0, atol=1e-14)

    def test_m_is_n_cross_e(self):
        n = np.array([0.3, -0.4, math.sqrt(1 - 0.25)])
        ye, ym = vsh_grid(3, 1, math.acos(n[2]), math.atan2(n[1], n[0]))
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
        y, _ = vsh_grid(2, 1, 0.0, 0.0)  # the north pole
        assert np.all(np.isfinite(y))
        assert np.linalg.norm(y) > 0
        # exactly on either pole: finite, independent of phi, zero unless
        # |m| = 1, and the limit of the values just off the pole
        phis = np.linspace(-math.pi, math.pi, 9)
        for j in range(1, 9):
            for m in range(-j, j + 1):
                for pole, near in ((0.0, 1e-7), (math.pi, math.pi - 1e-7)):
                    for y, y_near in zip(vsh_grid(j, m, pole, phis), vsh_grid(j, m, near, phis)):
                        assert np.all(np.isfinite(y))
                        if abs(m) != 1:
                            assert np.abs(y).max() < 1e-15, (j, m, pole)
                            continue
                        size = np.abs(y).max()
                        assert np.abs(y - y[0]).max() <= 1e-14 * size, (j, m, pole)
                        assert np.abs(y - y_near).max() <= 1e-6 * size, (j, m, pole)
