"""Mode-vector identities, field assembly paths, and angular spectra."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jv

from besselbeams import modes
from besselbeams.dynops import node_factors
from besselbeams.lattice import ModeLattice
from besselbeams.modes import (
    _POL,
    CylPoint,
    E3,
    ModeIndex,
    NormalizationConvention,
    TE,
    TM,
    angular_spectrum,
    eval_B,
    eval_E,
    eval_M,
    eval_N,
    eval_potential,
    mode_terms,
    omega,
    scalar_angular_spectrum,
)
from besselbeams.specfun import bessel_j
from hertz import hertz_fields

RNG = np.random.default_rng(7)
NORM = NormalizationConvention()


def random_points(n, rho_max=6.0):
    for _ in range(n):
        yield CylPoint(
            float(RNG.uniform(1e-3, rho_max)),
            float(RNG.uniform(-math.pi, math.pi)),
            float(RNG.uniform(-3.0, 3.0)),
            float(RNG.uniform(0.0, 2.0)),
        )


class TestDuality:
    def test_ckz_M_equals_omega_e3_cross_N(self):
        # c k_z M = w (e3 x N) on 1000 random points and random modes
        worst = 0.0
        for _ in range(1000):
            m = int(RNG.integers(-4, 5))
            kp = float(RNG.uniform(0.3, 2.5))
            kz = float(RNG.choice([-1.0, 1.0]) * RNG.uniform(0.5, 3.0))
            p = CylPoint(
                float(RNG.uniform(1e-3, 6.0)),
                float(RNG.uniform(-math.pi, math.pi)),
                float(RNG.uniform(-3.0, 3.0)),
            )
            w = math.hypot(kp, kz)
            lhs = kz * eval_M(m, kp, kz, p)
            rhs = w * np.cross(E3, eval_N(m, kp, kz, p))
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        assert worst < 1e-12


class TestAxis:
    def test_tm_m0_axis_fields(self):
        # m = 0 on axis: TM electric field purely axial
        K = ModeIndex(TM, 0, 1.0, 2.0)
        p = CylPoint(0.0, 0.0, 0.3, 0.1)
        E = eval_E(K, p, NORM)
        assert abs(E[0]) == 0.0 and abs(E[1]) == 0.0
        # axial value: amplitude * (k_perp/k_z) J_0(0) * phase
        w = K.omega()
        expected = NORM.amplitude(K) * (1.0 / 2.0) * np.exp(1j * (-w * 0.1 + 2.0 * 0.3))
        assert E[2] == pytest.approx(expected, abs=1e-14)

    def test_axis_continuity(self):
        # fields approach their on-axis value smoothly
        for evaluator in (eval_M, eval_N):
            for m in (-1, 0, 1, 2):
                on = evaluator(m, 1.0, 2.0, CylPoint(0.0, 0.0, 0.0))
                near = evaluator(m, 1.0, 2.0, CylPoint(1e-9, 0.0, 0.0))
                assert np.abs(on - near).max() < 1e-7

    def test_axis_m_selection(self):
        # only |m| = 1 has transverse weight on the axis, only N at m = 0 axial
        for evaluator in (eval_M, eval_N):
            for m in (-3, -2, 2, 3):
                v = evaluator(m, 1.0, 2.0, CylPoint(0.0))
                assert np.abs(v).max() < 1e-15
            for m in (-1, 1):
                v1 = evaluator(m, 1.0, 2.0, CylPoint(0.0))
                assert np.abs(v1[:2]).max() > 0.1 and v1[2] == 0.0
        assert np.abs(eval_M(0, 1.0, 2.0, CylPoint(0.0))).max() == 0.0
        n0 = eval_N(0, 1.0, 2.0, CylPoint(0.0))
        assert np.abs(n0[:2]).max() == 0.0 and abs(n0[2]) > 0.1


def sum_of_arrays(which, m, k_perp, k_z, p, c=1.0):
    """M or N at a point as a sum of term-times-e_pol arrays: the reference
    the scalar term sums of the point path must match bit for bit.  The
    phase product of a field value is taken component by component in
    separate Python float operations, which nothing fuses."""
    omega = c * math.hypot(k_perp, k_z)
    x = k_perp * p.rho
    comp = sum(
        coeff * bessel_j(order, x) * cmath.exp(1j * order * p.phi) * _POL[pol]
        for pol, order, coeff in mode_terms(which, m, k_perp, k_z, c)
    )
    phase = cmath.exp(1j * (k_z * p.z - omega * p.t))
    pr, pi = phase.real, phase.imag
    return np.array([complex(v.real * pr - v.imag * pi, v.imag * pr + v.real * pi) for v in comp.tolist()])


def same_bits(a, b):
    """Equal values with equal signs of zero, component by component."""
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def field_of_arrays(kind, K, p, norm=NORM):
    """E, B or A = (c/(i w)) E at a point: the mode array times the signed
    amplitude, with E^(TM) = amp N, E^(TE) = -amp M, B^(TM) = amp M and
    B^(TE) = amp N.  A sign negates the prefactor, as in the field rule."""
    rule = {("E", TM): ("N", False), ("E", TE): ("M", True),
            ("B", TM): ("M", False), ("B", TE): ("N", False)}
    vector, negate = rule["B" if kind == "B" else "E", K.family]
    pref = norm.c / (1j * K.omega(norm.c)) if kind == "A" else 1.0
    mode = sum_of_arrays(vector, K.m, K.k_perp, K.k_z, p, norm.c)
    return mode * ((-pref if negate else pref) * norm.amplitude(K))


def is_point_field(v):
    return isinstance(v, np.ndarray) and v.shape == (3,) and v.dtype == np.complex128


class TestPointPath:
    def test_scalar_sums_match_the_sum_of_arrays_bitwise(self):
        # 13 orders x 2 signs of k_z x 8 points: the axis, phi = +/-pi, and
        # random points, each through M and N, and through E, B and A of
        # both families; every value is a (3,) complex128 array
        rng = np.random.default_rng(14)
        for m, sign in itertools.product(range(-6, 7), (1.0, -1.0)):
            kp = float(rng.uniform(0.2, 3.0))
            kz = sign * float(rng.uniform(0.2, 3.0))
            z, t, rho = (float(v) for v in rng.uniform(-3.0, 3.0, 3))
            points = [CylPoint(0.0, 0.0, z, t), CylPoint(0.0, math.pi, z, t),
                      CylPoint(0.0, -math.pi, -z, t), CylPoint(abs(rho), math.pi, z, t),
                      CylPoint(abs(rho), -math.pi, z, -t)]
            points += [
                CylPoint(float(rng.uniform(0.0, 8.0)), float(rng.uniform(-math.pi, math.pi)),
                         float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.0, 2.0)))
                for _ in range(3)]
            for p in points:
                for which, evaluator in (("M", eval_M), ("N", eval_N)):
                    got = evaluator(m, kp, kz, p)
                    assert is_point_field(got)
                    assert same_bits(got, sum_of_arrays(which, m, kp, kz, p)), (which, m, kz, p)
                for family in (TM, TE):
                    K = ModeIndex(family, m, kp, kz)
                    for kind, evaluator in (("E", eval_E), ("B", eval_B), ("A", eval_potential)):
                        got = evaluator(K, p, NORM)
                        assert is_point_field(got)
                        assert same_bits(got, field_of_arrays(kind, K, p)), (kind, K, p)

    def test_float_kernels_match_the_numpy_scalar_path_bitwise(self, monkeypatch):
        # specfun's point functions return Python floats; with modes.bessel_j
        # set to the jv ufunc every Bessel value is an np.float64, and the
        # numpy-scalar arithmetic it brings into the terms must give the same bits
        kp = 1.3
        points = [CylPoint(0.0, 0.0, 0.4, 0.0), CylPoint(0.0, math.pi, -1.1, 0.3),
                  CylPoint(1e-3, -2.0, 0.0, 0.3), CylPoint(0.8, 0.5, 2.2, -1.7),
                  CylPoint(4.3, -math.pi, -0.6, 0.3), CylPoint(170.0, 1.2, 0.9, 2.5)]

        def fields():
            out = []
            for m, kz, p in itertools.product((-199, -6, 0, 1, 6, 199), (0.7, -0.7), points):
                out += [eval_M(m, kp, kz, p), eval_N(m, kp, kz, p)]
                for family in (TM, TE):
                    K = ModeIndex(family, m, kp, kz)
                    out += [f(K, p, NORM) for f in (eval_E, eval_B, eval_potential)]
            return np.array(out)

        got = fields()
        monkeypatch.setattr(modes, "bessel_j", jv)
        want = fields()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.count_nonzero(got) > got.size // 2  # not a comparison of zeros

    def test_mode_terms_are_python_numbers_for_one_node_and_arrays_for_grids(self):
        for which in "MN":
            assert all(type(coeff) in (float, complex)
                       for _, _, coeff in mode_terms(which, 3, 1.1, -0.7, c=2.9))
        kp, kz = np.array([0.5, 1.0, 1.5]), np.array([-1.0, 2.0, 2.5])
        assert all(isinstance(coeff, np.ndarray) and coeff.shape == (3,)
                   for _, _, coeff in mode_terms("M", 3, kp, kz, c=2.9))
        assert isinstance(mode_terms("N", 3, kp, kz)[2][2], np.ndarray)

    def test_python_coefficients_match_numpy_scalar_coefficients_bitwise(self, monkeypatch):
        # the M coefficient is a Python float for one node; the same
        # coefficient as an np.float64 must give every field value the same bits
        def numpy_scalar_terms(which, m, k_perp, k_z, c=1.0, w=None):
            if which == "M":
                half = 0.5 * np.float64(omega(c, k_perp, k_z)) / (c * k_z)
                return (("-", m + 1, half), ("+", m - 1, half))
            return python_terms(which, m, k_perp, k_z, c, w)

        python_terms = modes.mode_terms
        rng = np.random.default_rng(36)
        cases = []
        for i in range(1000):
            m = int(rng.integers(-199, 200))
            kp = float(rng.uniform(0.1, 3.0))
            kz = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0))
            rho = 0.0 if i % 10 == 0 else float(rng.uniform(0.0, 40.0))
            p = CylPoint(rho, float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(-5, 5)),
                         float(rng.uniform(-2, 2)))
            norm = NormalizationConvention(c=(1.0, 2.9)[i % 2], hbar=(1.0, 0.37)[i % 3 == 0])
            cases.append((ModeIndex((TM, TE)[i % 2], m, kp, kz), p, norm))

        def fields():
            return np.array([[eval_M(K.m, K.k_perp, K.k_z, p, c=norm.c),
                              eval_N(K.m, K.k_perp, K.k_z, p, c=norm.c),
                              eval_E(K, p, norm), eval_B(K, p, norm)] for K, p, norm in cases])

        got = fields()
        monkeypatch.setattr(modes, "mode_terms", numpy_scalar_terms)
        assert type(modes.mode_terms("M", 1, 1.0, 2.0)[0][2]) is np.float64
        want = fields()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.count_nonzero(got) > got.size // 3  # not a comparison of zeros

    @pytest.mark.parametrize("bessel", ["kernel", "jv"])
    def test_z_sequence_equals_the_stacked_one_z_values_bitwise(self, bessel, monkeypatch):
        # a point whose z is a sequence evaluates the transverse profile once:
        # row k must carry the bits of the same point at z_k, through the
        # compiled kernels and through the jv ufunc alike
        if bessel == "jv":
            monkeypatch.setattr(modes, "bessel_j", jv)
        zs = [-0.0, 0.0, 1e3, -1e3, 0.37, -2.9]
        kp = 1.3
        evaluated = []
        for m, kz, (rho, phi) in itertools.product(
                (-199, -6, 0, 1, 199), (0.7, -0.7), ((0.0, 0.0), (0.0, -math.pi), (2.4, 0.9),
                                                     (170.0, -1.2))):
            for z_seq in (zs, tuple(zs), np.array(zs)):
                line = CylPoint(rho, phi, z_seq, 0.3)
                points = [CylPoint(rho, phi, z, 0.3) for z in zs]
                calls = [lambda q: eval_M(m, kp, kz, q), lambda q: eval_N(m, kp, kz, q)]
                for family in (TM, TE):
                    K = ModeIndex(family, m, kp, kz)
                    calls += [lambda q, f=f, K=K: f(K, q, NORM)
                              for f in (eval_E, eval_B, eval_potential)]
                for call in calls:
                    got = call(line)
                    want = np.array([call(q) for q in points])
                    assert got.shape == (len(zs), 3) and got.dtype == np.complex128
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (m, kz, rho)
                    evaluated.append(got)
        # not a comparison of zeros: on the axis and at rho = 2.4 with |m| = 199
        # the values are zero or underflow, and TE has no E_z nor TM a B_z
        evaluated = np.array(evaluated)
        assert np.count_nonzero(evaluated) > evaluated.size // 3

    def test_z_of_two_dimensions_refused(self):
        with pytest.raises(ValueError, match="1-D"):
            eval_M(1, 1.0, 2.0, CylPoint(0.5, 0.0, [[0.0, 1.0]], 0.0))


class TestFieldAssembly:
    def test_hertz_path_matches_mode_path(self):
        # the Hertz-potential fields (built in cylindrical components and
        # rotated to Cartesian, independent of the mode-vector term table)
        # fix M and N with a closed-form constant:
        # N = E_TM/(kp kz) = B_TE/(kp kz),  M = B_TM/(kp kz) = -E_TE/(kp kz)
        worst = 0.0
        for p in random_points(1000):
            m = int(RNG.integers(-4, 5))
            kp = float(RNG.uniform(0.3, 2.5))
            kz = float(RNG.choice([-1.0, 1.0]) * RNG.uniform(0.5, 3.0))
            E_tm, B_tm = (v / (kp * kz) for v in hertz_fields(TM, m, kp, kz, p))
            E_te, B_te = (v / (kp * kz) for v in hertz_fields(TE, m, kp, kz, p))
            M = eval_M(m, kp, kz, p)
            N = eval_N(m, kp, kz, p)
            worst = max(worst, *(float(np.abs(a - b).max()) for a, b in
                                 ((N, E_tm), (N, B_te), (M, B_tm), (M, -E_te))))
            # E and B carry the normalization amplitude on top
            for family, (Eh, Bh) in ((TM, (E_tm, B_tm)), (TE, (E_te, B_te))):
                K = ModeIndex(family, m, kp, kz)
                amp = NORM.amplitude(K)
                worst = max(worst, float(np.abs(eval_E(K, p, NORM) - amp * Eh).max()),
                            float(np.abs(eval_B(K, p, NORM) - amp * Bh).max()))
        assert worst < 1e-12

    def test_divergence_of_E_vanishes(self):
        # second-order central finite differences in Cartesian coordinates
        h = 1e-5
        for family in (TM, TE):
            K = ModeIndex(family, 2, 1.0, 2.0)
            for x0, y0, z0 in [(0.8, -0.4, 0.3), (1.6, 1.1, -0.7), (0.05, 2.0, 0.0)]:
                div = 0.0 + 0.0j
                for axis in range(3):
                    for s, coeff in ((1.0, 0.5 / h), (-1.0, -0.5 / h)):
                        q = [x0, y0, z0]
                        q[axis] += s * h
                        rho, phi = math.hypot(q[0], q[1]), math.atan2(q[1], q[0])
                        v = eval_E(K, CylPoint(rho, phi, q[2], 0.0), NORM)
                        div += coeff * v[axis]
                scale = np.abs(eval_E(K, CylPoint(math.hypot(x0, y0), math.atan2(y0, x0), z0), NORM)).max()
                assert abs(div) < 1e-5 * scale  # O(h^2) stencil accuracy

    def test_divergence_of_B_vanishes(self):
        h = 1e-5
        K = ModeIndex(TM, 1, 1.3, 1.9)
        x0, y0, z0 = 1.2, 0.5, -0.2
        div = 0.0 + 0.0j
        for axis in range(3):
            for s, coeff in ((1.0, 0.5 / h), (-1.0, -0.5 / h)):
                q = [x0, y0, z0]
                q[axis] += s * h
                rho, phi = math.hypot(q[0], q[1]), math.atan2(q[1], q[0])
                div += coeff * eval_B(K, CylPoint(rho, phi, q[2], 0.0), NORM)[axis]
        assert abs(div) < 1e-5

    def test_faraday_law(self):
        # curl E = -dB/(c dt) = i (w/c) B for the e^{-i w t} convention
        h = 1e-5
        K = ModeIndex(TM, 2, 1.0, 2.0)
        w = K.omega()
        x0, y0, z0 = 0.9, -0.6, 0.4

        def E_at(q):
            rho, phi = math.hypot(q[0], q[1]), math.atan2(q[1], q[0])
            return eval_E(K, CylPoint(rho, phi, q[2], 0.0), NORM)

        curl = np.zeros(3, dtype=complex)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            qp = [x0, y0, z0]
            qm = [x0, y0, z0]
            qp[j] += h
            qm[j] -= h
            dj_Ek = (E_at(qp)[k] - E_at(qm)[k]) / (2 * h)
            qp = [x0, y0, z0]
            qm = [x0, y0, z0]
            qp[k] += h
            qm[k] -= h
            dk_Ej = (E_at(qp)[j] - E_at(qm)[j]) / (2 * h)
            curl[i] = dj_Ek - dk_Ej
        B = eval_B(K, CylPoint(math.hypot(x0, y0), math.atan2(y0, x0), z0, 0.0), NORM)
        assert np.abs(curl - 1j * w * B).max() < 1e-5

    def test_potential_field_relation(self):
        # E = (i w / c) A pointwise
        for family in (TM, TE):
            K = ModeIndex(family, 1, 0.8, 1.5)
            w = K.omega()
            p = CylPoint(1.4, 0.6, -0.3, 0.2)
            A = eval_potential(K, p, NORM)
            E = eval_E(K, p, NORM)
            assert np.abs(E - 1j * w * A).max() < 1e-14


class TestAngularSpectrum:
    def test_scalar_identity(self):
        from besselbeams.specfun import bessel_j

        for m, rho, phi in [(0, 0.5, 0.1), (2, 2.0, -0.8), (-3, 4.0, 2.5)]:
            val = scalar_angular_spectrum(m, 1.3, rho, phi)
            ref = bessel_j(m, 1.3 * rho) * np.exp(1j * m * phi)
            assert abs(val - ref) < 1e-10

    def test_vector_identity(self):
        p = CylPoint(1.8, -0.7, 0.9, 0.25)
        for which, evaluator in (("M", eval_M), ("N", eval_N)):
            spec, n_nodes = angular_spectrum(which, 2, 1.0, 2.0, p)
            assert n_nodes == modes._ring_nodes(2, 1.0, p.rho)
            direct = evaluator(2, 1.0, 2.0, p)
            assert np.abs(spec.components - direct).max() < 1e-10


class TestTypesAndFrames:
    def test_mode_index_validation(self):
        with pytest.raises(ValueError):
            ModeIndex("XX", 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ModeIndex(TM, 0, -1.0, 1.0)
        with pytest.raises(ValueError):
            ModeIndex(TM, 0, 1.0, 0.0)
        with pytest.raises(ValueError):
            CylPoint(-0.1)

    def test_amplitude_positive_and_scaling(self):
        K = ModeIndex(TM, 0, 1.0, 2.0)
        a1 = NormalizationConvention().amplitude(K)
        a2 = NormalizationConvention(hbar=4.0).amplitude(K)
        assert a1 > 0
        assert a2 == pytest.approx(2.0 * a1, rel=1e-15)


def _seeded_wavenumbers(n, seed):
    """n seeded (k_perp, k_z) arrays, k_perp in [0.3, 2], |k_z| in [0.3, 3];
    numpy's hypot misses math.hypot's rounding on about 0.7% of them on an
    AVX-512 host."""
    rng = np.random.default_rng(seed)
    kz = rng.uniform(0.3, 3.0, n) * rng.choice((-1.0, 1.0), n)
    return rng.uniform(0.3, 2.0, n), kz


class TestOneOmega:
    @pytest.mark.parametrize("c", [1.0, 2.9, 0.37])
    def test_every_omega_equals_the_one_by_one_value_bitwise(self, c):
        kp, kz = _seeded_wavenumbers(20000, 44)
        want = np.array([omega(c, a, b) for a, b in zip(kp.tolist(), kz.tolist())])
        assert all(type(w) is float for w in want.tolist()[:10])
        assert same_bits(omega(c, kp, kz), want)
        assert same_bits(omega(c, kp.reshape(100, 200), kz.reshape(100, 200)), want.reshape(100, 200))
        assert same_bits(omega(c, kp, 2.0), np.array([omega(c, a, 2.0) for a in kp.tolist()]))
        Ks = [ModeIndex(TM, 0, a, b) for a, b in zip(kp.tolist(), kz.tolist())]
        assert same_bits(np.array([K.omega(c) for K in Ks]), want)
        lat = ModeLattice((0, 0), tuple(zip(kp.tolist(), kz.tolist())), c=c)
        assert same_bits(np.array(node_factors(lat, (1.0, (0, 0, 0, 0, 1)))), want)
        # every quantity built on omega: the amplitude and the M coefficient
        norm = NormalizationConvention(hbar=0.6, c=c)
        assert same_bits(norm.amplitude_grid(kp, kz), np.array([norm.amplitude(K) for K in Ks]))
        half = [mode_terms("M", 1, a, b, c)[0][2] for a, b in zip(kp.tolist(), kz.tolist())]
        assert same_bits(mode_terms("M", 1, kp, kz, c)[0][2], np.array(half))

    def test_omega_is_correctly_rounded(self):
        # hypot(a, b) rounds to nearest iff a^2 + b^2 lies between the squares
        # of the midpoints to its neighbouring floats, in exact arithmetic
        kp, kz = _seeded_wavenumbers(10000, 45)
        for a, b in zip(kp.tolist(), kz.tolist()):
            w = omega(1.0, a, b)
            s = Fraction(a) ** 2 + Fraction(b) ** 2
            lo = (Fraction(w) + Fraction(math.nextafter(w, 0.0))) / 2
            hi = (Fraction(w) + Fraction(math.nextafter(w, math.inf))) / 2
            assert lo * lo <= s <= hi * hi, (a, b)
