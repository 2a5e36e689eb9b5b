"""Low-level transform utilities: differentiation, quadrature, interpolation."""

import numpy as np
import pytest

from trijunction import spectral as sp


def test_cheb_nodes_endpoints():
    x = sp.cheb_nodes(33)
    assert x[0] == 0.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0)


def test_derivative_exact_on_polynomials():
    x = sp.cheb_nodes(48)
    assert np.max(np.abs(sp.cheb_derivative_values(x ** 2, 2) - 2.0)) < 1e-12
    assert np.max(np.abs(sp.cheb_derivative_values(np.ones_like(x), 1))) == 0.0
    assert np.max(np.abs(sp.cheb_derivative_values(x ** 5, 1) - 5 * x ** 4)) < 1e-12


def test_derivative_spectral_on_analytic():
    x = sp.cheb_nodes(48)
    f = np.exp(2 * x)
    assert np.max(np.abs(sp.cheb_derivative_values(f, 2) - 4 * f)) < 1e-10


def test_interp_and_coefficients_roundtrip():
    x = sp.cheb_nodes(24)
    f = np.sin(3 * x) + x ** 2
    a = sp.cheb_coefficients(f)
    assert np.max(np.abs(sp.cheb_values(a) - f)) < 1e-14
    xq = np.array([0.0, 0.1331, 0.5, 0.99, 1.0])
    assert np.max(np.abs(sp.cheb_interp(f, xq) - (np.sin(3 * xq) + xq ** 2))) < 1e-12


def test_cheb_coefficients_match_cosine_sum():
    # a_n = (2 / N) sum'' f_j cos(pi n j / N), the outer terms (j and n at
    # 0 or N) halved: the DCT-I definition of the Lobatto series
    rng = np.random.default_rng(0)
    for nx in (2, 3, 8, 49):
        N = nx - 1
        j = np.arange(nx)
        half = np.where((j == 0) | (j == N), 0.5, 1.0)
        C = (2.0 / N) * half[:, None] * np.cos(np.pi * np.outer(j, j) / N) * half[None, :]
        for f in (rng.standard_normal(nx), rng.standard_normal((nx, 3))):
            a = sp.cheb_coefficients(f)
            assert a.shape == f.shape
            assert np.max(np.abs(a - C @ f)) < 1e-13 * max(1.0, np.max(np.abs(f))), nx
            assert np.max(np.abs(sp.cheb_values(a) - f)) < 1e-13 * np.max(np.abs(f)), nx


def test_coefficient_diff_matrix_matches_chebder():
    rng = np.random.default_rng(3)
    for nx in (8, 9, 48, 96):
        a = rng.standard_normal((nx, 4))
        for order in (1, 2):
            ref = np.polynomial.chebyshev.chebder(a, m=order, axis=0)
            got = sp.cheb_coefficient_diff_matrix(nx, order) @ a
            assert np.all(got[nx - order:] == 0.0)
            assert np.max(np.abs(got[:nx - order] - ref)) < 1e-13 * np.max(np.abs(ref)), \
                (nx, order)


def test_cumulative_integral():
    x = sp.cheb_nodes(32)
    cum = sp.cheb_cumulative_integral(3 * np.cos(3 * x))
    assert np.max(np.abs(cum - np.sin(3 * x))) < 1e-13
    assert cum[0] == pytest.approx(0.0, abs=1e-15)


def test_clenshaw_curtis_quadrature():
    n, w = sp.clenshaw_curtis(33)
    assert np.dot(w, n ** 6) == pytest.approx(1.0 / 7.0, abs=1e-14)
    assert np.dot(w, np.exp(n)) == pytest.approx(np.e - 1.0, abs=1e-13)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)


def test_fourier_roundtrip_and_derivatives():
    ny = 64
    y = sp.fourier_nodes(ny)
    f = 0.3 + 1.5 * np.cos(2 * np.pi * y) + 0.7 * np.sin(6 * np.pi * y)
    c, s = sp.fourier_coefficients(f)
    assert c[0] == pytest.approx(0.3)
    assert c[1] == pytest.approx(1.5)
    assert s[3] == pytest.approx(0.7)
    assert np.max(np.abs(sp.fourier_synthesis(c, s, ny) - f)) < 1e-14
    d2 = sp.fourier_derivative(f, 2)
    exact = (-(2 * np.pi) ** 2 * 1.5 * np.cos(2 * np.pi * y)
             - (6 * np.pi) ** 2 * 0.7 * np.sin(6 * np.pi * y))
    assert np.max(np.abs(d2 - exact)) < 1e-10


def test_trig_eval_off_grid():
    ny = 32
    y = sp.fourier_nodes(ny)
    f = np.cos(2 * np.pi * y) - 2 * np.sin(4 * np.pi * y)
    c, s = sp.fourier_coefficients(f)
    yq = np.array([0.05, 0.333, 0.77])
    expected = np.cos(2 * np.pi * yq) - 2 * np.sin(4 * np.pi * yq)
    assert np.max(np.abs(sp.trig_eval(c, s, yq) - expected)) < 1e-13


def test_nyquist_mode_handling():
    ny = 16
    y = sp.fourier_nodes(ny)
    f = np.cos(2 * np.pi * (ny // 2) * y)            # +-1 alternating
    c, s = sp.fourier_coefficients(f)
    assert c[-1] == pytest.approx(1.0)
    assert np.max(np.abs(sp.fourier_synthesis(c, s, ny) - f)) < 1e-14
    # odd derivative of the pure Nyquist mode is zero on the grid
    assert np.max(np.abs(sp.fourier_derivative(f, 1))) < 1e-12


def test_aliasing_fraction():
    ny = 64
    y = sp.fourier_nodes(ny)
    assert sp.aliasing_fraction(np.cos(2 * np.pi * y)) < 1e-30
    assert sp.aliasing_fraction(np.sin(2 * np.pi * 30 * y)) > 0.99
    assert sp.aliasing_fraction(np.zeros(ny)) == 0.0
