"""Low-level transform utilities: differentiation, quadrature, interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def cheb_values(coeffs):
    """Lobatto samples of a Chebyshev series: the cosine sum f_j = sum_m b_m cos(pi j m / N)."""
    b = np.asarray(coeffs, dtype=float)
    N = b.shape[0] - 1
    jm = np.outer(np.arange(N + 1), np.arange(N + 1))
    return np.cos(np.pi * (jm % (2 * N)) / N) @ b


def test_interp_and_coefficients_roundtrip():
    x = sp.cheb_nodes(24)
    f = np.sin(3 * x) + x ** 2
    a = sp.cheb_coefficients(f)
    assert np.max(np.abs(cheb_values(a) - f)) < 1e-14
    xq = np.array([0.0, 0.1331, 0.5, 0.99, 1.0])
    assert np.max(np.abs(sp.bary_matrix(24, xq) @ f - (np.sin(3 * xq) + xq ** 2))) < 1e-12


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
            assert np.max(np.abs(cheb_values(a) - f)) < 1e-13 * np.max(np.abs(f)), nx


def _dct_coefficients(values):
    # the FFT route the analysis matrix replaces: the real FFT of the even
    # extension (a DCT-I), scaled, the outer terms halved
    N = values.shape[0] - 1
    a = np.fft.rfft(np.concatenate([values, values[-2:0:-1]]), axis=0).real / N
    a[0] /= 2.0
    a[-1] /= 2.0
    return a


def _chopped(a):
    return np.where(np.abs(a) < 4.0 * np.finfo(float).eps * np.max(np.abs(a)), 0.0, a)


# f, f' and f'' on [0, 1]: entire, oscillating, high degree, a pole near the
# interval, and exact low-degree polynomials
_CHOP_FUNCTIONS = {
    "exp(x)": (np.exp, np.exp, np.exp),
    "cos 3x": (lambda x: np.cos(3 * x), lambda x: -3 * np.sin(3 * x),
               lambda x: -9 * np.cos(3 * x)),
    "x^20": (lambda x: x ** 20, lambda x: 20 * x ** 19, lambda x: 380 * x ** 18),
    "1/(1+x^2)": (lambda x: 1 / (1 + x ** 2), lambda x: -2 * x / (1 + x ** 2) ** 2,
                  lambda x: (6 * x ** 2 - 2) / (1 + x ** 2) ** 3),
    "0.3+0.7x": (lambda x: 0.3 + 0.7 * x, lambda x: np.full_like(x, 0.7), np.zeros_like),
    "x^2": (lambda x: x ** 2, lambda x: 2 * x, lambda x: np.full_like(x, 2.0)),
    "constant": (lambda x: np.full_like(x, -1.3), np.zeros_like, np.zeros_like),
}


@pytest.mark.parametrize("nx", [8, 9, 32, 48, 96, 128, 144])
def test_cheb_analysis_keeps_the_dct_chop(nx):
    x = sp.cheb_nodes(nx)
    for name, derivs in _CHOP_FUNCTIONS.items():
        f = derivs[0](x)
        ref = _dct_coefficients(f)
        a = sp.cheb_coefficients(f)
        assert np.max(np.abs(a - ref)) <= 1e-14 * np.max(np.abs(ref)), (nx, name)
        # the same coefficients survive the 4-eps chop of the derivative pass
        assert np.array_equal(_chopped(a) != 0.0, _chopped(ref) != 0.0), (nx, name)
        for k in (1, 2):
            exact = derivs[k](x)
            ref_k = (-2.0) ** k * cheb_values(sp.cheb_coefficient_diff_matrix(nx, k)
                                              @ _chopped(ref))
            err = np.max(np.abs(sp.cheb_derivative_values(f, k) - exact))
            err_ref = np.max(np.abs(ref_k - exact))
            assert err <= 4.0 * err_ref + 1e-15 * max(1.0, np.max(np.abs(exact))), \
                (nx, name, k, err, err_ref)


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


def _transform_route(values, k):
    # the route the synthesis matrix replaces: chop, differentiate the
    # coefficients, then one inverse DCT-I per order
    n = values.shape[0]
    a = sp.cheb_coefficients(values)
    scale = np.max(np.abs(a), axis=0, keepdims=True)
    a = np.where(np.abs(a) < 4.0 * np.finfo(float).eps * scale, 0.0, a).reshape(n, -1)
    b = sp.cheb_coefficient_diff_matrix(n, k) @ a
    return ((-2.0) ** k * cheb_values(b)).reshape(values.shape)


@pytest.mark.parametrize("nx", [8, 9, 33, 48, 96, 97])
def test_synthesis_matrix_matches_transform_route(nx):
    rng = np.random.default_rng(nx)
    x = sp.cheb_nodes(nx)
    for f in (rng.standard_normal(nx), rng.standard_normal((nx, 5)), np.exp(2 * x),
              np.outer(np.sin(3 * x), rng.standard_normal(4))):
        refs = {k: _transform_route(f, k) for k in (1, 2)}
        both = sp.cheb_derivative_values(f, (1, 2))
        assert both.shape == (2,) + f.shape
        for j, k in enumerate((1, 2)):
            bound = 1e-13 * np.max(np.abs(refs[k]))
            assert np.max(np.abs(sp.cheb_derivative_values(f, k) - refs[k])) <= bound, (nx, k)
            assert np.max(np.abs(both[j] - refs[k])) <= bound, (nx, k)
    for const in (np.full(nx, 3.7), np.full((nx, 3), -0.25)):
        for order in (1, 2, (1, 2)):
            assert np.all(sp.cheb_derivative_values(const, order) == 0.0), (nx, order)
    # a (3, nx, 4) stack reads its node axis second to last: each (nx, 4)
    # slab comes out bit for bit as it does alone
    stack = rng.standard_normal((3, nx, 4))
    for s, slab in enumerate(stack):
        assert np.array_equal(sp.cheb_coefficients(stack)[s], sp.cheb_coefficients(slab))
        for order in (1, 2, (1, 2)):
            assert np.array_equal(sp.cheb_derivative_values(stack, order)[..., s, :, :],
                                  sp.cheb_derivative_values(slab, order)), (nx, s, order)


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
    assert np.max(np.abs(sp.fourier_interpolate(f, y) - f)) < 1e-14
    d2 = sp.fourier_derivative(f, 2)
    exact = (-(2 * np.pi) ** 2 * 1.5 * np.cos(2 * np.pi * y)
             - (6 * np.pi) ** 2 * 0.7 * np.sin(6 * np.pi * y))
    assert np.max(np.abs(d2 - exact)) < 1e-10


def _one_order_derivative(values, m):
    # one rfft/irfft pair per order, odd orders dropping the Nyquist mode
    n = values.shape[-1]
    k = np.arange(n // 2 + 1)
    factor = (2j * np.pi * k) ** m
    if m % 2 == 1 and n % 2 == 0:
        factor[-1] = 0.0
    return np.fft.irfft(np.fft.rfft(values) * factor, n=n)


@pytest.mark.parametrize("n", [16, 17])
def test_fourier_derivative_is_one_transform_pair(n):
    rng = np.random.default_rng(n)
    for values in (rng.standard_normal((5, n)), rng.standard_normal((3, 5, n))):
        for m in (1, 2, 3):
            ref = _one_order_derivative(values, m)
            assert np.array_equal(sp.fourier_derivative(values, m), ref), (n, values.shape, m)
    if n % 2 == 0:
        # odd orders zero the Nyquist mode, even orders keep it
        nyq = np.cos(np.pi * np.arange(n))
        d1, d2 = sp.fourier_derivative(nyq, 1), sp.fourier_derivative(nyq, 2)
        assert np.max(np.abs(d1)) < 1e-12
        assert np.max(np.abs(d2 + (np.pi * n) ** 2 * nyq)) < 1e-9 * (np.pi * n) ** 2


def _trig_polynomial(t, n):
    """A closed-form trig polynomial with modes below n / 2, its value at t."""
    return (0.3 + np.cos(2 * np.pi * t) - 2 * np.sin(4 * np.pi * t)
            + 0.5 * np.cos(2 * np.pi * (n // 2 - 1) * t + 0.4))


@pytest.mark.parametrize("n", [16, 17, 32, 64, 128, 256])
def test_fourier_interpolate_reproduces_the_node_values(n):
    # white data: the phase is reduced mod 1 before the 2 pi product, so on
    # the exact nodes j/n of a power-of-two n it rounds to about eps whatever
    # k; an unreduced 2 pi k y carries round-off of order k eps (1.3e-13 at
    # n = 256)
    v = np.random.default_rng(n).standard_normal((3, 5, n))
    assert np.max(np.abs(sp.fourier_interpolate(v, sp.fourier_nodes(n)) - v)) <= 1e-14


@pytest.mark.parametrize("n", [32, 33])
def test_fourier_interpolate_off_grid(n):
    f = _trig_polynomial(sp.fourier_nodes(n), n)
    yq = np.array([0.05, 0.333, 0.77, -0.4, 1.25])
    assert np.max(np.abs(sp.fourier_interpolate(f, yq) - _trig_polynomial(yq, n))) < 1e-13


def test_nyquist_mode_handling():
    ny = 16
    y = sp.fourier_nodes(ny)
    f = np.cos(np.pi * ny * y)                       # +-1 alternating
    # off the grid the Nyquist mode is the cosine, not a mix with its sine
    yq = np.array([0.01, 0.1, 0.37, 0.5, 0.93])
    assert np.max(np.abs(sp.fourier_interpolate(f, yq) - np.cos(np.pi * ny * yq))) < 1e-13
    # odd derivative of the pure Nyquist mode is zero on the grid
    assert np.max(np.abs(sp.fourier_derivative(f, 1))) < 1e-12


def test_fourier_interpolate_takes_leading_axes_and_any_query_shape():
    rng = np.random.default_rng(3)
    n = 10
    coeffs = rng.standard_normal((2, 3, 2))          # (2, 3) rows, a cos and a sin of mode 2
    rows = lambda t: (coeffs[..., :1] * np.cos(4 * np.pi * t.reshape(-1))
                      + coeffs[..., 1:] * np.sin(4 * np.pi * t.reshape(-1)))
    yq = rng.uniform(-1.0, 2.0, (4, 5))
    out = sp.fourier_interpolate(rows(sp.fourier_nodes(n)), yq)
    assert out.shape == (2, 3, 4, 5)
    assert np.max(np.abs(out - rows(yq).reshape(out.shape))) < 1e-13
    assert sp.fourier_interpolate(rows(sp.fourier_nodes(n)), 0.3).shape == (2, 3)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 48), data=st.data())
def test_fourier_interpolate_is_exact_on_band_limited_data(n, data):
    # any trig polynomial of modes below n / 2, and the Nyquist cosine on an
    # even grid, is its own interpolant
    K = (n - 1) // 2
    unit = st.floats(-1.0, 1.0)
    c = np.array(data.draw(st.lists(unit, min_size=K + 1, max_size=K + 1)))
    s = np.array(data.draw(st.lists(unit, min_size=K + 1, max_size=K + 1)))
    nyq = data.draw(unit) if n % 2 == 0 else 0.0
    yq = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8)))

    def f(t):
        k = np.arange(K + 1)
        return (np.cos(2 * np.pi * np.outer(t, k)) @ c + np.sin(2 * np.pi * np.outer(t, k)) @ s
                + nyq * np.cos(np.pi * n * t))
    scale = 1.0 + np.abs(c).sum() + np.abs(s).sum() + abs(nyq)
    assert np.max(np.abs(sp.fourier_interpolate(f(sp.fourier_nodes(n)), yq) - f(yq))) \
        <= 1e-13 * scale


def _aliasing_fraction(values):
    return sp.aliasing_fraction(np.fft.rfft(values), values.shape[-1])


def test_aliasing_fraction():
    ny = 64
    y = sp.fourier_nodes(ny)
    assert _aliasing_fraction(np.cos(2 * np.pi * y)) < 1e-30
    assert _aliasing_fraction(np.sin(2 * np.pi * 30 * y)) > 0.99
    assert _aliasing_fraction(np.zeros(ny)) == 0.0


@pytest.mark.parametrize("shape", [(64,), (63,), (5, 32), (5, 33)])
def test_aliasing_fraction_is_the_rfft_energy_fraction(shape):
    # Parseval: the rfft energies |A_0|^2, 2 |A_k|^2 and, on an even grid,
    # |A_K|^2 at the Nyquist mode
    n = shape[-1]
    v = np.random.default_rng(n).standard_normal(shape)
    A = np.fft.rfft(v, axis=-1)
    weight = np.full(A.shape[-1], 2.0)
    weight[0] = 1.0
    if n % 2 == 0:
        weight[-1] = 1.0
    energy = weight * np.abs(A) ** 2
    ref = energy[..., (2 * (n // 2)) // 3 + 1:].sum() / energy.sum()
    assert _aliasing_fraction(v) == pytest.approx(ref, rel=1e-13)
    # 2^1000 A squares past the float range: the fraction is still A's, bit
    # for bit, and no overflow warning is raised
    assert np.abs(A * 2.0 ** 1000).max() > 2.0 ** 512
    assert sp.aliasing_fraction(A * 2.0 ** 1000, n) == _aliasing_fraction(v)
