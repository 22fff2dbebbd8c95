"""Self-checks of the numpy kernels against plain reference ("fallback")
implementations written here: np.polyval for the values, the log of their
norm for lognorm, and a finite-difference Laplacian of that log-norm for
the Fubini-Study pullback density."""
import numpy as np
import pytest

import discenv
from discenv import kernels

# step of the five-point Laplacian: its truncation error is O(h^2) and
# its roundoff O(eps / h^2); at 1e-4 the density agrees to about 6e-6
# relative on these inputs
FD_STEP = 1e-4


def _random_inputs(seed, degree=7, m=3, n=512):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((degree + 1, m)) + \
        1j * rng.standard_normal((degree + 1, m))
    t = rng.uniform(0.05, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    return coeffs, t


def _fallback_eval_poly(coeffs, t):
    return np.stack([np.polyval(coeffs[::-1, j], t)
                     for j in range(coeffs.shape[1])], axis=1)


def _fallback_lognorm(coeffs, t):
    return np.log(np.linalg.norm(_fallback_eval_poly(coeffs, t), axis=1))


def _fallback_fs_density(coeffs, t, h=FD_STEP):
    u = [_fallback_lognorm(coeffs, t + s) for s in (h, -h, 1j * h, -1j * h)]
    return (sum(u) - 4.0 * _fallback_lognorm(coeffs, t)) / (h * h)


def test_backend_reported():
    assert kernels.BACKEND == "python"
    assert discenv.BACKEND == "python"


@pytest.mark.parametrize("seed", range(5))
def test_eval_poly_matches_fallback(seed):
    coeffs, t = _random_inputs(seed)
    assert np.allclose(kernels.eval_poly(coeffs, t),
                       _fallback_eval_poly(coeffs, t), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_lognorm_matches_fallback(seed):
    coeffs, t = _random_inputs(seed)
    assert np.allclose(kernels.lognorm(coeffs, t),
                       _fallback_lognorm(coeffs, t), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_fs_density_matches_fallback(seed):
    coeffs, t = _random_inputs(seed)
    dens, sq = kernels.fs_density(coeffs, t)
    assert np.allclose(sq, np.exp(2.0 * _fallback_lognorm(coeffs, t)),
                       rtol=1e-12)
    assert np.allclose(dens, _fallback_fs_density(coeffs, t),
                       rtol=1e-4, atol=1e-6)


def test_eval_poly_against_numpy_polyval():
    coeffs, t = _random_inputs(99, degree=5, m=2, n=64)
    vals = kernels.eval_poly(coeffs, t)
    for j in range(2):
        ref = np.polyval(coeffs[::-1, j], t)
        assert np.allclose(vals[:, j], ref, rtol=1e-12)


def test_constant_polynomial():
    coeffs = np.array([[2.0 + 1j, -1.0]])
    t = np.exp(2j * np.pi * np.arange(8) / 8)
    vals = kernels.eval_poly(coeffs, t)
    assert np.allclose(vals, coeffs[0])
    dens, sq = kernels.fs_density(coeffs, t)
    assert np.allclose(dens, 0.0)
    assert np.allclose(sq, 6.0)


def test_fs_density_nonnegative():
    coeffs, t = _random_inputs(3)
    dens, _sq = kernels.fs_density(coeffs, t)
    assert np.all(dens >= 0.0)
