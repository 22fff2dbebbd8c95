"""Closed analytic discs and the quadrature machinery on the unit disc.

Discs are polynomial maps of the closed unit disc into C^m \\ {0}, stored
by their coefficient vectors.  CompositeDisc divides a polynomial disc by
the exponential of a finite Taylor polynomial (used by the boundary
normalization procedure).  The quadratures are: equispaced nodes on the
unit circle (spectrally accurate means) and a tensor polar rule on the
disc whose radial variable is graded (r = s^3) so that the integrable
log|t| factor is handled to machine precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .errors import BoundaryZeroError, NumericalError, OriginViolation

DEFAULT_NODES = 1024
DEFAULT_RADIAL = 256
DEFAULT_ANGULAR = 512
DEFAULT_DELTA_MIN = 1e-8

# polar validation grid for the origin-avoidance invariant
_VALIDATION_RADIAL = 64
_VALIDATION_ANGULAR = 64


def _as_coeff_array(coeffs) -> np.ndarray:
    a = np.array(coeffs, dtype=np.complex128)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError("coeffs must be a (degree+1, m) array")
    return a


@dataclass(frozen=True)
class AnalyticDiscLift:
    """Polynomial disc f(t) = sum_k coeffs[k] t^k into C^m \\ {0}."""

    coeffs: np.ndarray
    delta_min: float = DEFAULT_DELTA_MIN

    def __post_init__(self):
        a = _as_coeff_array(self.coeffs)
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)
        if not self.delta_min > 0:
            raise ValueError("delta_min must be positive")

    @property
    def m(self) -> int:
        return self.coeffs.shape[1]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def center(self) -> np.ndarray:
        return np.array(self.coeffs[0])

    def __call__(self, t):
        return eval_disc(self, t)

    def scaled(self, lam: complex) -> "AnalyticDiscLift":
        return AnalyticDiscLift(self.coeffs * lam, delta_min=abs(lam) * self.delta_min)

    def reparametrized(self, r: complex) -> "AnalyticDiscLift":
        """Precompose with t -> r t (|r| <= 1)."""
        pw = r ** np.arange(self.degree + 1, dtype=np.complex128)
        return AnalyticDiscLift(self.coeffs * pw[:, None], delta_min=self.delta_min)

    def min_norm_on_grid(self, n_r: int = _VALIDATION_RADIAL,
                         n_theta: int = _VALIDATION_ANGULAR) -> float:
        t = validation_grid(n_r, n_theta)
        return float(np.exp(kernels.lognorm(self.coeffs, t)).min())

    def validate(self) -> float:
        mn = self.min_norm_on_grid()
        if mn < self.delta_min:
            raise OriginViolation(
                f"disc norm {mn:.3e} below declared floor {self.delta_min:.3e}")
        return mn

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "degree": self.degree,
            "coeffs": [[[float(c.real), float(c.imag)] for c in row]
                       for row in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AnalyticDiscLift":
        coeffs = np.array([[complex(c[0], c[1]) for c in row]
                           for row in obj["coeffs"]], dtype=np.complex128)
        d = cls(coeffs)
        if d.m != obj.get("m", d.m) or d.degree != obj.get("degree", d.degree):
            raise ValueError("disc JSON header inconsistent with coefficients")
        return d


@dataclass(frozen=True)
class CompositeDisc:
    """base(t) / exp(g(t)) with g a polynomial given by ``exponent``."""

    base: AnalyticDiscLift
    exponent: np.ndarray  # (K+1,) complex Taylor coefficients of g

    def __post_init__(self):
        e = np.array(self.exponent, dtype=np.complex128).reshape(-1)
        e.setflags(write=False)
        object.__setattr__(self, "exponent", e)

    @property
    def m(self) -> int:
        return self.base.m

    def exponent_values(self, t):
        t = np.asarray(t, dtype=np.complex128)
        return kernels.eval_poly(self.exponent[:, None], t.reshape(-1))[:, 0].reshape(t.shape)

    def __call__(self, t):
        return eval_disc(self, t)

    @property
    def center(self) -> np.ndarray:
        return self.base.center * np.exp(-self.exponent[0])

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "exponent": [[float(c.real), float(c.imag)] for c in self.exponent],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CompositeDisc":
        return cls(AnalyticDiscLift.from_json(obj["base"]),
                   np.array([complex(c[0], c[1]) for c in obj["exponent"]]))


@dataclass(frozen=True)
class BoundaryGrid:
    """N equispaced nodes on the unit circle, uniform weights 1/N."""

    n: int = DEFAULT_NODES
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("need at least 4 boundary nodes")
        theta = 2.0 * np.pi * np.arange(self.n) / self.n
        nodes = np.exp(1j * theta)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n, 1.0 / self.n)


@dataclass(frozen=True)
class AreaQuadrature:
    """Tensor polar rule on the unit disc.

    Radial: Gauss-Legendre in s on (0,1) mapped through r = s^3, which
    grades the nodes toward 0 and integrates h(r) log r to machine
    precision for analytic h.  Angular: equispaced (trapezoidal).
    Weights include the polar Jacobian, so sum(w * g(nodes)) ~ int_D g dA.

    Only the radial factors are built eagerly: ``radii`` and
    ``radial_weights`` (the weight of every node on that radius).  The
    flat node list, radius-major, and its ``weights`` and ``log_r`` are
    built on first use.
    """

    n_r: int = DEFAULT_RADIAL
    n_theta: int = DEFAULT_ANGULAR
    radii: np.ndarray = field(init=False, repr=False, compare=False)
    radial_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r, wr = _radial_rule(self.n_r)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "radial_weights",
                           _read_only(wr * (2.0 * np.pi / self.n_theta)))

    @property
    def angles(self) -> np.ndarray:
        """The n_theta equispaced angles, shared by every radius."""
        return 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta

    @cached_property
    def nodes(self) -> np.ndarray:
        return _read_only((self.radii[:, None] *
                           np.exp(1j * self.angles)[None, :]).reshape(-1))

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only(np.repeat(self.radial_weights, self.n_theta))

    @cached_property
    def log_r(self) -> np.ndarray:
        return _read_only(np.repeat(np.log(self.radii), self.n_theta))

    def integral(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=8)
def _radial_rule(n_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Radii r = s^3 of the n_r-point Gauss-Legendre rule in s on (0,1)
    and the weight factor of each radius, before the angular 2pi/n_theta;
    read-only and built once per n_r."""
    xs, ws = np.polynomial.legendre.leggauss(n_r)
    s = 0.5 * (xs + 1.0)
    ws = 0.5 * ws
    r = s ** 3
    wr = ws * 3.0 * s ** 2 * r  # dr = 3 s^2 ds, area element r dr
    return _read_only(r), _read_only(wr)


@lru_cache(maxsize=8)
def validation_grid(n_r: int = _VALIDATION_RADIAL,
                    n_theta: int = _VALIDATION_ANGULAR) -> np.ndarray:
    """Polar grid on the closed unit disc (includes r=0 and r=1);
    read-only, built once per size."""
    r = np.linspace(0.0, 1.0, n_r)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return _read_only((r[:, None] * np.exp(1j * theta)[None, :]).reshape(-1))


def disc_values(disc, t: np.ndarray) -> np.ndarray:
    """Values (N, m) of a disc at the points t (N,), unchecked: a plain
    disc's polynomial, or base / exp(g) for a CompositeDisc."""
    if isinstance(disc, CompositeDisc):
        vals = kernels.eval_poly(disc.base.coeffs, t)
        return vals / np.exp(disc.exponent_values(t))[:, None]
    return kernels.eval_poly(disc.coeffs, t)


def eval_disc(disc, t):
    """Evaluate a disc at points t with |t| <= 1 (+1e-12 slack)."""
    t_arr = np.asarray(t, dtype=np.complex128)
    flat = t_arr.reshape(-1)
    if np.any(np.abs(flat) > 1.0 + 1e-12):
        raise ValueError("evaluation point outside the closed unit disc")
    vals = disc_values(disc, flat)
    floor = (disc.base if isinstance(disc, CompositeDisc) else disc).delta_min
    norms = np.sqrt(np.einsum("ij,ij->i", vals, vals.conj()).real)
    if np.any(norms < 0.5 * floor):
        raise OriginViolation("disc value within delta_min/2 of the origin")
    return vals.reshape(t_arr.shape + (vals.shape[-1],))


def circle_mean(samples) -> float:
    """Mean of boundary samples against normalized arclength measure.

    Equispaced nodes make this the trapezoidal rule, spectrally accurate
    for smooth integrands.  -inf samples propagate to a -inf mean.
    """
    s = np.asarray(samples, dtype=float)
    if np.any(np.isnan(s)) or np.any(np.isposinf(s)):
        raise NumericalError("boundary samples contain NaN or +inf")
    if np.any(np.isneginf(s)):
        return float("-inf")  # singular boundary
    return float(s.mean())


def boundary_lognorms(disc, grid: BoundaryGrid) -> np.ndarray:
    if isinstance(disc, CompositeDisc):
        base = kernels.lognorm(disc.base.coeffs, grid.nodes)
        return base - disc.exponent_values(grid.nodes).real
    return kernels.lognorm(disc.coeffs, grid.nodes)


def fs_pullback_density(disc, t):
    """Density of the Fubini-Study pullback f*omega at t.

    Closed form 2(|f|^2|f'|^2 - |<f',f>|^2)/|f|^4; a CompositeDisc has the
    same density as its base (dividing by a zero-free scalar exp(g) changes
    log|f| by a harmonic function).
    """
    base = disc.base if isinstance(disc, CompositeDisc) else disc
    t_arr = np.asarray(t, dtype=np.complex128)
    scalar = t_arr.ndim == 0
    flat = t_arr.reshape(-1)
    dens, sq = kernels.fs_density(base.coeffs, flat)
    if np.any(np.sqrt(sq) < base.delta_min):
        raise OriginViolation("density evaluation too close to the origin")
    if scalar:
        return float(dens[0])
    return dens.reshape(t_arr.shape)


def riesz_area_term(disc, quad: AreaQuadrature | None = None) -> float:
    """(1/2pi) int_D log|t| * (FS pullback density) dA.

    By the Riesz representation of log|f| at 0 this equals
    log|f(0)| - circle_mean(log|f|); always <= 0.
    """
    quad = quad or AreaQuadrature()
    base = disc.base if isinstance(disc, CompositeDisc) else disc
    sums = _polar_density_sums(base.coeffs, base.delta_min, quad)
    radial = quad.radial_weights * np.log(quad.radii)
    return float(np.dot(radial, sums)) / (2.0 * np.pi)


# nodes per block of radii in _polar_density_sums: a block's values stay
# in cache, which makes it two to three times faster than whole-grid arrays
_AREA_BLOCK = 8192


def _polar_density_sums(coeffs: np.ndarray, delta_min: float,
                        quad: AreaQuadrature) -> np.ndarray:
    """Angular sums of the FS pullback density of the polynomial disc
    with these coefficients, one per radius of quad.

    On the tensor grid the values are matrix products: with R = r^k and
    E = e^{ik theta}, f_j = (R * c_j) @ E, and f'_j likewise from the
    first d powers and (k c_k)_j.  The density numerator
    |f|^2 |f'|^2 - |<f',f>|^2 is taken by Lagrange's identity as
    sum_{i<j} |f_i f'_j - f_j f'_i|^2, a sum of squares, so it is never
    negative and needs no clip.  Raises OriginViolation where |f| falls
    below delta_min at a node.
    """
    d1, m = coeffs.shape
    d = d1 - 1
    k = np.arange(d1)
    powers = quad.radii[:, None] ** k  # R, (n_r, d+1)
    waves = np.exp(1j * np.outer(k, quad.angles))  # E, (d+1, n_theta)
    c = coeffs.T[:, None, :]  # (m, 1, d+1)
    dc = (coeffs[1:] * k[1:, None]).T[:, None, :]  # (m, 1, d)
    rows = max(1, _AREA_BLOCK // quad.n_theta)
    sums = np.empty(quad.n_r)
    for a in range(0, quad.n_r, rows):
        rk = powers[a:a + rows]
        n = rk.shape[0]
        f = ((c * rk).reshape(m * n, d1) @ waves).reshape(m, n, -1)
        df = ((dc * rk[:, :d]).reshape(m * n, d) @ waves[:d]).reshape(m, n, -1)
        sq = (f.real ** 2 + f.imag ** 2).sum(axis=0)
        if np.sqrt(sq.min()) < delta_min:
            raise OriginViolation("area quadrature node too close to the origin")
        num = np.zeros_like(sq)
        for i in range(m):
            for j in range(i + 1, m):
                w = f[i] * df[j] - f[j] * df[i]
                num += w.real ** 2 + w.imag ** 2
        sums[a:a + n] = (num / (sq * sq)).sum(axis=1)
    return 2.0 * sums


def _newton_polish(coeffs_desc: np.ndarray, root: complex, steps: int = 2) -> complex:
    der = np.polyder(coeffs_desc)
    z = root
    for _ in range(steps):
        dz = np.polyval(der, z)
        if dz == 0:
            break
        z = z - np.polyval(coeffs_desc, z) / dz
    return z


def roots_in_unit_disc(p, boundary_margin: float = 1e-9,
                       cluster_tol: float = 1e-7):
    """Zeros of the polynomial p (ascending coefficients) inside |t| < 1.

    Companion-matrix eigenvalues, one Newton polish, clustering at
    cluster_tol for multiplicities; a cluster of size k is refined on the
    (k-1)-th derivative so multiple roots also reach ~1e-10 accuracy.
    Returns a list of (root, multiplicity).
    """
    a = np.asarray(p, dtype=np.complex128).reshape(-1)
    scale = np.abs(a).max()
    if scale == 0:
        raise ValueError("polynomial is identically zero")
    nz = np.nonzero(np.abs(a) > 1e-14 * scale)[0]
    a = a[: nz[-1] + 1]
    if a.size == 1:
        return []
    desc = a[::-1]
    raw = np.roots(desc)
    raw = np.array([_newton_polish(desc, z, 1) for z in raw])
    # cluster
    used = np.zeros(raw.size, dtype=bool)
    clusters = []
    order = np.argsort(np.abs(raw), kind="stable")
    for i in order:
        if used[i]:
            continue
        grp = [i]
        used[i] = True
        for j in order:
            if not used[j] and abs(raw[j] - raw[i]) < cluster_tol:
                grp.append(j)
                used[j] = True
        clusters.append(grp)
    out = []
    for grp in clusters:
        mult = len(grp)
        z = complex(np.mean(raw[grp]))
        if mult > 1:
            dcoef = desc
            for _ in range(mult - 1):
                dcoef = np.polyder(dcoef)
            z = _newton_polish(dcoef, z, 4)
        else:
            z = _newton_polish(desc, z, 2)
        if abs(abs(z) - 1.0) < boundary_margin:
            raise BoundaryZeroError(
                f"zero at {z} within {boundary_margin:g} of the unit circle")
        if abs(z) < 1.0:
            out.append((z, mult))
    return out


def winding_number(p, n: int = 4096) -> int:
    """Winding of t -> p(t) over the unit circle (argument principle)."""
    a = np.asarray(p, dtype=np.complex128).reshape(-1)
    t = np.exp(2j * np.pi * np.arange(n) / n)
    vals = kernels.eval_poly(a[:, None], t)[:, 0]
    ph = np.angle(vals)
    d = np.diff(np.concatenate([ph, ph[:1]]))
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(d.sum() / (2.0 * np.pi)))


def harmonic_extension_and_conjugate(g, r: float):
    """Harmonic extension u of boundary data g and its conjugate v,
    both sampled on the circle of radius r (0 < r < 1), via FFT Fourier
    multipliers r^|k| and -i sign(k); v is normalized by v(0) = 0.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("radius must lie in (0,1)")
    g = np.asarray(g, dtype=float)
    n = g.size
    ghat = np.fft.fft(g) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    damp = r ** np.abs(k)
    sign = np.sign(k)
    if n % 2 == 0:
        sign[n // 2] = 0.0  # Nyquist convention
    u = np.fft.ifft(ghat * damp * n).real
    v = np.fft.ifft(ghat * damp * (-1j) * sign * n).real
    return u, v


def holomorphic_completion_coeffs(g, r: float, max_degree: int | None = None) -> np.ndarray:
    """Taylor coefficients of the holomorphic h with Re h(t) = u(rt),
    Im h(t) = v(rt) on T and Im h(0) = 0, for boundary data g.

    h(t) = ghat_0 + 2 sum_{k>=1} ghat_k r^k t^k, truncated at n/2.
    """
    g = np.asarray(g, dtype=float)
    n = g.size
    ghat = np.fft.fft(g) / n
    kmax = n // 2 if max_degree is None else min(max_degree, n // 2)
    coeffs = np.zeros(kmax + 1, dtype=np.complex128)
    coeffs[0] = ghat[0]
    ks = np.arange(1, kmax + 1)
    coeffs[1:] = 2.0 * ghat[1: kmax + 1] * (float(r) ** ks)
    return coeffs


def random_disc(rng: np.random.Generator, m: int, degree: int,
                radius: float = 2.0, min_norm: float = 0.1,
                max_tries: int = 1000) -> AnalyticDiscLift:
    """Seeded random polynomial disc, rejection-sampled so the closed-disc
    norm stays above min_norm (keeps the quadratures well conditioned)."""
    for _ in range(max_tries):
        c = rng.standard_normal((degree + 1, m)) + 1j * rng.standard_normal((degree + 1, m))
        norms = np.sqrt(np.einsum("ij,ij->i", c, c.conj()).real)
        big = norms > radius
        if np.any(big):
            c[big] *= (radius / norms[big])[:, None]
        disc = AnalyticDiscLift(c)
        if disc.min_norm_on_grid() >= min_norm:
            return disc
    raise NumericalError("rejection sampling failed to produce a valid disc")
