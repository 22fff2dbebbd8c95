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

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .errors import BoundaryZeroError, NumericalError, OriginViolation
from .projective import vec_from_json, vec_to_json

DEFAULT_NODES = 1024
DEFAULT_RADIAL = 256
DEFAULT_ANGULAR = 512
DEFAULT_DELTA_MIN = 1e-8

# polar validation grid for the origin-avoidance invariant
_VALIDATION_RADIAL = 64
_VALIDATION_ANGULAR = 64

# roots_in_unit_disc polishes roots closer than this as one cluster
_CLUSTER_TOL = 1e-7
# random_disc: coefficient rows scaled into norm 2, least norm on the
# validation grid at least 0.1, at most 1000 draws
_RANDOM_RADIUS, _RANDOM_MIN_NORM, _RANDOM_TRIES = 2.0, 0.1, 1000


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
        """Least norm of the disc over validation_grid(n_r, n_theta); one
        sqrt is taken, of the least squared norm."""
        d = self.degree
        # f_j = (r^k c_jk) @ E^T with E = e^{ik theta}: one product for all
        # coordinates, its rows power-major as the tables are
        radial = power_table(_validation_radii, n_r, d).T
        c = (radial[:, None, :] * self.coeffs[:, :, None]).reshape(d + 1, -1)
        f = (c.T @ circle_powers(n_theta, d).T).reshape(self.m, -1)
        # |f|^2 one coordinate at a time, from Re^2 + Im^2 squared in place:
        # temporaries of all m coordinates' size, once freed, let glibc trim
        # the heap at m = 3, and every call faulted their pages in again
        sq = f.view(np.float64)
        np.square(sq, out=sq)
        norm2 = sq[0, 0::2] + sq[0, 1::2]
        for q in sq[1:]:
            norm2 += q[0::2] + q[1::2]
        return float(np.sqrt(norm2.min()))

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "degree": self.degree,
            "coeffs": [vec_to_json(row) for row in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AnalyticDiscLift":
        coeffs = np.array([vec_from_json(row) for row in obj["coeffs"]],
                          dtype=np.complex128)
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

    def exponent_on_grid(self, grid: "BoundaryGrid") -> np.ndarray:
        """g at the grid's n nodes, shape (n,), by node_values_fft: the
        exponent of a normalized disc has up to n/2 + 1 terms, so a power
        table would be the n x (n/2 + 1) DFT matrix."""
        return node_values_fft(self.exponent, grid.n)

    def __call__(self, t):
        return eval_disc(self, t)

    @property
    def center(self) -> np.ndarray:
        return self.base.center * np.exp(-self.exponent[0])

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "exponent": vec_to_json(self.exponent),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CompositeDisc":
        return cls(AnalyticDiscLift.from_json(obj["base"]),
                   vec_from_json(obj["exponent"]))


@dataclass(frozen=True)
class BoundaryGrid:
    """N equispaced nodes on the unit circle, uniform weights 1/N."""

    n: int = DEFAULT_NODES
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("need at least 4 boundary nodes")
        object.__setattr__(self, "nodes", _circle_nodes(self.n))

    @property
    def weights(self) -> np.ndarray:
        return np.full(self.n, 1.0 / self.n)

    def powers(self, degree: int) -> np.ndarray:
        """The table t^k (n, degree+1) at the nodes."""
        return circle_powers(self.n, degree)


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
        if self.n_r < 1 or self.n_theta < 1:
            raise ValueError(f"an area quadrature needs n_r >= 1 and "
                             f"n_theta >= 1, not {self.n_r} x {self.n_theta}")
        r, wr = _radial_rule(self.n_r)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "radial_weights",
                           _read_only(wr * (2.0 * np.pi / self.n_theta)))

    @cached_property
    def nodes(self) -> np.ndarray:
        return _read_only((self.radii[:, None] *
                           _circle_nodes(self.n_theta)[None, :]).reshape(-1))

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
def _circle_nodes(n: int) -> np.ndarray:
    """The n equispaced nodes e^{2 pi i j/n} of BoundaryGrid(n), read-only."""
    theta = 2.0 * np.pi * np.arange(n) / n
    return _read_only(np.exp(1j * theta))


# power tables are built _TABLE_COLUMNS powers at a time and sliced, so
# discs of degree 0 to 7 share one table per node set; power k is x^k
# whatever the width, so a slice has the bits of a table of its own
_TABLE_COLUMNS = 8


@lru_cache(maxsize=32)
def _power_table(points, n: int, width: int) -> np.ndarray:
    # stored power-major, row k = x^k, so that the disc products read the
    # transposes of the tables contiguously
    return _read_only(points(n)[None, :] ** np.arange(width)[:, None])


def power_table(points, n: int, degree: int) -> np.ndarray:
    """The table x^k (len(x), degree+1) of the points x = points(n) of a
    fixed node set (points is a module-level function), built once."""
    width = -(-(degree + 1) // _TABLE_COLUMNS) * _TABLE_COLUMNS
    return _power_table(points, n, width)[:degree + 1].T


def circle_powers(n: int, degree: int) -> np.ndarray:
    """The one table e^{ik theta_j} (n, degree+1) of the n equispaced nodes,
    shared by BoundaryGrid(n) and every polar node set with n angles."""
    return power_table(_circle_nodes, n, degree)


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


def _area_radii(n_r: int) -> np.ndarray:
    return _radial_rule(n_r)[0]


def _validation_radii(n_r: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n_r)


@lru_cache(maxsize=8)
def validation_grid(n_r: int = _VALIDATION_RADIAL,
                    n_theta: int = _VALIDATION_ANGULAR) -> np.ndarray:
    """Polar grid on the closed unit disc (includes r=0 and r=1), radius
    major; read-only, built once per size."""
    return _read_only((_validation_radii(n_r)[:, None] *
                       _circle_nodes(n_theta)[None, :]).reshape(-1))


def node_values_fft(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Values (n,) at the n nodes of BoundaryGrid(n) of the polynomial with
    Taylor coefficients coeffs (1-D), by one inverse FFT; on the nodes
    t^k = t^(k mod n), so the coefficients fold modulo n first."""
    size = len(coeffs)
    folded = np.zeros(-(-size // n) * n, dtype=np.complex128)
    folded[:size] = coeffs
    return np.fft.ifft(folded.reshape(-1, n).sum(axis=0), norm="forward")


def disc_values(disc, t: np.ndarray) -> np.ndarray:
    """Values (N, m) of a disc at arbitrary points t (N,), unchecked, by
    Horner: a plain disc's polynomial, or base / exp(g) for a
    CompositeDisc.  On a BoundaryGrid use grid_values."""
    if isinstance(disc, CompositeDisc):
        vals = kernels.eval_poly(disc.base.coeffs, t)
        return vals / np.exp(disc.exponent_values(t))[:, None]
    return kernels.eval_poly(disc.coeffs, t)


def grid_values(disc, grid: BoundaryGrid) -> np.ndarray:
    """Values (n, m) of a disc at the grid's nodes, unchecked: the grid's
    cached power table times the coefficients, or base / exp(g) for a
    CompositeDisc."""
    if isinstance(disc, CompositeDisc):
        return grid_values(disc.base, grid) / \
            np.exp(disc.exponent_on_grid(grid))[:, None]
    return grid.powers(disc.degree) @ disc.coeffs


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


def neg_log_center_norm(disc) -> float:
    """-log|f(0)| of a disc or a CompositeDisc.  Raises OriginViolation
    where |f(0)| < delta_min (a CompositeDisc's base is tested: dividing
    by exp(g) scales |f(0)| and the floor alike)."""
    base = disc.base if isinstance(disc, CompositeDisc) else disc
    if float(np.linalg.norm(base.center)) < base.delta_min:
        raise OriginViolation(f"disc center within {base.delta_min:g} of the origin")
    return -math.log(float(np.linalg.norm(disc.center)))


def circle_mean(samples) -> float:
    """Mean of boundary samples against normalized arclength measure.

    Equispaced nodes make this the trapezoidal rule, spectrally accurate
    for smooth integrands.  -inf samples propagate to a -inf mean.
    """
    s = np.asarray(samples, dtype=float)
    mean = float(s.mean())
    if math.isfinite(mean):  # no sample is NaN or infinite
        return mean
    if np.isnan(s).any() or (s == math.inf).any():
        raise NumericalError("boundary samples contain NaN or +inf")
    if (s == -math.inf).any():
        return -math.inf  # singular boundary
    return mean  # finite samples whose sum overflows


def boundary_lognorms(disc, grid: BoundaryGrid) -> np.ndarray:
    """log|f| at the grid's nodes; a CompositeDisc's is log|base| - Re g."""
    if isinstance(disc, CompositeDisc):
        return boundary_lognorms(disc.base, grid) - \
            disc.exponent_on_grid(grid).real
    return kernels.row_lognorms(grid_values(disc, grid))


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
# in cache.  Of 4096 to 32768 nodes, 16384 was fastest or tied on both
# identity-check grids (256 x 512, 512 x 1024; 2 cores, one BLAS thread),
# and whole-grid arrays took 1.8 to 2.4 times as long
_AREA_BLOCK = 16384


def _polar_density_sums(coeffs: np.ndarray, delta_min: float,
                        quad: AreaQuadrature) -> np.ndarray:
    """Angular sums of the FS pullback density of the polynomial disc
    with these coefficients, one per radius of quad.

    On each circle |t| = r both factors of the density
    2 num / sq^2 are real trigonometric polynomials in theta, with exact
    coefficients from _trig_rows: sq = |f|^2 (degree d) and, by Lagrange's
    identity, num = |f|^2 |f'|^2 - |<f',f>|^2 = sum_{i<j} |W_ij|^2 with
    W_ij = f_i f'_j - f_j f'_i (degree 2d - 1, coefficients by
    convolution).  _angle_counts gives each circle the fewest of the
    n_theta angles proven to give its n_theta-angle sum; radii with one
    count form contiguous runs, and each block of a run takes one real
    product per factor against the cos and sin rows of the run's angles
    (columns of _trig_table, built once per node set), and one divide of
    num by sq^2.  A run of all n_theta angles sums as
    the fixed rule does.

    The rounding error of sq is about eps (sum_k |c_k| r^k)^2, so the
    density's relative error grows as eps (sum_k |c_k| r^k)^2 / |f|^2,
    where evaluating f itself gives eps sum_k |c_k| r^k / |f|.  Raises
    OriginViolation where sq at a node is below delta_min^2 plus that
    bound (4 (d + 1 + m) eps (sum_k |c_k|)^2): there |f| cannot be told
    from a value below delta_min.  Only circles proven to clear that
    floor between nodes are summed on fewer angles, so the same discs
    raise as on all n_theta angles.
    """
    d1, m = coeffs.shape
    d = d1 - 1
    dc = coeffs[1:] * np.arange(1, d1)[:, None]  # coefficients of f'
    pairs = list(itertools.combinations(range(m), 2)) if d else []
    w = np.array([np.convolve(coeffs[:, i], dc[:, j]) -
                  np.convolve(coeffs[:, j], dc[:, i]) for i, j in pairs],
                 dtype=np.complex128).reshape(len(pairs), max(2 * d, 1)).T
    top = len(w) - 1  # the degree of num, and at least that of sq
    # tables to degree 15 at least: one table per node set serves every
    # disc of degree 0 to 8, so a run over such discs builds each once
    span = max(top, 2 * _TABLE_COLUMNS - 1)
    radial = power_table(_area_radii, quad.n_r, span)[:, :top + 1]
    radial = np.hstack([radial, radial[:, top:] * radial[:, 1:]])  # to 2 top
    sq_rows, num_rows = _trig_rows(coeffs, radial), _trig_rows(w, radial)
    scale = np.linalg.norm(coeffs, axis=1).sum()
    floor = delta_min ** 2 + 4 * (d1 + m) * np.finfo(float).eps * scale ** 2
    n = quad.n_theta
    counts = _angle_counts(sq_rows, num_rows, floor, n)
    table = _trig_table(n, span)[:2 * top + 2]
    ends = np.append(np.flatnonzero(np.diff(counts)) + 1, quad.n_r)
    sums = np.empty(quad.n_r)
    start = 0
    for stop in ends:
        k = int(counts[start])
        trig = _trig_columns(table, k)
        rows = max(1, _AREA_BLOCK // k)
        # row sums as one BLAS product per block, scaled by the exact
        # power of two n / k to the n-angle sum
        ones = np.full(k, n / k)
        for a in range(start, stop, rows):
            b = min(a + rows, stop)
            sq = sq_rows[a:b] @ trig[:2 * d1]
            if sq.min() < floor:
                raise OriginViolation(
                    "area quadrature node too close to the origin")
            num = num_rows[a:b] @ trig
            sq *= sq  # after the origin check, which reads |f|^2 itself
            num /= sq
            sums[a:b] = num @ ones
        start = stop
    return 2.0 * sums


@lru_cache(maxsize=4)
def _trig_table(n: int, span: int) -> np.ndarray:
    """The rows cos(p theta_j), sin(p theta_j), p = 0..span, interleaved (the
    row order of _trig_rows), at the n equispaced angles; read-only and
    built once per node set from circle_powers."""
    e = circle_powers(n, span).T
    return _read_only(np.stack([e.real, e.imag], axis=1).reshape(-1, n))


def _trig_columns(table: np.ndarray, k: int) -> np.ndarray:
    """The columns of every (n / k)-th angle of a table over n angles: the
    table itself for k = n, else one contiguous copy for the products."""
    n = table.shape[1]
    return table if k == n else np.ascontiguousarray(table[:, ::n // k])


# _angle_counts bounds the integrand on the strips |Im theta| <= y, y in
# _STRIPS, and sums no circle on fewer than _MIN_ANGLES angles; a strip
# with p y > _MAX_EXPONENT for a harmonic p of the integrand is not used
# (cosh(p y) would overflow)
_STRIPS = (1 / 32, 1 / 8, 1 / 2, 2.0)
_MIN_ANGLES = 8
_MAX_EXPONENT = 700.0


def _angle_counts(sq_rows: np.ndarray, num_rows: np.ndarray, floor: float,
                  n: int) -> np.ndarray:
    """Per radius, the number k of equispaced angles on which the circle's
    density g = num / sq^2 is summed: the least k = n / 2^j >= _MIN_ANGLES
    whose trapezoid sum is proven to be within 8 eps, relative, of the
    n-angle sum, or n; then the running maximum over the radii, which
    increase.  The bound reads only the coefficients.

    The rows are those of _trig_rows, a_p and b_p against cos(p theta) and
    sin(p theta).  On |Im theta| <= y, |a_p cos p theta + b_p sin p theta|
    <= c_p cosh(py) with c_p = |a_p + i b_p|.  So on one circle, with the
    amplitudes c_p of sq and n_p of num:
      - |sq| >= lo(y) = a_0 - sum_{p>=1} c_p cosh(py) - slack sum_p c_p,
        the last term a rounding allowance; and |num| <= N(y) =
        sum_p n_p cosh(py).  Where lo(y) > 0, |g| <= M(y) = N(y) / lo(y)^2;
      - the k-angle trapezoid sum T_k of the integral I over [0, 2 pi]
        then has |T_k - I| <= B_k = 4 pi M / (e^{yk} - 1) (Trefethen &
        Weideman, SIAM Review 56 (2014), Thm 3.2), and B_n <= B_k;
      - num >= 0 up to rounding and sq <= sum_p c_p, so I >= I_lo =
        2 pi (a_0(num) / (sum_p c_p)^2 - slack sum_p n_p / lo(0)^2).
    |T_k - T_n| <= 2 B_k and T_n >= I_lo - B_k, so B_k <= 4 eps I_lo /
    (1 + 4 eps) for some strip proves |T_k - T_n| <= 8 eps T_n.  A circle
    is certified only where lo(0) > floor, the origin check's floor: sq
    at its n nodes, as computed, is then above it too.
    """
    eps = np.finfo(float).eps
    consts = _strip_constants(sq_rows.shape[1] // 2, num_rows.shape[1] // 2, n)
    if consts is None:
        return np.full(len(sq_rows), n)
    ys, ch, sq_w, cand, slack = consts
    # radii run along the last axis, so that every reduction is over a
    # short leading axis.  Rows, per radius: sum_p c_p, then lo(y) for
    # y = 0 and each strip; and N(y) for y = 0 (sum_p n_p) and each strip
    sq_b = sq_w @ np.abs(sq_rows.view(np.complex128)).T
    num_b = ch @ np.abs(num_rows.view(np.complex128)).T
    lo, gap = sq_b[1], sq_b[2:]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # I_lo / 2 pi
        i_lo = num_rows[:, 0] / sq_b[0] ** 2 - slack * num_b[0] / lo ** 2
        ok = (lo > floor) & (i_lo > 0)
        bound = np.where(gap > 0, num_b[1:] / (gap * gap), np.inf)  # M(y)
        # e^{yk} - 1 >= pi M (1 + 4 eps) / (eps I_lo) for k >= need
        need = (np.log1p(bound * ((1 + 4 * eps) / (2 * eps) /
                                  np.where(ok, i_lo, 1.0))) /
                ys[:, None]).min(axis=0)
    k = cand[np.searchsorted(cand[:-1], np.where(ok, need, np.inf))]
    return np.maximum.accumulate(k)


@lru_cache(maxsize=16)
def _strip_constants(d1: int, top1: int, n: int):
    """_angle_counts' constants for sq of degree d1 - 1 and num of degree
    top1 - 1 on n angles, read-only and built once: the strips y, the
    table cosh(p y) (a row of ones, y = 0, first), the weight rows of sum_p
    c_p and lo(y), the candidate counts k, ascending and ending in n, and
    the rounding allowance per unit amplitude.  None where no strip or no
    count below n can be used."""
    p = np.arange(top1, dtype=float)
    ys = np.array([y for y in _STRIPS if y * p[-1] <= _MAX_EXPONENT])
    ks = [n >> j for j in range(1, n.bit_length())
          if (n >> j) << j == n and n >> j >= _MIN_ANGLES]
    if not ks or not len(ys):
        return None
    slack = 16 * (top1 + 1) * np.finfo(float).eps
    ch = np.cosh(np.outer(np.append(0.0, ys), p))
    w = -ch[:, :d1] - slack
    w[:, 0] = 1.0 - slack
    return (_read_only(ys), _read_only(ch), _read_only(np.vstack([np.ones(d1), w])),
            _read_only(np.append(ks[::-1], n)), slack)


def _trig_rows(w: np.ndarray, radial: np.ndarray) -> np.ndarray:
    """Coefficients of |w(r e^{i theta})|^2 as a real trigonometric
    polynomial, for the polynomial w (D+1, k) and one radius per row of
    the table r^n (n_r, >= 2D+1): row i of the (n_r, 2D+2) result
    against the rows cos(p theta), sin(p theta), p = 0..D, gives the
    values.

    |w|^2 = sum_p S_p(r) e^{ip theta} with the autocorrelations
    S_p(r) = sum_l G[l+p, l] r^(2l+p) of the Gram matrix G = w w^H, and
    S_{-p} the conjugate of S_p, so
    |w|^2 = Re(S_0 + 2 sum_{p>0} S_p e^{ip theta}).
    """
    d1 = len(w)
    g = w @ w.conj().T
    k, l, power, p, weight = _gram_map(d1)
    a = np.zeros((2 * d1 - 1, d1), dtype=np.complex128)
    a[power, p] = weight * g[k, l]
    # Re(S e^{ip theta}) = Re S cos - Im S sin: conj(S) viewed as real
    # pairs, from the real radial table times conj(a) viewed as real pairs
    return radial[:, :2 * d1 - 1] @ np.conj(a).view(np.float64)


@lru_cache(maxsize=16)
def _gram_map(d1: int) -> tuple:
    """_trig_rows' index map for a (d1, d1) Gram matrix, read-only and built
    once: its lower triangle (k, l), the power k + l of r and the harmonic
    k - l of each entry, and its weight, 1 on the diagonal and 2 below."""
    k, l = np.tril_indices(d1)
    return tuple(_read_only(a) for a in (k, l, k + l, k - l,
                                         np.where(k == l, 1.0, 2.0)))


def _newton_polish(coeffs_desc: np.ndarray, roots, steps: int = 2) -> np.ndarray:
    """steps Newton steps on every one of roots (an array, or one root) at
    once, p and p' from one product of the roots' powers with their
    coefficient columns.  A step is taken only where it does not raise
    |p|: at a multiple root p and p' are both rounding noise, and their
    ratio can throw the root anywhere."""
    asc = coeffs_desc[::-1]
    n = asc.size
    cols = np.zeros((n, 2), dtype=np.complex128)
    cols[:, 0] = asc
    cols[:-1, 1] = asc[1:] * np.arange(1, n)
    powers = np.arange(n)
    z = np.asarray(roots, dtype=np.complex128)
    v = (z[..., None] ** powers) @ cols
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps):
            step = z - v[..., 0] / v[..., 1]
            v_step = (step[..., None] ** powers) @ cols
            take = np.abs(v_step[..., 0]) <= np.abs(v[..., 0])
            z = np.where(take, step, z)
            v = np.where(take[..., None], v_step, v)
    return z


def _clustered_roots(desc: np.ndarray, raw: np.ndarray) -> list:
    """(root, multiplicity) of the roots raw of desc, sorted by modulus:
    each cluster is an unclustered root with every unclustered root within
    _CLUSTER_TOL of it, and a cluster of size k is refined on the (k-1)-th
    derivative, so multiple roots also reach ~1e-10 accuracy."""
    used = np.zeros(raw.size, dtype=bool)
    out = []
    for i in range(raw.size):
        if used[i]:
            continue
        grp = np.flatnonzero(~used & (np.abs(raw - raw[i]) < _CLUSTER_TOL))
        used[grp] = True
        mult = len(grp)
        dcoef = desc
        for _ in range(mult - 1):
            dcoef = np.polyder(dcoef)
        z = _newton_polish(dcoef, complex(np.mean(raw[grp])),
                           4 if mult > 1 else 2)
        out.append((complex(z), mult))
    return out


def roots_in_unit_disc(p, boundary_margin: float = 1e-9):
    """Zeros of the polynomial p (ascending coefficients) inside |t| < 1.

    Companion-matrix eigenvalues and one Newton polish, sorted by
    modulus.  When no two lie within _CLUSTER_TOL, the common case, every
    root is simple and takes two more steps; otherwise _clustered_roots
    finds the multiplicities.  Returns a list of (root, multiplicity);
    raises BoundaryZeroError for a zero within boundary_margin of |t| = 1.
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
    raw = _newton_polish(desc, np.roots(desc), 1)
    raw = raw[np.argsort(np.abs(raw), kind="stable")]
    # every root is within _CLUSTER_TOL of itself: any further close pair
    # means a cluster
    if np.count_nonzero(np.abs(raw[:, None] - raw) < _CLUSTER_TOL) > raw.size:
        found = _clustered_roots(desc, raw)
    else:
        found = [(z, 1) for z in _newton_polish(desc, raw, 2).tolist()]
    out = []
    for z, mult in found:
        if abs(abs(z) - 1.0) < boundary_margin:
            raise BoundaryZeroError(
                f"zero at {z} within {boundary_margin:g} of the unit circle")
        if abs(z) < 1.0:
            out.append((z, mult))
    return out


def winding_number(p) -> int:
    """Winding of t -> p(t) over the unit circle (argument principle), from
    the phase steps between the 4096 nodes of BoundaryGrid(4096), whose
    values one inverse FFT gives (node_values_fft)."""
    a = np.asarray(p, dtype=np.complex128).reshape(-1)
    ph = np.angle(node_values_fft(a, 4096))
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


def holomorphic_completion_coeffs(g, r: float) -> np.ndarray:
    """Taylor coefficients of the holomorphic h with Re h(t) = u(rt),
    Im h(t) = v(rt) on T and Im h(0) = 0, for boundary data g.

    h(t) = ghat_0 + 2 sum_{k>=1} ghat_k r^k t^k, truncated at n/2.
    """
    g = np.asarray(g, dtype=float)
    n = g.size
    ghat = np.fft.fft(g) / n
    kmax = n // 2
    coeffs = np.zeros(kmax + 1, dtype=np.complex128)
    coeffs[0] = ghat[0]
    ks = np.arange(1, kmax + 1)
    coeffs[1:] = 2.0 * ghat[1: kmax + 1] * (float(r) ** ks)
    return coeffs


def random_disc(rng: np.random.Generator, m: int, degree: int) -> AnalyticDiscLift:
    """Seeded random polynomial disc, rejection-sampled so the closed-disc
    norm stays above _RANDOM_MIN_NORM (keeps the quadratures well
    conditioned)."""
    for _ in range(_RANDOM_TRIES):
        c = rng.standard_normal((degree + 1, m)) + 1j * rng.standard_normal((degree + 1, m))
        norms = np.sqrt(np.einsum("ij,ij->i", c, c.conj()).real)
        big = norms > _RANDOM_RADIUS
        if np.any(big):
            c[big] *= (_RANDOM_RADIUS / norms[big])[:, None]
        disc = AnalyticDiscLift(c)
        if disc.min_norm_on_grid() >= _RANDOM_MIN_NORM:
            return disc
    raise NumericalError("rejection sampling failed to produce a valid disc")
