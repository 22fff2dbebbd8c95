"""Homogeneous coordinates, Fubini-Study geometry, cone domains, weights,
and the lifting correspondences between projective objects and their
logarithmically homogeneous counterparts on C^{n+1} \\ {0}.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError


def _c2j(z: complex):
    return [float(z.real), float(z.imag)]


def _j2c(v) -> complex:
    """The complex number of a JSON [re, im] pair.  Every pair an input
    file holds is decoded here.  A part that is not a JSON number is a
    ConfigError (a bool is an int to Python, so [true, false] would read
    as 1), and so is a non-finite part, since json.load accepts NaN and
    Infinity."""
    if len(v) != 2 or not all(isinstance(p, (int, float)) and
                              not isinstance(p, bool) for p in v):
        raise ConfigError(f"not an [re, im] pair of numbers: {v!r}")
    z = complex(v[0], v[1])
    if not cmath.isfinite(z):
        raise ConfigError(f"non-finite number {v!r}")
    return z


def float_from_json(v) -> float:
    """A JSON number; a bool (an int to Python) or a string is a ConfigError."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"not a number: {v!r}")
    return float(v)


def bool_from_json(v) -> bool:
    """A JSON true or false; anything else ("no", 0) is a ConfigError."""
    if not isinstance(v, bool):
        raise ConfigError(f"not true or false: {v!r}")
    return v


def vec_to_json(v: np.ndarray):
    return [_c2j(z) for z in np.asarray(v).reshape(-1)]


def vec_from_json(obj) -> np.ndarray:
    return np.array([_j2c(v) for v in obj], dtype=np.complex128)


@dataclass(frozen=True)
class ProjPoint:
    """Point of P^n stored by its canonical unit representative: norm one,
    first nonzero coordinate real and positive."""

    vec: np.ndarray

    def __post_init__(self):
        v = canonical_representative(self.vec)
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    @property
    def n(self) -> int:
        return self.vec.size - 1

    def isclose(self, other: "ProjPoint", tol: float = 1e-12) -> bool:
        return fs_distance(self, other) <= tol

    def to_json(self):
        return vec_to_json(self.vec)

    @classmethod
    def from_json(cls, obj) -> "ProjPoint":
        """The point of a JSON vector, kept to the bit where it is canonical
        to rounding (leading coordinate real and positive, and moved by a
        few ulps at most by canonicalizing), as to_json writes it."""
        v = vec_from_json(obj)
        p = cls(v)
        lead = v[np.argmax(np.abs(p.vec) > 1e-12 * np.abs(p.vec).max())]
        if lead.imag == 0 < lead.real and \
                np.abs(p.vec - v).max() <= 4 * np.finfo(float).eps:
            v.setflags(write=False)
            object.__setattr__(p, "vec", v)
        return p


def canonical_representative(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    nrm = np.linalg.norm(z)
    if nrm < 1e-100:
        raise ValueError("cannot projectivize the zero vector")
    v = z / nrm
    mags = np.abs(v)
    idx = int(np.argmax(mags > 1e-12 * mags.max()))
    v = v * (v[idx].conjugate() / abs(v[idx]))
    v[idx] = abs(v[idx]) + 0j  # kill residual imaginary roundoff
    return v


def project(z) -> ProjPoint:
    return ProjPoint(np.asarray(z, dtype=np.complex128))


def lift(x: ProjPoint) -> np.ndarray:
    return np.array(x.vec)


def fs_distances(z_rows: np.ndarray, cvec: np.ndarray) -> np.ndarray:
    """FS distance in [0, pi/2] from each row of z_rows (cone reps) to the
    point [cvec], cvec of norm one.  The atan2 form is accurate at both ends
    of the range; this is the package's one exact FS distance."""
    ip = z_rows @ cvec.conj()
    proj = ip[:, None] * cvec[None, :]
    perp = z_rows - proj
    return np.arctan2(np.linalg.norm(perp, axis=1), np.abs(ip))


def fs_distance(p: ProjPoint, q: ProjPoint) -> float:
    """Fubini-Study distance between two points, in [0, pi/2]."""
    return float(fs_distances(q.vec[None, :], p.vec)[0])


def chart(z: np.ndarray) -> np.ndarray:
    """Affine chart z_0 != 0: [z_0 : z'] -> z'/z_0."""
    z = np.asarray(z, dtype=np.complex128)
    return z[..., 1:] / z[..., :1]


def affine_lift(u) -> np.ndarray:
    """Inverse chart: u in C^n -> (1, u)."""
    u = np.atleast_1d(np.asarray(u, dtype=np.complex128))
    return np.concatenate([[1.0 + 0j], u])


# ---------------------------------------------------------------------------
# Cone domains


# rounds of draws after which Domain.sample_points gives up on a domain: an
# FS ball of radius 1e-3 in P^1 needs about 765 rounds of 512 draws
_SAMPLE_ROUNDS = 2000


@dataclass(frozen=True)
class Domain:
    """Base: scalar-invariant subsets of C^{n+1} \\ {0} (complex cones).

    clearance(z) is a signed margin, positive inside; its units are
    FS radians for projective descriptors and affine distance for
    affine balls.  dist_lb(w) lower-bounds the Euclidean distance from w
    to the complement of the cone.
    """

    def contains(self, z) -> bool:
        return bool(self.clearance_many(np.asarray(z, dtype=np.complex128).reshape(1, -1))[0] > 0)

    def clearance(self, z) -> float:
        return float(self.clearance_many(np.asarray(z, dtype=np.complex128).reshape(1, -1))[0])

    def clearance_many(self, z_rows: np.ndarray, sq=None) -> np.ndarray:
        """clearance of each row of z_rows (N, m); sq (m, N), if given,
        holds the squared moduli |z_j|^2 of its columns, taken already."""
        raise NotImplementedError

    def dist_lb(self, w) -> float:
        raise NotImplementedError

    # clearance a drawn row must exceed to be kept as a sample point
    _sample_margin = 0.0

    def sample_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Unit cone representatives of points of the domain (for candidate
        shifts); rows of shape (count, n+1): the first count rows, in draw
        order, of successive _draw batches that clear the domain by more
        than _sample_margin.  Raises DomainError after _SAMPLE_ROUNDS
        batches, so an empty or tiny domain cannot hang a run."""
        kept, got = [], 0
        for _ in range(_SAMPLE_ROUNDS):
            z = self._draw(rng, count)
            kept.append(z[self.clearance_many(z) > self._sample_margin][:count - got])
            got += len(kept[-1])
            if got >= count:
                return np.concatenate(kept)
        raise DomainError(f"found {got} of {count} sample points of "
                          f"{type(self).__name__} in {_SAMPLE_ROUNDS} rounds "
                          "of draws")

    def _draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """One batch of count unit rows, drawn in or near the domain; the
        domain's rejection loop (sample_points) keeps those inside."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(obj: dict) -> "Domain":
        kind = obj.get("type")
        if kind == "fs_ball":
            return FsBall(ProjPoint.from_json(obj["center"]),
                          float_from_json(obj["radius"]))
        if kind == "tube":
            pts = [ProjPoint.from_json(p) for p in obj["samples"]]
            return Tube(tuple(pts), float_from_json(obj["delta"]))
        if kind == "hyperplane_complement":
            return HyperplaneComplement(vec_from_json(obj["normal"]))
        if kind == "affine_ball":
            return AffineBall(vec_from_json(obj["center"]),
                              float_from_json(obj["radius"]))
        if kind == "intersection":
            return Intersection(tuple(Domain.from_json(m) for m in obj["members"]))
        raise ConfigError(f"unknown domain type {kind!r}")


def _check_positive(what: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{what} must be positive and finite, not {value!r}")


def _check_log_degree(poly: "HomPolynomial") -> None:
    """A (1/d) log|P| weight needs total degree d >= 1: a constant P would
    divide by 0."""
    if poly.degree < 1:
        raise ConfigError(f"a log-polynomial weight needs total degree at "
                          f"least 1, not {poly.degree}")


def _check_width(z_rows: np.ndarray, m: int) -> None:
    """Rows of a domain in C^m must lie in C^m."""
    if z_rows.shape[1] != m:
        raise ConfigError(f"points of C^{z_rows.shape[1]} for a domain in C^{m}")


def _gaussian_rows(rng, count: int, m: int) -> np.ndarray:
    return rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))


def _unit_rows(z: np.ndarray) -> np.ndarray:
    return z / np.linalg.norm(z, axis=1)[:, None]


# rows per block of a form domain's products (_FormDomain._clearance): the
# size of the default final grid
_FORM_BLOCK = 1024


class _FormDomain(Domain):
    """Clearance radius - dist(s), dist increasing, of s(z) = max_k A_k(z) /
    B(z) for Hermitian forms A_k and B(z) = sum |z_i|^2 over the first
    coordinates.  The A_k are rows of real weights on a row's features
    (|z_i|^2, then Re and Im of z_i conj(z_j) for the form's pairs i < j),
    so those of a block of rows are one real product, taken in a (K, block)
    work array that the domain owns: it is not safe for concurrent calls.
    A row with B(z) = 0 (the zero row, or z_0 = 0 for an affine ball) is in
    no domain: its clearance, as every one that is not finite, is -pi/2."""

    def _set_forms(self, m: int, weights, pairs=None, den=None) -> None:
        """Forms on C^m: weights (K, F) on the features, and B(z) the sum
        of |z_i|^2 over i < den, by default |z|^2."""
        weights.setflags(write=False)
        # the search's rows are single precision: its weights, cast once
        weights32 = weights.astype(np.float32)
        weights32.setflags(write=False)
        # the K forms reuse one product buffer, which a fresh one per call
        # would map and unmap: such a domain is not thread-safe
        work = np.empty((len(weights), _FORM_BLOCK))
        for name, value in (("_m", m), ("_weights", weights),
                            ("_weights32", weights32), ("_pairs", pairs),
                            ("_den", slice(0, den or m)), ("_work", work)):
            object.__setattr__(self, name, value)

    def _features(self, z_rows, sq):
        """Features (F, rows) of the rows: |z_i|^2, from sq where it is
        given, then Re and Im of z_i conj(z_j) for the form's pairs."""
        zt = np.ascontiguousarray(z_rows.T)
        sq = zt.real ** 2 + zt.imag ** 2 if sq is None else sq
        cross = zt[self._pairs[0]] * zt[self._pairs[1]].conj()
        return np.concatenate([sq, cross.real, cross.imag])

    def _clearance(self, z_rows, sq, radius, dist):
        """radius - dist(s, out) per row, in the real dtype of the features:
        single for complex64 rows (the search's), else double; rows must
        lie in C^m."""
        _check_width(z_rows, self._m)
        feats = self._features(z_rows, sq)
        weights = self._weights32 if feats.dtype == np.float32 else self._weights
        # single precision takes a float32 view of the one work array
        work = self._work.reshape(-1).view(feats.dtype)
        s = np.empty(len(z_rows), dtype=feats.dtype)
        with np.errstate(divide="ignore", invalid="ignore"):
            # K * block products at a time, in the work array
            for a in range(0, len(s), _FORM_BLOCK):
                out = s[a:a + _FORM_BLOCK]
                prod = work[:len(weights) * len(out)].reshape(-1, len(out))
                np.matmul(weights, feats[:, a:a + _FORM_BLOCK], out=prod)
                prod.max(axis=0, out=out)
            den = feats[self._den]
            np.divide(s, den.sum(axis=0), out=s)
            out = np.subtract(radius, dist(s, out=s), out=s)
        if not np.isfinite(out).all():
            out[~np.isfinite(out)] = -np.pi / 2
        return out


class _FsAngleDomain(Domain):
    """Clearance c is an FS angle: the FS ball of radius c about [w] lies
    inside, so the cone's complement is at least |w| sin c from w."""

    def dist_lb(self, w):
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        c = self.clearance(w)
        if c <= 0:
            return 0.0
        return float(np.linalg.norm(w) * math.sin(min(c, math.pi / 2)))


@dataclass(frozen=True)
class FsBall(_FsAngleDomain):
    """Preimage under pi of an open FS ball."""

    center: ProjPoint
    radius: float

    def __post_init__(self):
        _check_positive("FS ball radius", self.radius)

    def clearance_many(self, z_rows, sq=None):
        """radius - FS distance to the centre per row, exact at both ends
        (fs_distances); the zero row, which is no point of P^n, gets -pi/2
        (fs_distances reads it as the centre itself)."""
        _check_width(z_rows, self.center.vec.size)
        out = self.radius - fs_distances(z_rows, self.center.vec)
        out[~z_rows.any(axis=1)] = -np.pi / 2
        return out

    def _draw(self, rng, count):
        c = self.center.vec
        z = _unit_rows(_gaussian_rows(rng, count, c.size))
        lam = rng.uniform(0, 1, count)[:, None]  # bias toward the centre
        return _unit_rows((1 - lam) * c + lam * z)

    def to_json(self):
        return {"type": "fs_ball", "center": self.center.to_json(),
                "radius": self.radius}


@dataclass(frozen=True)
class Tube(_FsAngleDomain, _FormDomain):
    """FS tube of radius delta around a finite sample cloud K."""

    samples: tuple
    delta: float
    _mat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_positive("tube radius delta", self.delta)
        if self.delta < 1e-7:  # arccos sqrt(s) resolves only about 1.5e-8
            raise ConfigError(f"tube radius delta must be at least 1e-7, "
                              f"not {self.delta!r}")
        mat = np.stack([p.vec for p in self.samples])
        mat.setflags(write=False)
        object.__setattr__(self, "_mat", mat)
        # |<z, s_k>|^2 = sum_ij conj(s_ki) s_kj z_i conj(z_j): the weights
        # are |s_k,i|^2, then 2 Re and -2 Im of conj(s_k,i) s_k,j
        i, j = pairs = np.triu_indices(mat.shape[1], 1)
        cross = mat[:, i].conj() * mat[:, j]
        self._set_forms(mat.shape[1], np.concatenate([mat.real ** 2 + mat.imag ** 2,
                        2.0 * cross.real, -2.0 * cross.imag], 1), pairs)

    def clearance_many(self, z_rows, sq=None):
        """delta - FS distance to the nearest sample: arccos is decreasing,
        so that is the arccos of the largest |<z, s_k>| / |z|.  The error
        in a distance d is about eps / sin 2d, eps that of the rows'
        precision, small wherever d is near delta; fs_distances is exact."""
        return self._clearance(z_rows, sq, self.delta, lambda s, out: np.arccos(
            np.sqrt(np.clip(s, 0.0, 1.0, out=out), out=out), out=out))

    def _draw(self, rng, count):
        # anchors of K, which clear the tube by about delta
        return self._mat[rng.integers(0, len(self.samples), count)]

    def to_json(self):
        return {"type": "tube", "samples": [p.to_json() for p in self.samples],
                "delta": self.delta}


@dataclass(frozen=True)
class HyperplaneComplement(Domain):
    """Complement of the hyperplane <z, normal> = 0."""

    normal: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.normal, dtype=np.complex128).reshape(-1)
        nrm = float(np.linalg.norm(a))
        if not (math.isfinite(nrm) and nrm > 0):
            raise ConfigError("hyperplane normal must be nonzero and finite")
        a = a / nrm
        a.setflags(write=False)
        object.__setattr__(self, "normal", a)

    def clearance_many(self, z_rows, sq=None):
        _check_width(z_rows, self.normal.size)
        nrm = np.linalg.norm(z_rows, axis=1)
        sin_ang = np.abs(z_rows @ self.normal.conj()) / np.where(nrm == 0, 1.0, nrm)
        # FS distance to the hyperplane, to relative rounding next to it
        return np.where(nrm == 0, -np.pi / 2, np.arcsin(np.minimum(sin_ang, 1.0)))

    def dist_lb(self, w):
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        return float(abs(np.vdot(self.normal, w)))

    _sample_margin = 1e-6

    def _draw(self, rng, count):
        return _unit_rows(_gaussian_rows(rng, count, self.normal.size))

    def to_json(self):
        return {"type": "hyperplane_complement", "normal": vec_to_json(self.normal)}


@dataclass(frozen=True)
class AffineBall(_FormDomain):
    """Cone over the affine ball |u - center| < radius in the chart z_0 != 0
    (used by the Siciak-Zahariuta affine mode).  Like a Tube, it owns a
    work array and is not safe for concurrent calls."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        _check_positive("affine ball radius", self.radius)
        c = np.asarray(self.center, dtype=np.complex128).reshape(-1)
        if c.size == 0:
            raise ConfigError("an affine ball needs a centre in C^n, n >= 1")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        # the centred ball's form, |z_*|^2 over |z_0|^2, of (z_0, z_* - c z_0)
        self._set_forms(c.size + 1, np.append(0.0, np.ones(c.size))[None], den=1)

    def clearance_many(self, z_rows, sq=None):
        """R - |z_*/z_0 - c|, exact to about eps (|u| + |c|)."""
        return self._clearance(z_rows, sq, self.radius, np.sqrt)

    def _features(self, z_rows, sq):
        """Squares of (z_0, z_* - c z_0), its differences in complex
        arithmetic; sq is not read."""
        d = np.array(z_rows.T, order="C")  # a copy, written in place
        d[1:] -= d[:1] * self.center[:, None]
        return d.real ** 2 + d.imag ** 2

    def dist_lb(self, w):
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        if abs(w[0]) == 0:
            return 0.0
        u = chart(w)
        slack = self.radius - float(np.linalg.norm(u - self.center))
        if slack <= 0:
            return 0.0
        # sin of the FS distance from [1:u] to the affine sphere is at least
        # slack / (sqrt(1+|u|^2) sqrt(1+(|c|+R)^2)); distance to the cone of a
        # set S is |w| sin d_FS(pi(w), S).  The hyperplane z_0 = 0 is also in
        # the complement, at Euclidean distance |w_0| from w.
        nu = float(np.linalg.norm(u))
        denom = math.sqrt(1 + nu * nu) * math.sqrt(
            1 + (float(np.linalg.norm(self.center)) + self.radius) ** 2)
        lb_sphere = float(np.linalg.norm(w)) * slack / denom
        return min(float(abs(w[0])), lb_sphere)

    def _draw(self, rng, count):
        n = self.center.size
        u = _gaussian_rows(rng, count, n)
        u *= (rng.uniform(0, 1, count) ** (1.0 / (2 * n)) * self.radius /
              np.maximum(np.linalg.norm(u, axis=1), 1e-300))[:, None]
        return _unit_rows(np.concatenate([np.ones((count, 1)), u + self.center],
                                         axis=1))

    def to_json(self):
        return {"type": "affine_ball", "center": vec_to_json(self.center),
                "radius": self.radius}


@dataclass(frozen=True)
class Intersection(Domain):
    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ConfigError("an intersection needs at least one member")

    def clearance_many(self, z_rows, sq=None):
        return np.min([m.clearance_many(z_rows, sq) for m in self.members], axis=0)

    def dist_lb(self, w):
        # distance to a union of complements is the min of the distances
        return min(m.dist_lb(w) for m in self.members)

    @property
    def _sample_margin(self):
        return max(m._sample_margin for m in self.members)

    def _draw(self, rng, count):
        # the first member's raw draws, so that one cap on rounds of draws
        # (sample_points') bounds the whole search
        return self.members[0]._draw(rng, count)

    def to_json(self):
        return {"type": "intersection",
                "members": [m.to_json() for m in self.members]}


# ---------------------------------------------------------------------------
# Weights


@dataclass(frozen=True)
class HomPolynomial:
    """Polynomial as a list of monomials.  LogPolyWeight needs it
    homogeneous; AffineLogPolyWeight takes any polynomial."""

    exponents: tuple  # tuple of integer tuples
    coeffs: tuple     # tuple of complex

    def __post_init__(self):
        widths = {len(e) for e in self.exponents}
        if len(widths) != 1:
            raise ConfigError(f"a polynomial needs terms whose exponent tuples "
                              f"share one length, not lengths {sorted(widths)}")
        if not all(isinstance(p, numbers.Integral) and not isinstance(p, bool)
                   and p >= 0 for e in self.exponents for p in e):
            raise ConfigError(f"polynomial exponents must be non-negative "
                              f"integers, not {list(map(list, self.exponents))}")

    @property
    def width(self) -> int:
        """The number of variables: the one length of the exponent tuples."""
        return len(self.exponents[0])

    @property
    def degree(self) -> int:
        """The total degree: the largest total degree of a term."""
        return max(sum(e) for e in self.exponents)

    def eval_many(self, z_rows: np.ndarray) -> np.ndarray:
        """P at each row of z_rows, whose width must be the polynomial's."""
        if z_rows.shape[1] != self.width:
            raise ConfigError(f"a polynomial in {self.width} variables at "
                              f"points of C^{z_rows.shape[1]}")
        out = np.zeros(z_rows.shape[0], dtype=np.complex128)
        for e, c in zip(self.exponents, self.coeffs):
            term = np.full(z_rows.shape[0], complex(c))
            for i, p in enumerate(e):
                if p:
                    term *= z_rows[:, i] ** p
            out += term
        return out

    def to_json(self):
        return {"terms": [{"exponents": list(e), "coeff": _c2j(c)}
                          for e, c in zip(self.exponents, self.coeffs)]}

    @classmethod
    def from_json(cls, obj):
        terms = obj["terms"]
        return cls(tuple(tuple(t["exponents"]) for t in terms),
                   tuple(_j2c(t["coeff"]) for t in terms))


class Weight:
    """Weight phi on a domain of P^n (or on an affine chart in sz mode)."""

    def value_proj_many(self, z_rows: np.ndarray) -> np.ndarray:
        """phi at pi(z) for cone representatives z (rows)."""
        raise self._no_chart("on P^n (omega mode, the direct and lifted routes)")

    def value_affine_many(self, u_rows: np.ndarray) -> np.ndarray:
        """phi at affine chart points u (rows in C^n)."""
        raise self._no_chart("in the affine chart (sz mode, the jensen route)")

    def _no_chart(self, where: str) -> ConfigError:
        return ConfigError(f"a {self.to_json()['type']} weight has no value {where}")

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(obj: dict) -> "Weight":
        kind = obj.get("type")
        if kind == "zero":
            return ZeroWeight()
        if kind == "constant":
            return ConstantWeight(float_from_json(obj["value"]))
        if kind == "log_poly":
            return LogPolyWeight(HomPolynomial.from_json(obj))
        if kind == "affine_log_poly":
            return AffineLogPolyWeight(HomPolynomial.from_json(obj))
        raise ConfigError(f"unknown weight type {kind!r}")


@dataclass(frozen=True)
class ConstantWeight(Weight):
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConfigError(f"constant weight value {self.value!r} is not finite")

    def value_proj_many(self, z_rows):
        return np.full(z_rows.shape[0], self.value)

    def value_affine_many(self, u_rows):
        return np.full(u_rows.shape[0], self.value)

    def to_json(self):
        return {"type": "constant", "value": self.value}


@dataclass(frozen=True)
class ZeroWeight(ConstantWeight):
    """The constant weight 0, written {"type": "zero"}; it equals no
    ConstantWeight(0.0), whose JSON differs."""

    value: float = field(default=0.0, init=False)

    def to_json(self):
        return {"type": "zero"}


@dataclass(frozen=True)
class LogPolyWeight(Weight):
    """phi([z]) = (1/d) log|P(z)| - log|z| for homogeneous P of degree d;
    well defined on P^n by homogeneity."""

    poly: HomPolynomial

    def __post_init__(self):
        if len({sum(e) for e in self.poly.exponents}) != 1:
            raise ConfigError("polynomial terms must share one total degree")
        _check_log_degree(self.poly)

    def value_proj_many(self, z_rows):
        d = self.poly.degree
        with np.errstate(divide="ignore"):
            vals = np.log(np.abs(self.poly.eval_many(z_rows))) / d
        return vals - np.log(np.linalg.norm(z_rows, axis=1))

    def to_json(self):
        out = {"type": "log_poly"}
        out.update(self.poly.to_json())
        return out


@dataclass(frozen=True)
class AffineLogPolyWeight(Weight):
    """phi(u) = (1/d) log|p(u)| for a polynomial p on C^n (sz mode).

    The terms are stored with exponent tuples of length n; they need not be
    homogeneous in the affine variables.
    """

    poly: HomPolynomial

    def __post_init__(self):
        _check_log_degree(self.poly)

    def value_affine_many(self, u_rows):
        d = self.poly.degree
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self.poly.eval_many(u_rows))) / d

    def to_json(self):
        out = {"type": "affine_log_poly"}
        out.update(self.poly.to_json())
        return out


@dataclass(frozen=True)
class LiftedWeight:
    """Logarithmically homogeneous lift phi~(z) = phi(pi(z)) + log|z|."""

    phi: Weight

    def value_many(self, z_rows: np.ndarray) -> np.ndarray:
        return self.phi.value_proj_many(z_rows) + np.log(np.linalg.norm(z_rows, axis=1))

    def value(self, z) -> float:
        return float(self.value_many(np.asarray(z, dtype=np.complex128).reshape(1, -1))[0])


def psh_correspondence(v):
    """v omega-psh candidate on P^n (callable on cone reps via v(z_rows))
    -> (u on C^{n+1}\\{0}, inverse map u -> v)."""

    def u(z_rows):
        z_rows = np.atleast_2d(np.asarray(z_rows, dtype=np.complex128))
        return v(z_rows) + np.log(np.linalg.norm(z_rows, axis=1))

    def v_back(z_rows):
        z_rows = np.atleast_2d(np.asarray(z_rows, dtype=np.complex128))
        return u(z_rows) - np.log(np.linalg.norm(z_rows, axis=1))

    return u, v_back


def lelong_lift(u):
    """Lelong-class u on C^n -> log-homogeneous function on {z_0 != 0},
    u((z_1..z_n)/z_0) + log|z_0|; -inf (flagged in the value) at z_0 = 0."""

    def u_tilde(z_rows):
        z_rows = np.atleast_2d(np.asarray(z_rows, dtype=np.complex128))
        out = np.full(z_rows.shape[0], -np.inf)
        ok = np.abs(z_rows[:, 0]) > 0
        if np.any(ok):
            w = chart(z_rows[ok])
            out[ok] = np.asarray(u(w), dtype=float) + np.log(np.abs(z_rows[ok, 0]))
        return out

    return u_tilde
