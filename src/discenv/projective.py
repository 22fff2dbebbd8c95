"""Homogeneous coordinates, Fubini-Study geometry, cone domains, weights,
and the lifting correspondences between projective objects and their
logarithmically homogeneous counterparts on C^{n+1} \\ {0}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError


def _c2j(z: complex):
    return [float(z.real), float(z.imag)]


def _j2c(v) -> complex:
    return complex(v[0], v[1])


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
        return cls(vec_from_json(obj))


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


def fs_distance(p: ProjPoint, q: ProjPoint) -> float:
    """Fubini-Study distance in [0, pi/2]; atan2 form is accurate at both
    ends of the range."""
    ip = np.vdot(p.vec, q.vec)
    perp = q.vec - np.conj(ip) * p.vec
    return float(math.atan2(np.linalg.norm(perp), abs(ip)))


def _fs_angles_to_point(z_rows: np.ndarray, cvec: np.ndarray) -> np.ndarray:
    """FS distance from each row of z_rows (cone reps) to the point [cvec]."""
    ip = z_rows @ cvec.conj()
    proj = ip[:, None] * cvec[None, :]
    perp = z_rows - proj
    return np.arctan2(np.linalg.norm(perp, axis=1), np.abs(ip))


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

    def clearance_many(self, z_rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dist_lb(self, w) -> float:
        raise NotImplementedError

    def sample_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Unit cone representatives of points of the domain (for candidate
        shifts); rows of shape (count, n+1)."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(obj: dict) -> "Domain":
        kind = obj.get("type")
        if kind == "fs_ball":
            return FsBall(ProjPoint.from_json(obj["center"]), float(obj["radius"]))
        if kind == "tube":
            pts = [ProjPoint.from_json(p) for p in obj["samples"]]
            return Tube(tuple(pts), float(obj["delta"]))
        if kind == "hyperplane_complement":
            return HyperplaneComplement(vec_from_json(obj["normal"]))
        if kind == "affine_ball":
            return AffineBall(vec_from_json(obj["center"]), float(obj["radius"]))
        if kind == "intersection":
            return Intersection(tuple(Domain.from_json(m) for m in obj["members"]))
        raise ConfigError(f"unknown domain type {kind!r}")


@dataclass(frozen=True)
class FsBall(Domain):
    """Preimage under pi of an open FS ball."""

    center: ProjPoint
    radius: float

    def clearance_many(self, z_rows):
        return self.radius - _fs_angles_to_point(z_rows, self.center.vec)

    def dist_lb(self, w):
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        c = self.clearance(w)
        if c <= 0:
            return 0.0
        return float(np.linalg.norm(w) * math.sin(min(c, math.pi / 2)))

    def sample_points(self, rng, count):
        m = self.center.vec.size
        out = np.empty((count, m), dtype=np.complex128)
        got = 0
        while got < count:
            z = rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))
            z /= np.linalg.norm(z, axis=1)[:, None]
            # bias toward the ball: mix with the center
            lam = rng.uniform(0, 1, count)[:, None]
            z = (1 - lam) * self.center.vec[None, :] + lam * z
            z /= np.linalg.norm(z, axis=1)[:, None]
            ok = self.clearance_many(z) > 0
            take = min(count - got, int(ok.sum()))
            out[got: got + take] = z[ok][:take]
            got += take
        return out

    def to_json(self):
        return {"type": "fs_ball", "center": self.center.to_json(),
                "radius": self.radius}


# rows per block of Tube.clearance_many's products: the size of the default
# final grid
_TUBE_BLOCK = 1024


@dataclass(frozen=True)
class Tube(Domain):
    """FS tube of radius delta around a finite sample cloud K."""

    samples: tuple
    delta: float
    _mat: np.ndarray = field(init=False, repr=False, compare=False)
    _pairs: tuple = field(init=False, repr=False, compare=False)
    _gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.stack([p.vec for p in self.samples])
        mat.setflags(write=False)
        object.__setattr__(self, "_mat", mat)
        object.__setattr__(self, "_pairs", np.triu_indices(mat.shape[1], 1))
        # |<z, s_k>|^2 = gram[k] . F(z) with the features F of _features:
        # the weights are |s_k,i|^2, then 2 Re and -2 Im of conj(s_k,i) s_k,j
        i, j = self._pairs
        cross = mat[:, i].conj() * mat[:, j]
        gram = np.concatenate([mat.real ** 2 + mat.imag ** 2,
                               2.0 * cross.real, -2.0 * cross.imag], axis=1)
        gram.setflags(write=False)
        object.__setattr__(self, "_gram", gram)

    def _features(self, z_rows):
        """Real features F(z), one column per row of z, shape ((n+1)^2, rows):
        |z_i|^2, then Re and Im of z_i conj(z_j) for i < j."""
        zt = np.ascontiguousarray(z_rows.T)
        i, j = self._pairs
        cross = zt[i] * zt[j].conj()
        return np.concatenate([zt.real ** 2 + zt.imag ** 2, cross.real, cross.imag])

    def clearance_many(self, z_rows):
        # arccos is decreasing, so the distance to the nearest sample is the
        # arccos of the largest |cos|.  For a block of rows, the squared
        # moduli of the (K, block) inner products are one real product of
        # gram with the rows' features, whose max runs down the columns;
        # each point then costs one sqrt and one arccos.  The error in a
        # distance d is about eps / sin 2d, small wherever d is near delta.
        m = z_rows.shape[1]
        cos2 = np.empty(z_rows.shape[0])
        for i in range(0, z_rows.shape[0], _TUBE_BLOCK):
            feats = self._features(z_rows[i:i + _TUBE_BLOCK])
            sq_norm = feats[:m].sum(axis=0)
            sq_norm[sq_norm == 0] = 1.0
            cos2[i:i + _TUBE_BLOCK] = (self._gram @ feats).max(axis=0) / sq_norm
        return self.delta - np.arccos(np.sqrt(np.clip(cos2, 0.0, 1.0)))

    def dist_lb(self, w):
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        c = self.clearance(w)
        if c <= 0:
            return 0.0
        return float(np.linalg.norm(w) * math.sin(min(c, math.pi / 2)))

    def sample_points(self, rng, count):
        idx = rng.integers(0, len(self.samples), count)
        return self._mat[idx].copy()

    def to_json(self):
        return {"type": "tube", "samples": [p.to_json() for p in self.samples],
                "delta": self.delta}


@dataclass(frozen=True)
class HyperplaneComplement(Domain):
    """Complement of the hyperplane <z, normal> = 0."""

    normal: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.normal, dtype=np.complex128).reshape(-1)
        a = a / np.linalg.norm(a)
        a.setflags(write=False)
        object.__setattr__(self, "normal", a)

    def clearance_many(self, z_rows):
        ip = np.abs(z_rows @ self.normal.conj())
        nrm = np.linalg.norm(z_rows, axis=1)
        sin_ang = np.clip(ip / np.where(nrm == 0, 1.0, nrm), -1.0, 1.0)
        return np.arcsin(sin_ang)  # FS distance to the hyperplane

    def dist_lb(self, w):
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        return float(abs(np.vdot(self.normal, w)))

    def sample_points(self, rng, count):
        m = self.normal.size
        out = np.empty((count, m), dtype=np.complex128)
        got = 0
        while got < count:
            z = rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))
            z /= np.linalg.norm(z, axis=1)[:, None]
            ok = self.clearance_many(z) > 1e-6
            take = min(count - got, int(ok.sum()))
            out[got: got + take] = z[ok][:take]
            got += take
        return out

    def to_json(self):
        return {"type": "hyperplane_complement", "normal": vec_to_json(self.normal)}


@dataclass(frozen=True)
class AffineBall(Domain):
    """Cone over the affine ball |u - center| < radius in the chart z_0 != 0
    (used by the Siciak-Zahariuta affine mode)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.complex128).reshape(-1)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)

    def clearance_many(self, z_rows):
        """R - |z_*/z_0 - c| per row, in real arithmetic: with
        d = z_* - c z_0, R - sqrt(|d|^2 / |z_0|^2).  A row on the hyperplane
        z_0 = 0 (the zero row included) gets -pi/2."""
        z0 = z_rows[:, 0]
        d = z_rows[:, 1:] - z0[:, None] * self.center[None, :]
        dr = d.view(np.float64)
        num = np.einsum("ij,ij->i", dr, dr)
        den = z0.real * z0.real + z0.imag * z0.imag
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.radius - np.sqrt(num / den)
        out[~np.isfinite(out)] = -np.pi / 2
        return out

    def dist_lb(self, w):
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        if abs(w[0]) == 0:
            return 0.0
        u = w[1:] / w[0]
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

    def sample_points(self, rng, count):
        n = self.center.size
        pts = []
        while len(pts) < count:
            u = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
            u *= (rng.uniform(0, 1, count) ** (1.0 / (2 * n)) * self.radius /
                  np.maximum(np.linalg.norm(u, axis=1), 1e-300))[:, None]
            for row in u + self.center[None, :]:
                if len(pts) < count:
                    v = affine_lift(row)
                    pts.append(v / np.linalg.norm(v))
        return np.stack(pts)

    def to_json(self):
        return {"type": "affine_ball", "center": vec_to_json(self.center),
                "radius": self.radius}


@dataclass(frozen=True)
class Intersection(Domain):
    members: tuple

    def clearance_many(self, z_rows):
        return np.min(np.stack([m.clearance_many(z_rows) for m in self.members]),
                      axis=0)

    def dist_lb(self, w):
        # distance to a union of complements is the min of the distances
        return min(m.dist_lb(w) for m in self.members)

    def sample_points(self, rng, count):
        out = []
        tries = 0
        while len(out) < count and tries < 200:
            cand = self.members[0].sample_points(rng, count)
            ok = self.clearance_many(cand) > 0
            out.extend(cand[ok][: count - len(out)])
            tries += 1
        if len(out) < count:
            raise DomainError("could not sample the intersection domain")
        return np.stack(out)

    def to_json(self):
        return {"type": "intersection",
                "members": [m.to_json() for m in self.members]}


# ---------------------------------------------------------------------------
# Weights


@dataclass(frozen=True)
class HomPolynomial:
    """Homogeneous polynomial on C^{n+1} as a list of monomials."""

    exponents: tuple  # tuple of integer tuples
    coeffs: tuple     # tuple of complex

    def __post_init__(self):
        degs = {sum(e) for e in self.exponents}
        if len(degs) != 1:
            raise ConfigError("polynomial terms must share one total degree")

    @property
    def degree(self) -> int:
        return sum(self.exponents[0])

    def eval_many(self, z_rows: np.ndarray) -> np.ndarray:
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
        raise NotImplementedError

    def value_affine_many(self, u_rows: np.ndarray) -> np.ndarray:
        """phi at affine chart points u (rows in C^n)."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(obj: dict) -> "Weight":
        kind = obj.get("type")
        if kind == "zero":
            return ZeroWeight()
        if kind == "constant":
            return ConstantWeight(float(obj["value"]))
        if kind == "log_poly":
            return LogPolyWeight(HomPolynomial.from_json(obj))
        if kind == "affine_log_poly":
            return AffineLogPolyWeight(HomPolynomial.from_json(obj))
        raise ConfigError(f"unknown weight type {kind!r}")


@dataclass(frozen=True)
class ZeroWeight(Weight):
    def value_proj_many(self, z_rows):
        return np.zeros(z_rows.shape[0])

    def value_affine_many(self, u_rows):
        return np.zeros(u_rows.shape[0])

    def to_json(self):
        return {"type": "zero"}


@dataclass(frozen=True)
class ConstantWeight(Weight):
    value: float

    def value_proj_many(self, z_rows):
        return np.full(z_rows.shape[0], self.value)

    def value_affine_many(self, u_rows):
        return np.full(u_rows.shape[0], self.value)

    def to_json(self):
        return {"type": "constant", "value": self.value}


@dataclass(frozen=True)
class LogPolyWeight(Weight):
    """phi([z]) = (1/d) log|P(z)| - log|z| for homogeneous P of degree d;
    well defined on P^n by homogeneity."""

    poly: HomPolynomial

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

    poly: HomPolynomial  # reused container; homogeneity check is harmless

    def value_affine_many(self, u_rows):
        d = max(sum(e) for e in self.poly.exponents)
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
    domain: Domain | None = None

    def value_many(self, z_rows: np.ndarray) -> np.ndarray:
        if self.domain is not None:
            if np.any(self.domain.clearance_many(z_rows) <= 0):
                raise DomainError("lifted weight evaluated outside its cone domain")
        return self.phi.value_proj_many(z_rows) + np.log(np.linalg.norm(z_rows, axis=1))

    def value(self, z) -> float:
        return float(self.value_many(np.asarray(z, dtype=np.complex128).reshape(1, -1))[0])


def lift_weight(phi: Weight, domain: Domain | None = None) -> LiftedWeight:
    return LiftedWeight(phi, domain)


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
            w = z_rows[ok, 1:] / z_rows[ok, :1]
            out[ok] = np.asarray(u(w), dtype=float) + np.log(np.abs(z_rows[ok, 0]))
        return out

    return u_tilde
