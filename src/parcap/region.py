"""Declarative space-time and spatial sets: membership, grids, sampling.

Regions come in two families. Space-time variants live in E = (0, inf) x R^d
and their points are rows (t, x_1, .., x_d); spatial variants live in R^d.
Each region class carries its own geometry: membership on validated points
(``mask``), an axis-aligned bounding box in ambient coordinates (``bounds``),
its canonical JSON encoding {"kind": ..., parameters...} (``to_dict``) and
its time-slice decomposition (``slices``). Spatial regions add ``distance``
and the largest norm of a point (``max_norm``); space-time regions add the
graph detector's per-segment test (``graph_segment_hits``), which the box and
the thorn answer by ``holds(t, x)``, their membership test on separate time
and space arrays (``mask`` calls it on rows). The module
functions validate their input and call these methods; ``region_from_dict``
reads JSON specs with ``_field``, the typed reader the CLI configs share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .heat_kernel import _sq_norms

__all__ = [
    "RegionError",
    "TimeSliceBall",
    "SliceOf",
    "SpaceTimeBox",
    "Thorn",
    "SpatialBall",
    "SpatialAnnulus",
    "RegionUnion",
    "CellCloud",
    "contains",
    "discretize",
    "sample_uniform",
    "region_to_dict",
    "region_from_dict",
    "thorn_profile",
]

SLAB_EPS = 1e-9  # membership tolerance band for measure-zero time slices


class RegionError(ValueError):
    pass


def thorn_profile(name, param):
    """Shipped monotone thorn profiles h(s); each parameter is finite and positive."""
    symbol = {"constant": "c", "power": "alpha", "invlog": "beta"}.get(name)
    if symbol is None:
        raise RegionError(f"unknown thorn profile {name!r}")
    if not 0 < param < math.inf:
        raise RegionError(f"{name} profile needs a finite {symbol} > 0")
    param = float(param)
    if name == "constant":
        return lambda s: np.full_like(np.asarray(s, dtype=float), param)
    if name == "power":
        return lambda s: np.asarray(s, dtype=float) ** param
    return lambda s: np.abs(np.log(np.asarray(s, dtype=float))) ** (-param)


class Region:
    """Base of every region: spatial and full-dimensional by default."""

    spacetime = False

    def slices(self):
        """(t0, spatial base) pairs, one per distinct slice time, if the set is
        a finite union of time slices; None for full-dimensional sets."""
        return None

    def mask(self, pts):
        """Membership of rows (t, x) in a full-dimensional space-time set."""
        return self.holds(pts[:, 0], pts[:, 1:])

    def graph_segment_hits(self, ta, tb, pa, pb):
        """Detector flags, one per segment (ta, pa) -> (tb, pb), against a
        full-dimensional space-time set: endpoint membership (``holds``) at
        the reporting pitch."""
        return self.holds(tb, pb)


@dataclass(frozen=True)
class SliceOf(Region):
    """{t0} x base for a spatial base region; the slice time is exact, not a slab."""

    t0: float
    base: object

    def __post_init__(self):
        if not 0 < self.t0 < math.inf:
            raise RegionError(f"slice time {self.t0} must be positive and finite")
        if getattr(self.base, "spacetime", True):
            raise RegionError("slice base must be a spatial region")

    spacetime = True

    @property
    def d(self):
        return self.base.d

    def mask(self, pts):
        return (np.abs(pts[:, 0] - self.t0) <= SLAB_EPS) & self.base.mask(pts[:, 1:])

    def bounds(self):
        lo, hi = self.base.bounds()
        return np.concatenate([[self.t0], lo]), np.concatenate([[self.t0], hi])

    def to_dict(self):
        return {"kind": "slice_of", "t0": self.t0, "base": self.base.to_dict()}

    def slices(self):
        return [(self.t0, self.base)]

    def graph_segment_hits(self, ta, tb, pa, pb):
        """Per-segment flags: linear interpolation at the slice crossing."""
        cross = (ta - self.t0) * (tb - self.t0) <= 0.0
        out = np.zeros(cross.shape, dtype=bool)
        frac = (self.t0 - ta[cross]) / np.maximum(tb[cross] - ta[cross], 1e-300)
        y = pa[cross] + frac[:, None] * (pb[cross] - pa[cross])
        out[cross] = self.base.mask(y)
        return out


class TimeSliceBall(SliceOf):
    """{t0} x B(center, radius): ``SliceOf`` a ball, under its own JSON kind."""

    def __init__(self, t0, center, radius):
        super().__init__(t0, SpatialBall(center, radius))

    @property
    def center(self):
        return self.base.center

    @property
    def radius(self):
        return self.base.radius

    def to_dict(self):
        return {"kind": "time_slice_ball", "t0": self.t0,
                "center": list(self.center), "radius": self.radius}


@dataclass(frozen=True)
class SpaceTimeBox(Region):
    t_lo: float
    t_hi: float
    corner_lo: tuple
    corner_hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "corner_lo", tuple(float(c) for c in self.corner_lo))
        object.__setattr__(self, "corner_hi", tuple(float(c) for c in self.corner_hi))
        if not 0 < self.t_lo < self.t_hi < math.inf:
            raise RegionError("need 0 < t_lo < t_hi < inf")
        if len(self.corner_lo) != len(self.corner_hi):
            raise RegionError("corner dimension mismatch")
        if not self.corner_lo:
            raise RegionError("box corners need at least one coordinate")
        if not all(map(math.isfinite, self.corner_lo + self.corner_hi)):
            raise RegionError("corners must be finite")
        if not all(a < b for a, b in zip(self.corner_lo, self.corner_hi)):
            raise RegionError("corner_lo must be strictly below corner_hi")

    spacetime = True

    @property
    def d(self):
        return len(self.corner_lo)

    def holds(self, t, x):
        """Membership of the points (t[i], x[i]), with no rows stacked."""
        out = (t > self.t_lo) & (t < self.t_hi)
        for i, (lo, hi) in enumerate(zip(self.corner_lo, self.corner_hi)):
            out &= (x[:, i] > lo) & (x[:, i] < hi)
        return out

    def bounds(self):
        return (np.concatenate([[self.t_lo], self.corner_lo]),
                np.concatenate([[self.t_hi], self.corner_hi]))

    def to_dict(self):
        return {"kind": "box", "t_lo": self.t_lo, "t_hi": self.t_hi,
                "corner_lo": list(self.corner_lo), "corner_hi": list(self.corner_hi)}


@dataclass(frozen=True)
class Thorn(Region):
    """{(s, y): t_lo < s < t_hi, |y| < sqrt(s) h(s)} for a named profile h."""

    profile: str
    param: float
    t_lo: float
    t_hi: float
    d: int = 1

    def __post_init__(self):
        try:
            object.__setattr__(self, "d", _count(self.d))
        except (TypeError, ValueError):
            raise RegionError(f"thorn needs a whole number d >= 1, got {self.d!r}") from None
        if not 0 <= self.t_lo < self.t_hi < math.inf:
            raise RegionError("need 0 <= t_lo < t_hi < inf")
        if self.profile == "invlog" and self.t_hi >= 1.0:
            raise RegionError("invlog thorn needs t_hi < 1")
        thorn_profile(self.profile, self.param)  # validates

    spacetime = True

    def h(self, s):
        return thorn_profile(self.profile, self.param)(s)

    def holds(self, t, x):
        """Membership of the points (t[i], x[i]), with no rows stacked."""
        ok = np.flatnonzero((t > self.t_lo) & (t < self.t_hi))
        tk = t.take(ok)
        out = np.zeros(t.shape, dtype=bool)
        out[ok] = np.sqrt(_sq_norms(x.take(ok, axis=0))) < np.sqrt(tk) * self.h(tk)
        return out

    def bounds(self):
        # sqrt(s) h(s) increases for every shipped profile: largest at t_hi
        r = float(np.sqrt(self.t_hi) * self.h(self.t_hi))
        return (np.concatenate([[self.t_lo], -r * np.ones(self.d)]),
                np.concatenate([[self.t_hi], r * np.ones(self.d)]))

    def to_dict(self):
        return {"kind": "thorn", "profile": self.profile, "param": self.param,
                "t_lo": self.t_lo, "t_hi": self.t_hi, "d": self.d}


def _finite_center(center, kind):
    """The centre as a tuple of floats; RegionError if it has no coordinate
    or one that is not finite."""
    center = tuple(float(c) for c in center)
    if not center:
        raise RegionError(f"{kind} center needs at least one coordinate")
    if not all(map(math.isfinite, center)):
        raise RegionError(f"center {center} must be finite")
    return center


@dataclass(frozen=True)
class SpatialBall(Region):
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _finite_center(self.center, "ball"))
        if not 0 < self.radius < math.inf:
            raise RegionError("radius must be positive and finite")

    @property
    def d(self):
        return len(self.center)

    def mask(self, pts):
        return np.sqrt(_sq_norms(pts - np.asarray(self.center))) < self.radius

    def bounds(self):
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    def to_dict(self):
        return {"kind": "ball", "center": list(self.center), "radius": self.radius}

    def max_norm(self):
        """Largest |x| over the set."""
        return float(np.linalg.norm(self.center)) + self.radius

    def distance(self, pos):
        r = np.sqrt(_sq_norms(pos - np.asarray(self.center)))
        return np.maximum(r - self.radius, 0.0)


@dataclass(frozen=True)
class SpatialAnnulus(Region):
    center: tuple
    r_in: float
    r_out: float

    def __post_init__(self):
        object.__setattr__(self, "center", _finite_center(self.center, "annulus"))
        if not 0 < self.r_in < self.r_out < math.inf:
            raise RegionError("need 0 < r_in < r_out < inf")

    @property
    def d(self):
        return len(self.center)

    def mask(self, pts):
        r = np.sqrt(_sq_norms(pts - np.asarray(self.center)))
        return (r > self.r_in) & (r < self.r_out)

    def bounds(self):
        c = np.asarray(self.center)
        return c - self.r_out, c + self.r_out

    def to_dict(self):
        return {"kind": "annulus", "center": list(self.center),
                "r_in": self.r_in, "r_out": self.r_out}

    def max_norm(self):
        """Largest |x| over the set."""
        return float(np.linalg.norm(self.center)) + self.r_out

    def distance(self, pos):
        r = np.sqrt(_sq_norms(pos - np.asarray(self.center)))
        return np.maximum(np.maximum(self.r_in - r, r - self.r_out), 0.0)


@dataclass(frozen=True)
class RegionUnion(Region):
    """Finite union; every geometric method delegates to the members."""

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise RegionError("union needs at least one member")
        st = {m.spacetime for m in self.members}
        if len(st) != 1:
            raise RegionError("union members must all be spatial or all space-time")
        if len({m.d for m in self.members}) != 1:
            raise RegionError("union members must share a dimension")

    @property
    def spacetime(self):
        return self.members[0].spacetime

    @property
    def d(self):
        return self.members[0].d

    def mask(self, pts):
        return np.any([m.mask(pts) for m in self.members], axis=0)

    def bounds(self):
        parts = [m.bounds() for m in self.members]
        return (np.min([lo for lo, _ in parts], axis=0),
                np.max([hi for _, hi in parts], axis=0))

    def to_dict(self):
        return {"kind": "union", "members": [m.to_dict() for m in self.members]}

    def slices(self):
        """Member slices grouped by slice time, bases of one time unioned.

        Raises RegionError when slices are mixed with full-dimensional
        members: the two kinds of cell have different volumes.
        """
        parts = [m.slices() for m in self.members]
        if all(p is None for p in parts):
            return None
        if any(p is None for p in parts):
            raise RegionError("union mixes time slices with full-dimensional members, "
                              "whose grid cells have different volumes")
        bases = {}
        for p in parts:
            for t0, base in p:
                bases.setdefault(t0, []).append(base)
        return [(t0, b[0] if len(b) == 1 else RegionUnion(tuple(b)))
                for t0, b in bases.items()]

    def max_norm(self):
        return max(m.max_norm() for m in self.members)

    def distance(self, pos):
        return np.min([m.distance(pos) for m in self.members], axis=0)

    def graph_segment_hits(self, ta, tb, pa, pb):
        return np.any([m.graph_segment_hits(ta, tb, pa, pb) for m in self.members],
                      axis=0)


def contains(region, points):
    """Vectorized membership test.

    Space-time regions take rows (t, x); spatial regions take rows x.
    Returns a bool array (or scalar for a single point).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    scalar = np.asarray(points).ndim == 1
    want = (region.d + 1) if region.spacetime else region.d
    if pts.shape[1] != want:
        raise RegionError(f"point dimension {pts.shape[1]} != expected {want}")
    out = region.mask(pts)
    return bool(out[0]) if scalar else out


@dataclass(frozen=True)
class CellCloud:
    """Grid cells kept by the center-in-region rule.

    ``coords`` holds spatial centers (n, d); for space-time clouds ``times``
    holds the matching time coordinates, and for slice clouds it is constant.
    Cell volume is resolution**ambient_dim, spatial-only for time slices.
    """

    parent: object
    resolution: float
    coords: np.ndarray
    times: np.ndarray | None
    volume: float

    @property
    def n(self):
        return self.coords.shape[0]

    @property
    def d(self):
        return self.coords.shape[1]

    @property
    def is_slice(self):
        return self.parent.slices() is not None

    def translated(self, dt, dx):
        """Same cell topology, centers shifted by dx of shape (d,) and times by
        dt, which must be 0 on a spatial cloud; times must stay positive."""
        dx = np.asarray(dx, dtype=float)
        if dx.shape != (self.d,):
            raise RegionError(f"shift dx has shape {dx.shape}, not ({self.d},)")
        if self.times is None and dt != 0:
            raise RegionError(f"a spatial cloud has no time to shift by dt = {dt}")
        times = None if self.times is None else self.times + dt
        if times is not None and np.any(times <= 0):
            raise RegionError("translated cloud leaves E (nonpositive times)")
        return CellCloud(self.parent, self.resolution, self.coords + dx, times, self.volume)


def _axis_centers(lo, hi, res):
    n = int(math.ceil((hi - lo) / res - 1e-12))
    n = max(n, 1)
    return lo + (np.arange(n) + 0.5) * res


def discretize(region, resolution):
    """Axis-aligned grid of pitch ``resolution`` clipped by cell-center membership.

    Time slices grid their spatial base: one grid per distinct slice time,
    so members of a union that share a time share a grid and its cells.
    """
    if not resolution > 0:  # refuses nan too
        raise RegionError("resolution must be positive")

    slices = region.slices()
    if slices is not None:
        clouds = [(t0, discretize(base, resolution)) for t0, base in slices]
        coords = np.concatenate([c.coords for _, c in clouds])
        times = np.concatenate([np.full(c.n, t0) for t0, c in clouds])
        return CellCloud(region, resolution, coords, times, resolution ** region.d)

    lo, hi = region.bounds()
    axes = [_axis_centers(lo[i], hi[i], resolution) for i in range(lo.size)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, lo.size)
    cells = mesh[region.mask(mesh)]
    if cells.shape[0] == 0:
        raise RegionError("empty discretization")
    if region.spacetime:
        return CellCloud(region, resolution, cells[:, 1:], cells[:, 0],
                         resolution ** (region.d + 1))
    return CellCloud(region, resolution, cells, None, resolution ** region.d)


def sample_uniform(region, n, seed):
    """n i.i.d. uniform points by rejection from the bounding box.

    Time slices are sampled in their spatial base (the union of the bases
    for a union of slices), which needs a single slice time. Deterministic
    per seed, or drawn from ``seed`` in place when it is a Generator; aborts
    if the acceptance rate falls below 1e-4. ``n`` must be a whole number
    >= 0 (``ValueError`` otherwise).
    """
    count = _whole(n, "n")
    slices = region.slices()
    if slices is not None:
        if len(slices) != 1:
            raise RegionError("sampling a union of slices needs one common slice time")
        region = slices[0][1]
    rng = np.random.default_rng(seed)
    lo, hi = region.bounds()
    dim = lo.size
    out = np.empty((0, dim))
    proposed = 0
    while out.shape[0] < count:
        chunk = max(4 * (count - out.shape[0]), 256)
        pts = rng.uniform(lo, hi, size=(chunk, dim))
        acc = pts[region.mask(pts)]
        out = np.concatenate([out, acc])
        proposed += chunk
        if proposed >= 1_000_000 and out.shape[0] < 1e-4 * proposed:
            raise RuntimeError(
                f"rejection acceptance rate below 1e-4 for {type(region).__name__}: "
                f"{out.shape[0]}/{proposed} accepted"
            )
    return out[:count]


# --- canonical JSON encoding -------------------------------------------------

class ConfigError(ValueError):
    pass


_REQUIRED = object()


def _field(cfg, name, kind=None, default=_REQUIRED):
    """Config field ``name`` converted by ``kind``, or ``default`` when it is
    missing (or null where the default is None); ConfigError names the field."""
    if name not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"config missing field {name!r}")
        return default
    val = cfg[name]
    if kind is None or (val is None and default is None):
        return val
    try:
        return kind(val)
    except (TypeError, ValueError):
        raise ConfigError(f"config field {name!r} has invalid value {val!r}") from None


def _integer(val):
    """int(val), refusing a bool, a string and any value but an int whose
    float is not a whole number (1e4 passes; 2.5 in any type, nan and inf do
    not); a value with no float, such as None, is a TypeError."""
    if isinstance(val, (bool, str)) or (not isinstance(val, (int, np.integer))
                                        and not float(val).is_integer()):
        raise ValueError(val)
    return int(val)


def _whole(val, name, least=0):
    """_integer(val) if that is >= least, else a ValueError that names ``name``
    and val: the one reader of a count such as runs or n. least = -inf
    tests only that val is a whole number."""
    try:
        count = _integer(val)
    except (TypeError, ValueError):
        count = None
    if count is None or count < least:
        bound = "" if least == -math.inf else f" >= {least}"
        raise ValueError(f"{name} must be a whole number{bound}, got {val!r}")
    return count


def _count(val):
    """_integer(val), refusing a value below 1."""
    return _whole(val, "count", 1)


def _real(val):
    """float(val), refusing a bool, a string and a non-finite value."""
    if isinstance(val, (bool, str)):
        raise ValueError(val)
    val = float(val)
    if not math.isfinite(val):
        raise ValueError(val)
    return val


def _positive(val):
    """_real(val), refusing a value at or below 0."""
    if _real(val) <= 0:
        raise ValueError(val)
    return float(val)


def _list_of(kind):
    """Reader of a JSON list, each item converted by ``kind``; refuses a
    string, a dict or any other non-list."""
    def read(val):
        if not isinstance(val, list):
            raise TypeError(val)
        return [kind(v) for v in val]
    return read


def region_to_dict(region):
    if not isinstance(region, Region):
        raise RegionError(f"unknown region type {type(region).__name__}")
    return region.to_dict()


def region_from_dict(spec):
    try:
        kind = spec["kind"]
    except (TypeError, KeyError):
        raise RegionError("region spec missing 'kind'") from None
    get, reals = partial(_field, spec), _list_of(_real)
    try:
        if kind == "time_slice_ball":
            return TimeSliceBall(get("t0", _real), get("center", reals), get("radius", _real))
        if kind == "slice_of":
            return SliceOf(get("t0", _real), region_from_dict(get("base")))
        if kind == "box":
            return SpaceTimeBox(get("t_lo", _real), get("t_hi", _real),
                                get("corner_lo", reals), get("corner_hi", reals))
        if kind == "thorn":
            return Thorn(get("profile", str), get("param", _real), get("t_lo", _real),
                         get("t_hi", _real), get("d", _integer, 1))
        if kind == "ball":
            return SpatialBall(get("center", reals), get("radius", _real))
        if kind == "annulus":
            return SpatialAnnulus(get("center", reals), get("r_in", _real), get("r_out", _real))
        if kind == "union":
            return RegionUnion(tuple(map(region_from_dict, get("members", _list_of(dict)))))
    except ConfigError as exc:
        raise RegionError(f"region spec {kind!r}: {exc}") from None
    raise RegionError(f"unknown region kind {kind!r}")
