"""Multi-index Hermite polynomials, the smoothing-operator family they
diagonalize, operator-norm probes, and the Hardy inequality.

Conventions. He_n is the probabilists' family (He_0 = 1, He_1 = u,
He_n = u He_{n-1} - (n-1) He_{n-2}) taken as products over coordinates for a
multi-index n. The separated fields are

    h(n, g)(t, x) = He_n(x / sqrt(t)) t^{-|n|/2} g(t),

while expansions f(t, x) = sum_n He_n(x / sqrt(t)) gamma_n(t) carry plain
coefficient profiles gamma_n with ||f||^2 = sum_n n! int gamma_n(t)^2 dt.
The two conventions differ by the t^{-|n|/2} factor; every conversion here
is explicit because silently mixing them is the main correctness hazard.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .heat_kernel import LOG_FLOOR
from .quadrature import (gauss_hermite_prob, gauss_legendre, panel_rule, panels,
                         tensor_rule)
from .region import _integer, _whole

__all__ = [
    "BumpProfile",
    "BoxProfile",
    "hermite_value",
    "hermite_value_1d",
    "hermite_derivative_check",
    "hermite_orthogonality",
    "h_field",
    "lambda_numeric",
    "lambda_numeric_on_hermite",
    "lambda_family_on_hermite",
    "operator_norm_probe",
    "hardy_check",
    "generating_function_error",
    "multi_indices",
    "index_factorial",
    "OPERATOR_BOUNDS",
    "verification_report",
]


# --- time profiles -------------------------------------------------------------

def _bump(t, alpha, beta, amplitude):
    """amplitude * exp(1 - 1/(1 - u^2)) inside (alpha, beta), else 0.

    u is the affine map of [alpha, beta] onto [-1, 1]; the arguments
    broadcast against each other. Where the exponential falls below
    e^LOG_FLOOR, about 1e-304, the value is 0.
    """
    u = (2.0 * t - (alpha + beta)) / (beta - alpha)
    gap = 1.0 - u * u  # > 0 exactly inside
    # 1 - 1/gap >= LOG_FLOOR for gap >= floor_gap; exp is about 100 times
    # slower where its result is subnormal, so values below e^LOG_FLOOR read 0
    floor_gap = 1.0 / (1.0 - LOG_FLOOR)
    return np.where(gap >= floor_gap,
                    amplitude * np.exp(1.0 - 1.0 / np.maximum(gap, floor_gap)), 0.0)


@lru_cache(maxsize=1)
def _unit_bump_rule():
    """The BUMP_PANELS x BUMP_ORDER GL panels of [0, 1], (nodes, weights),
    and the bump of support [0, 1] and amplitude 1 at the nodes; every bump
    profile's are these, moved and scaled."""
    nodes, weights = panels(np.linspace(0.0, 1.0, BUMP_PANELS + 1), BUMP_ORDER)
    values = _bump(nodes, 0.0, 1.0, 1.0)
    for arr in (nodes, weights, values):
        arr.flags.writeable = False
    return nodes, weights, values


@lru_cache(maxsize=4)
def _interpolant_antiderivative(order):
    """(order, order + 1) matrix taking values at the ``order`` GL nodes of
    [-1, 1] to the coefficients, in powers of xi, of int_{-1}^xi p, where p
    is the interpolant of those values.

    GL quadrature is exact for P_j P_k here, so p's Legendre coefficients
    are c_j = (j + 1/2) sum_k w_k f(x_k) P_j(x_k); row j of ``legint`` of
    the identity holds the Legendre coefficients of int_{-1}^xi P_j, and row
    m of the last factor the power coefficients of P_m (``leg2poly``).
    """
    x, w = gauss_legendre(order)
    to_coef = (np.polynomial.legendre.legvander(x, order - 1) * w[:, None]
               * (np.arange(order) + 0.5))
    to_power = np.zeros((order + 1, order + 1))
    for m in range(order + 1):
        to_power[m, :m + 1] = np.polynomial.legendre.leg2poly(np.eye(m + 1)[m])
    out = (to_coef @ np.polynomial.legendre.legint(np.eye(order), lbnd=-1, axis=1)
           @ to_power)
    out.flags.writeable = False
    return out


BUMP_PANELS, BUMP_ORDER = 24, 16  # GL panels per bump profile, nodes per panel
LAMBDA_S_ORDER = 64  # direct smoothing-operator quadrature in s: 8 panels of
                     # LAMBDA_S_ORDER // 4 = 16 GL nodes, 128 nodes in all
GH_ORDER = 40        # Gauss-Hermite nodes of that quadrature and of orthogonality
FD_STEP = 1e-5       # central-difference step of hermite_derivative_check


class _BumpBatch:
    """K bump profiles, each on its own BUMP_PANELS x BUMP_ORDER GL panels.

    A running integral int_0^t s^q g(s) ds is the panel cumulative sum up to
    the panel holding t plus the exact integral, up to t, of the order-point
    Legendre interpolant of s^q g on that panel: one polynomial per panel in
    the panel's coordinate xi in [-1, 1], held by its power coefficients. So
    g is only ever evaluated at the panel nodes, whatever the number of
    points t. Inside the two end panels, where the bump is flattest, the
    result is off by at most a few 1e-11 of the total; elsewhere by
    rounding. Horner's rule on the power coefficients agrees with a
    Clenshaw sum of the Legendre series to 3.6e-14 of the total (50 random
    batches of 28 profiles at 3,000 points).
    """

    def __init__(self, alpha, beta, amplitude):
        self.alpha = np.asarray(alpha, dtype=float)
        self.beta = np.asarray(beta, dtype=float)
        self.amplitude = np.asarray(amplitude, dtype=float)
        self.edges = np.linspace(self.alpha, self.beta, BUMP_PANELS + 1, axis=-1)
        width = (self.beta - self.alpha)[:, None, None]
        unit_nodes, unit_weights, unit_values = _unit_bump_rule()
        self.nodes = self.alpha[:, None, None] + width * unit_nodes
        self.weights = width * unit_weights
        self.values = self.amplitude[:, None, None] * unit_values

    def __getitem__(self, rows):
        """The profiles of the slice ``rows``, sharing this batch's arrays."""
        part = object.__new__(_BumpBatch)
        for name in ("alpha", "beta", "amplitude", "edges", "nodes", "weights",
                     "values"):
            setattr(part, name, getattr(self, name)[rows])
        return part

    def sq_integrals(self):
        """int g_k(t)^2 dt for every profile, shape (K,)."""
        return (self.weights * self.values ** 2).sum(axis=(1, 2))

    def stretch_cuts(self, ts):
        """(K, BUMP_PANELS + 1) bounds of each profile's stretch of the
        increasing points ts: column 0 is the first point past alpha_k, the
        last column the first point at or past beta_k, the others the first
        points at or past the inner panel edges."""
        cuts = np.searchsorted(ts, self.edges)
        cuts[:, 0] = np.searchsorted(ts, self.alpha, "right")
        return cuts

    def stretch_integrals(self, q, ts, cuts):
        """int_0^t s^{q_k} g_k(s) ds on every profile's stretch of ts.

        ``q`` holds one exponent per profile and ``cuts`` the stretches, as
        from :meth:`stretch_cuts`; ts need only increase on each stretch.
        Returns (values, totals): the running integrals on the stretches,
        profile by profile, and the (K,) totals, which the integrals equal
        from each stretch's end on (they are 0 before its start). Each
        point's panel polynomial in powers of xi is summed by one Horner
        pass over all stretches, so the cost scales with the points inside
        the supports.
        """
        n_prof, n_panels, order = self.nodes.shape
        fq = self.values * np.exp(np.asarray(q, dtype=float)[:, None, None]
                                  * np.log(self.nodes))
        cum = np.zeros((n_prof, n_panels + 1))
        np.cumsum((self.weights * fq).sum(axis=-1), axis=-1, out=cum[:, 1:])
        # each panel's running integral in powers of its xi in [-1, 1]
        half = 0.5 * np.diff(self.edges, axis=-1)
        coef = (fq @ _interpolant_antiderivative(order)) * half[..., None]
        coef[..., 0] += cum[:, :-1]
        coef = coef.reshape(-1, order + 1).T
        # flat stretches, profile by profile and so sorted by panel: each
        # panel's numbers are repeated over its run of points, not gathered
        per_panel = np.diff(cuts, axis=-1).ravel()
        mid = 0.5 * (self.edges[:, :-1] + self.edges[:, 1:])
        xi = _stretches(ts, cuts[:, 0], cuts[:, -1])
        xi -= np.repeat(mid, per_panel)
        xi /= np.repeat(half, per_panel)
        acc = np.repeat(coef[order], per_panel)
        for m in range(order - 1, -1, -1):
            acc *= xi
            acc += np.repeat(coef[m], per_panel)
        return acc, cum[:, -1]

    def running_integrals(self, q, t):
        """int_0^t s^{q_k} g_k(s) ds at the 1-D points t, and the totals.

        ``q`` holds one exponent per profile; t may come in any order, and
        -inf and inf read 0 and the total. Returns arrays of shapes (K, N)
        and (K,): the dense scatter of :meth:`stretch_integrals` on the
        sorted points. Raises ``ValueError`` for NaN points.
        """
        t = np.asarray(t, dtype=float)
        if np.isnan(t).any():
            raise ValueError("running integrals need points t that are not NaN")
        perm = np.argsort(t)
        ts = t[perm]
        cuts = self.stretch_cuts(ts)
        acc, total = self.stretch_integrals(q, ts, cuts)
        srt = np.zeros((len(cuts), t.size))  # results at the sorted points
        for k, stop in enumerate(cuts[:, -1]):
            srt[k, stop:] = total[k]
        start = cuts[:, 0] + np.arange(len(cuts)) * t.size
        srt.ravel()[_ranges(start, cuts[:, -1] - cuts[:, 0])] = acc
        out = np.empty_like(srt)
        out[:, perm] = srt
        return out, total


def _stretches(x, start, stop):
    """x[start[k]:stop[k]] for every k, end to end."""
    return np.concatenate([x[a:b] for a, b in zip(start.tolist(), stop.tolist())])


def _ranges(start, count):
    """The runs start[k], ..., start[k] + count[k] - 1, end to end."""
    ends = np.cumsum(count)
    return (np.arange(ends[-1] if ends.size else 0)
            + np.repeat(start - (ends - count), count))


class BumpProfile:
    """Smooth window supported on [alpha, beta].

    g(t) = amplitude * exp(1 - 1/(1 - u^2)) with u the affine map of
    [alpha, beta] onto [-1, 1]. Weighted running integrals int_0^t s^q g(s) ds
    use a fixed panel rule and the panels' Legendre interpolants (a batch of
    one, see ``_BumpBatch``); the profile is smooth, so this is accurate far
    beyond the tolerances used anywhere in the package.
    """

    def __init__(self, alpha, beta, amplitude=1.0):
        if not (0.0 < alpha < beta < math.inf and math.isfinite(amplitude)):
            raise ValueError("need 0 < alpha < beta < inf and a finite amplitude")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.amplitude = float(amplitude)
        self._batch = _BumpBatch([self.alpha], [self.beta], [self.amplitude])

    @property
    def support(self):
        return (self.alpha, self.beta)

    def __call__(self, t):
        return _bump(np.asarray(t, dtype=float), self.alpha, self.beta, self.amplitude)

    def weighted_integral(self, q, t=None):
        """int_0^t s^q g(s) ds, vectorized over t (full integral if t is None).

        Raises ``ValueError`` for NaN points t.
        """
        if t is None:
            return float(self._batch.running_integrals([q], [])[1][0])
        t = np.asarray(t, dtype=float)
        return self._batch.running_integrals([q], t.ravel())[0][0].reshape(t.shape)

    def sq_integral(self):
        """int g(t)^2 dt over the support."""
        return float(self._batch.sq_integrals()[0])


class BoxProfile:
    """Piecewise-constant profile, integrated in closed form by :func:`hardy_check`."""

    def __init__(self, edges, values):
        edges = np.asarray(edges, dtype=float)
        values = np.asarray(values, dtype=float)
        if edges.ndim != 1 or edges.size != values.size + 1:
            raise ValueError("need len(edges) == len(values) + 1")
        if not (np.all(np.diff(edges) > 0) and 0 <= edges[0] and edges[-1] < math.inf):
            raise ValueError("edges must be finite, increasing and nonnegative")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        self.edges = edges
        self.values = values

    @property
    def support(self):
        return (float(self.edges[0]), float(self.edges[-1]))

    def sq_integral(self):
        return float(np.sum(self.values ** 2 * np.diff(self.edges)))


# --- Hermite polynomials --------------------------------------------------------

def hermite_value_1d(k, u):
    """He_k(u) via the three-term recurrence, vectorized in u; needs a whole
    number k >= 0 (2.0 passes, 1.7 is a ValueError)."""
    (k,) = _multi_index(k)
    if k < 0:
        raise ValueError("index entries must be >= 0")
    for cur in _hermite_rows(k, np.asarray(u, dtype=float)):
        pass
    return cur


def _hermite_rows(top, u):
    """He_0(u), He_1(u), ..., He_top(u), one array at a time, by the
    three-term recurrence."""
    prev = np.ones(u.shape)
    yield prev
    if top == 0:
        return
    cur = u.copy()
    yield cur
    for j in range(2, top + 1):
        prev, cur = cur, u * cur - (j - 1) * prev
        yield cur


def _multi_index(n):
    """n as a tuple of ints; ``ValueError`` for an entry that is not integral."""
    entries = (n,) if isinstance(n, int) else np.atleast_1d(n)  # an int skips numpy
    try:
        return tuple(map(_integer, entries))
    except (TypeError, ValueError):
        raise ValueError(f"index entries must be integers, got {n!r}") from None


def _check_axis(i, d):
    """i as an int; ``ValueError`` unless it is a whole number 0 <= i < d."""
    i = _whole(i, "i", -math.inf)
    if not 0 <= i < d:
        raise ValueError(f"need an axis 0 <= i < d = {d}, got i = {i}")
    return i


def hermite_value(n, x):
    """Multi-index He_n(x) = prod_i He_{n_i}(x_i); x may be (..., d)."""
    n = _multi_index(n)
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.shape[-1] != len(n):
        raise ValueError("dimension mismatch between index and point")
    out = np.ones(x.shape[:-1])
    for i, k in enumerate(n):
        out = out * hermite_value_1d(k, x[..., i])
    return out if out.shape else float(out)


def index_factorial(n):
    return math.prod(map(math.factorial, _multi_index(n)))


def multi_indices(d, max_total):
    """All n in N^d with |n| <= max_total, lexicographic."""
    return [n for n in itertools.product(range(max_total + 1), repeat=d)
            if sum(n) <= max_total]


def hermite_derivative_check(n, i, x):
    """(analytic, numeric) values of d/dx_i He_n at x; needs 0 <= i < d, n_i >= 1."""
    n = _multi_index(n)
    i = _check_axis(i, len(n))
    if n[i] < 1:
        raise ValueError("derivative index must have n_i >= 1")
    x = np.asarray(np.atleast_1d(x), dtype=float)
    lowered = list(n)
    lowered[i] -= 1
    analytic = n[i] * float(hermite_value(tuple(lowered), x))
    e = np.zeros_like(x)
    e[i] = FD_STEP
    numeric = (float(hermite_value(n, x + e)) - float(hermite_value(n, x - e))) \
        / (2.0 * FD_STEP)
    return analytic, numeric


def hermite_orthogonality(n, m, t):
    """int p(t, x) He_n(x/sqrt t) He_m(x/sqrt t) dx by Gauss-Hermite nodes.

    Nodes placed for the variance-t Gaussian weight map through x/sqrt(t)
    onto the standard normal's, so the value does not depend on t; equals
    n! when n == m. A batch of one of :func:`_orthogonality_batch`.
    """
    n = _multi_index(n)
    m = _multi_index(m)
    if len(n) != len(m):
        raise ValueError("index dimension mismatch")
    if min(n + m) < 0:
        raise ValueError("index entries must be >= 0")
    if not 0 < t < math.inf:
        raise ValueError(f"need a finite t > 0, got {t}")
    return float(_orthogonality_batch(np.array([n]), np.array([m]))[0])


def _orthogonality_batch(n, m):
    """:func:`hermite_orthogonality` for every row of the (P, d) index arrays
    n and m: one He_0..He_top table at the Gauss-Hermite nodes, its Gram
    matrix, and per pair the product of one Gram entry per axis."""
    u, w = gauss_hermite_prob(GH_ORDER)
    he = np.array(list(_hermite_rows(max(n.max(), m.max()), u)))
    return np.prod(((he * w) @ he.T)[n, m], axis=-1)


# --- separated fields and the operator family -----------------------------------

def h_field(n, profile, t, x):
    """h(n, g)(t, x) = He_n(x / sqrt t) t^{-|n|/2} g(t); zero for t <= 0."""
    n = _multi_index(n)
    if t <= 0:
        return 0.0
    x = np.asarray(np.atleast_1d(x), dtype=float)
    tot = sum(n)
    return float(hermite_value(n, x / math.sqrt(t)) * t ** (-0.5 * tot)
                 * profile(np.asarray(t)))


def _lambda_rule(support, t, gh_order):
    """Nodes and weights of the direct quadrature of the smoothing operator.

    s: Gauss-Legendre with LAMBDA_S_ORDER // 4 points on each of 8 equal
    panels of (max(0, a), min(t, b)) -- bump windows converge slowly on a
    single GL interval; y: ``gh_order``-point Gauss-Hermite for the standard
    normal. None when the window is empty, where the operator is 0.
    """
    lo, hi = max(0.0, support[0]), min(t, support[1])
    if hi <= lo:
        return None
    s, ws = panel_rule(np.linspace(lo, hi, 9), LAMBDA_S_ORDER // 4)
    u, w = gauss_hermite_prob(gh_order)
    return s, ws, u, w


def lambda_numeric(f, support, t, x, gh_order=GH_ORDER):
    """Smoothing operator p^{-1}[p * (p f)] at (t, x) by direct quadrature.

    The spatial convolution collapses onto a Gaussian average: the operator
    equals int_0^t ds E[f(s, m + sqrt(sig) Z)] with m = (s/t) x and
    sig = s (t - s)/t, so the y-integral is Gauss-Hermite with those moments
    and the s-integral is Gauss-Legendre over the support window.

    ``f(s, Y)`` must accept a float s and an (m, d) array of points.
    """
    x = np.asarray(np.atleast_1d(x), dtype=float)
    d = x.size
    rule = _lambda_rule(support, t, gh_order)
    if rule is None:
        return 0.0
    s_nodes, s_weights, u, w = rule
    mesh, wmesh = tensor_rule(u, w, d)
    total = 0.0
    for s, ws in zip(s_nodes, s_weights):
        sig = s * (t - s) / t
        m = (s / t) * x
        y = m[None, :] + math.sqrt(sig) * mesh
        total += ws * float(np.dot(wmesh, f(s, y)))
    return total


def lambda_numeric_on_hermite(n, profile, ts, xs):
    """:func:`lambda_numeric` of the field h(n, profile) on a grid.

    Returns the (len(ts), len(xs)) values at every t in ``ts`` and every
    point of the (X, d) array ``xs``, with the same s and y rules. The
    Gaussian average has covariance sig * I and He_n is a product over
    coordinates, so the d-dimensional Gauss-Hermite sum is the product of
    one 1-D sum per axis; no d-dimensional node mesh is built. A batch of
    one of :func:`_lambda_on_hermite_batch`.
    """
    return _lambda_on_hermite_batch([n], profile, ts, xs)[0]


def _lambda_on_hermite_batch(ns, profile, ts, xs):
    """:func:`lambda_numeric_on_hermite` for every multi-index of ``ns``,
    all of one dimension d, shape (P, len(ts), len(xs)): per t and axis one
    He_0..He_top table at the (x, s, y) nodes and its Gauss-Hermite sums,
    and per index the product over axes of one of those sums."""
    ns = np.array([_multi_index(n) for n in ns], dtype=int)
    if ns.min(initial=0) < 0:
        raise ValueError("index entries must be >= 0")
    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float).reshape(-1, ns.shape[1])
    top = int(ns.max(initial=0))
    out = np.zeros((len(ns), ts.size, xs.shape[0]))
    for r, t in enumerate(ts):
        rule = _lambda_rule(profile.support, t, GH_ORDER)
        if rule is None:
            continue
        s, ws, u, w = rule
        spread = np.sqrt(s * (t - s) / t)[:, None] * u  # axes (s, y)
        root_s = np.sqrt(s)[:, None]
        avg = np.ones((len(ns), xs.shape[0], s.size))
        for i in range(ns.shape[1]):
            y = (s / t)[:, None] * xs[:, i, None, None] + spread  # axes (x, s, y)
            sums = np.array([he @ w for he in _hermite_rows(top, y / root_s)])
            avg *= sums[ns[:, i]]
        g = profile(s)
        for p, tot in enumerate(ns.sum(axis=1).tolist()):
            out[p, r] = avg[p] @ (ws * s ** (-0.5 * tot) * g)
    return out


def _terms(which, indices, i):
    """(identity, [(j, coef)]): the operator maps coefficient profile n (row n
    of ``indices``) to coef[n] J_n(t) / t at output n (j None) or n - 2 e_j,
    plus the profile itself if ``identity``, where J_n(t) = t^{-|n|/2}
    int_0^t s^{|n|/2} gamma_n(s) ds (see :func:`_links`). Raises
    ``ValueError`` for an axis i outside 0..d-1."""
    i = _check_axis(i, indices.shape[1])
    ni = indices[:, i]
    if which == "lambda0":
        return False, [(None, np.ones(len(indices)))]
    if which == "lambda2i":
        return False, [(i, 0.5 * ni * (ni - 1))]
    if which == "lambda3i":
        return False, [(None, -ni), (i, -ni * (ni - 1))]
    if which == "lambda4i":
        return False, [(None, -ni)]
    if which == "lambda1":
        # identity part plus sum_j (Lambda_{4,j} - Lambda_{2,j})
        terms = []
        for j in range(indices.shape[1]):
            nj = indices[:, j]
            terms += [(None, -nj), (j, -0.5 * nj * (nj - 1))]
        return True, terms
    raise ValueError(f"unknown operator {which!r}")


def lambda_family_on_hermite(which, n, profile, t, x, i=0):
    """Closed-form action of the operator family on h(n, g) at (t, x).

    which: "lambda" (the smoothing operator, He_n(x/sqrt t) t^{-|n|/2} G(t)
    with G(t) = int_0^t g) or an operator of :func:`_terms`: "lambda0" (the
    time-scaled one, lambda / t), "lambda1", "lambda2i", "lambda3i" or
    "lambda4i". Terms with coefficient 0 are skipped, so lowered indices
    never go negative. An unknown operator, and an axis i outside 0..d-1 for
    the operators of :func:`_terms`, raise ``ValueError``, at t <= 0 too.
    """
    n = _multi_index(n)
    if which != "lambda":
        identity, terms = _terms(which, np.array([n]), i)
    if t <= 0:
        return 0.0
    x = np.asarray(np.atleast_1d(x), dtype=float)
    tot = sum(n)
    root_t = math.sqrt(t)
    big_g = float(profile.weighted_integral(0.0, np.asarray(t)))
    if which == "lambda":
        return float(hermite_value(n, x / root_t)) * t ** (-0.5 * tot) * big_g
    decay = t ** (-1.0 - 0.5 * tot) * big_g
    val = h_field(n, profile, t, x) if identity else 0.0
    for j, coef in terms:
        c = float(coef[0])
        if c != 0.0:
            m = list(n)
            if j is not None:
                m[j] -= 2
            val += c * float(hermite_value(m, x / root_t)) * decay
    return val


# --- operator norms in the coefficient domain ------------------------------------

OPERATOR_BOUNDS = {
    "lambda0": lambda d, T: 2.0,
    "e_t_lambda": lambda d, T: T / math.sqrt(2.0),
    "lambda1": lambda d, T: 1.0 + 3.0 * d,
    "lambda2i": lambda d, T: 1.0,
    "lambda3i": lambda d, T: 4.0,
    "lambda4i": lambda d, T: 2.0,
}


def _common_grid(profiles, max_degree, T=None):
    """The probes' one rule for ||op f||^2, nodes in increasing order: GL-12
    panels on every profile's 9 edges, ending at a horizon T. Without T a
    last GL panel in u = t_max / t covers (t_max, inf), where output m is
    a t^{-|m|/2-1} + b t^{-|m|/2-2}: out_m^2 dt is a polynomial of degree
    <= |m| + 2 <= max_degree + 2 in u, which max_degree // 2 + 2 nodes
    integrate exactly."""
    edges = np.unique(np.linspace(profiles.alpha, profiles.beta, 9, axis=-1))
    if T is not None:
        return panel_rule(np.append(edges[edges < T], T), order=12)
    nodes, weights = panel_rule(edges, order=12)
    u, w = (x[::-1] for x in panel_rule([0.0, 1.0], max_degree // 2 + 2))
    return (np.concatenate([nodes, edges[-1] / u]),
            np.concatenate([weights, edges[-1] * w / u ** 2]))


def _lowered_rows(indices, j):
    """(src, dst): the rows of ``indices`` with n_j >= 2 and the rows of n - 2 e_j."""
    row = {n: r for r, n in enumerate(map(tuple, indices.tolist()))}
    src = np.flatnonzero(indices[:, j] >= 2)
    lowered = indices[src]
    lowered[:, j] -= 2
    dst = np.array([row[n] for n in map(tuple, lowered.tolist())], dtype=int)
    return src, dst


PROBE_CHUNK = 64          # bump profiles the probes draw and evaluate at once
STRETCH_BLOCK = 1 << 15   # stretch or window points evaluated at once


def _links(which, indices, i):
    """(identity, q, power, own, lowered): the operator as maps between rows.

    Output row m is the profile gamma_m itself if ``identity``, plus
    own[m] J_m(t), plus coef * J_src(t) for every link (src, dst, coef) of
    a ``lowered`` group with dst = m, where J_n(t) = t^{-power_n}
    int_0^t s^{q_n} gamma_n(s) ds and q_n = |n|/2. power_n is q_n for
    "e_t_lambda", whose output is J itself, and q_n + 1 for the operators
    of :func:`_terms`. A lowered group's sources sit at dst + 2 e_j, so
    their power is that of dst plus 1; its dst rows are distinct, and links
    with coefficient 0 are left out.
    """
    q = 0.5 * indices.sum(axis=1)
    if which == "e_t_lambda":
        return False, q, q, np.ones(len(indices)), []
    identity, terms = _terms(which, indices, i)
    own = sum((coef for j, coef in terms if j is None), np.zeros(len(indices)))
    lowered = []
    for j, coef in terms:
        if j is not None:
            src, dst = _lowered_rows(indices, j)
            keep = coef[src] != 0
            lowered.append((src[keep], dst[keep], coef[src][keep]))
    return identity, q, q + 1.0, own, lowered


def _blocks(sizes):
    """Consecutive (start, stop) ranges of ``sizes`` that sum to at most
    STRETCH_BLOCK, one entry at least."""
    ends = np.cumsum(sizes)
    bounds = [0]
    while bounds[-1] < len(sizes):
        done = ends[bounds[-1] - 1] if bounds[-1] else 0
        stop = int(np.searchsorted(ends, done + STRETCH_BLOCK, "right"))
        bounds.append(max(stop, bounds[-1] + 1))
    return list(zip(bounds[:-1], bounds[1:]))


def _run_sums(x, count):
    """Sums of the consecutive runs of x of lengths ``count``; 0 for an empty run."""
    out = np.zeros(len(count))
    full = np.flatnonzero(count)
    if full.size:
        out[full] = np.add.reduceat(x, (np.cumsum(count) - count)[full])
    return out


def _probe_chunk(links, draw, max_degree, horizon):
    """Squared output and input norms of a chunk of probe trials.

    ``draw`` is the (C, K, 3) array of per-index (start, width, amplitude)
    draws. Returns two (C, K) arrays: ||row n of op f||^2 and
    ||gamma_n||^2, before the index factorials n!.

    Each trial has its own :func:`_common_grid`, laid end to end with the
    others, and each profile is evaluated only on its stretch of it. An
    output row that reads one row needs only that row's stretch; one that
    reads more is evaluated on the window from the first stretch start to
    the last stretch end of the rows it reads. Past its last stretch end an
    output is a t^{-p} + b t^{-p-1}, p its power, whose squared quadrature
    comes from the suffix sums sum_{j >= i} w_j t_j^{-k} on the trial's nodes.
    """
    identity, q, power, own, lowered = links
    n_trials, n_idx = draw.shape[:2]
    n_rows = n_trials * n_idx
    a = draw[..., 0].ravel()
    amp = draw[..., 2].ravel()
    batch = _BumpBatch(a, a + draw[..., 1].ravel(),
                       np.where(np.abs(amp) < 0.05, 0.05, amp))
    nodes, weights = [], []
    cuts = np.empty(batch.edges.shape, dtype=int)
    starts = np.zeros(n_trials + 1, dtype=int)  # each trial's first node
    for c in range(n_trials):
        rows = slice(c * n_idx, (c + 1) * n_idx)
        part = batch[rows]
        t, w = _common_grid(part, max_degree, horizon)
        cuts[rows] = part.stretch_cuts(t) + starts[c]
        starts[c + 1] = starts[c] + t.size
        nodes.append(t)
        weights.append(w)
    ts = np.concatenate(nodes)
    ws = np.concatenate(weights)
    log_t = np.log(ts)
    q, power, own = (np.tile(x, n_trials) for x in (q, power, own))
    offsets = (np.arange(n_trials) * n_idx)[:, None]
    lowered = [((src + offsets).ravel(), (dst + offsets).ravel(),
                np.tile(coef, n_trials)) for src, dst, coef in lowered]
    s0, s1 = cuts[:, 0], cuts[:, -1]
    count = s1 - s0

    # each output's window [lo, hi) and the rows it reads; one that reads a
    # single row is that row's J times its coefficient and needs no window
    has_own = own != 0
    lo = np.where(has_own | identity, s0, ts.size)
    hi = np.where(has_own | identity, s1, -1)
    reads = has_own + int(identity)
    for src, dst, coef in lowered:
        lo[dst] = np.minimum(lo[dst], s0[src])
        hi[dst] = np.maximum(hi[dst], s1[src])
        reads[dst] += 1
    lo[reads == 0] = hi[reads == 0] = s0[reads == 0]
    alone = (reads == 1) & (not identity)
    wide = np.flatnonzero(reads > alone)

    # J on every stretch (kept when a window reads it), and the quadrature
    # of J^2 there
    first = np.cumsum(count) - count  # each row's first stretch entry
    stretch_j = np.empty(count.sum() if wide.size else 0)
    stretch_sq = np.empty(n_rows)
    total = np.empty(n_rows)
    for r0, r1 in _blocks(count):
        vals, total[r0:r1] = batch[r0:r1].stretch_integrals(
            q[r0:r1], ts, cuts[r0:r1])
        vals *= np.exp(np.repeat(-power[r0:r1], count[r0:r1])
                       * _stretches(log_t, s0[r0:r1], s1[r0:r1]))
        if wide.size:
            stretch_j[first[r0]:first[r0] + vals.size] = vals
        vals *= vals
        vals *= _stretches(ws, s0[r0:r1], s1[r0:r1])
        stretch_sq[r0:r1] = _run_sums(vals, count[r0:r1])

    # a and b of a t^{-p} + b t^{-p-1} past hi
    past = np.stack([own * total, np.zeros(n_rows)])
    out_sq = np.where(alone, own * own * stretch_sq, 0.0)
    for src, dst, coef in lowered:
        past[1, dst] += coef * total[src]
        single = alone[dst]
        out_sq[dst[single]] = coef[single] ** 2 * stretch_sq[src[single]]
    width = hi - lo
    for b0, b1 in _blocks(width[wide]):
        rows = wide[b0:b1]
        span = width[rows]
        shift = np.zeros(n_rows, dtype=int)  # window entry minus grid index
        shift[rows] = np.cumsum(span) - span - lo[rows]
        held = np.zeros(n_rows, dtype=bool)
        held[rows] = True
        vals = np.zeros(span.sum())
        # each read row's stretch, then its power law up to the window's end
        n = count[rows]
        own_vals = np.repeat(own[rows], n) * stretch_j[_ranges(first[rows], n)]
        if identity:
            own_vals += _bump(_stretches(ts, s0[rows], s1[rows]),
                              np.repeat(batch.alpha[rows], n),
                              np.repeat(batch.beta[rows], n),
                              np.repeat(batch.amplitude[rows], n))
        vals[_ranges(s0[rows] + shift[rows], n)] = own_vals
        links = [(rows, rows, own[rows])]
        for src, dst, coef in lowered:
            src, dst, coef = src[held[dst]], dst[held[dst]], coef[held[dst]]
            links.append((src, dst, coef))
            n = count[src]
            vals[_ranges(s0[src] + shift[dst], n)] += (
                np.repeat(coef, n) * stretch_j[_ranges(first[src], n)])
        for src, dst, coef in links:
            n = hi[dst] - s1[src]
            at = _ranges(s1[src], n)
            vals[at + np.repeat(shift[dst], n)] += np.repeat(
                coef * total[src], n) * np.exp(np.repeat(-power[src], n) * log_t[at])
        vals *= vals
        vals *= _stretches(ws, lo[rows], hi[rows])
        out_sq[rows] = _run_sums(vals, span)

    # past hi: sum_{a, b} past_a past_b S(2p + a + b, hi), with S(k, i) the
    # suffix sums of w_j t_j^{-k} on each trial's nodes: sums over the
    # segments between the trials' starts and the his, then per trial
    # summed from its end
    edges = np.unique(np.concatenate([starts, hi]))
    if edges.size > 1:
        seg_trial = np.searchsorted(starts, edges[:-1], "right") - 1
        first_seg = np.searchsorted(edges, starts[:-1])
        col = np.arange(edges.size - 1) - first_seg[seg_trial]
        trial = np.repeat(np.arange(n_trials), n_idx)
        at_hi = np.searchsorted(edges, hi) - first_seg[trial]
        order = np.rint(2.0 * power).astype(int)
        k = np.arange(order.min(), order.max() + 3)
        laid = np.zeros((k.size, n_trials, col.max() + 2))
        w_tk = ws * np.exp(-k[0] * log_t)
        for row in laid:
            row[seg_trial, col] = np.add.reduceat(w_tk, edges[:-1])
            w_tk /= ts
        suffix = np.cumsum(laid[..., ::-1], axis=-1)[..., ::-1]
        for gap, part in enumerate((past[0] * past[0], 2.0 * past[0] * past[1],
                                    past[1] * past[1])):
            out_sq += part * suffix[order + gap - k[0], trial, at_hi]
    return (out_sq.reshape(n_trials, n_idx),
            batch.sq_integrals().reshape(n_trials, n_idx))


def operator_norm_probe(which, trials, max_degree, d, T=None, i=0, seed=0):
    """Max Rayleigh quotient ||op f|| / ||f|| over random finite expansions.

    Each trial draws an independent random bump coefficient profile
    (support start, width, amplitude) for every index with |n| <= max_degree.
    Quotients are evaluated in the coefficient domain, where the family acts
    index by index (see :func:`_links`): trials are drawn and evaluated in
    chunks of about PROBE_CHUNK profiles, running integrals come from the
    panel Legendre interpolants on each profile's stretch of its trial's
    common grid, and the output norm is one quadrature on that grid, tail
    included (see :func:`_probe_chunk`). The physical-space cross-check
    lives in :func:`lambda_numeric`. Raises ``ValueError`` for trials,
    max_degree or d that is not a whole number, for trials < 1,
    max_degree < 0 or d < 1, which would leave nothing to probe, for an
    "e_t_lambda" T that is not finite and > 0, and for an axis i outside
    0..d-1.
    """
    if which == "e_t_lambda" and not (T is not None and 0.0 < T < math.inf):
        raise ValueError(f"e_t_lambda probe needs a finite T > 0, got T = {T}")
    trials, max_degree, d = (_whole(val, name, -math.inf) for val, name in
                             ((trials, "trials"), (max_degree, "max_degree"), (d, "d")))
    if trials < 1 or max_degree < 0 or d < 1:
        raise ValueError("need trials >= 1, max_degree >= 0 and d >= 1")
    rng = np.random.default_rng(seed)
    indices = np.array(multi_indices(d, max_degree), dtype=int)
    fact = np.array([index_factorial(n) for n in indices], dtype=float)
    horizon = T if which == "e_t_lambda" else None
    links = _links(which, indices, i)
    per_chunk = max(1, PROBE_CHUNK // len(indices))
    worst = 0.0
    for done in range(0, trials, per_chunk):
        # per trial and index: start a, width b - a, amplitude (the same
        # stream as drawing the three scalars index by index, trial by trial)
        draw = rng.uniform([0.05, 0.1, -1.0], [2.0, 1.5, 1.0],
                           size=(min(per_chunk, trials - done), len(indices), 3))
        out_sq, in_sq = _probe_chunk(links, draw, max_degree, horizon)
        worst = max(worst, float(np.sqrt((out_sq @ fact) / (in_sq @ fact)).max()))
    return worst


# --- Hardy inequality -------------------------------------------------------------

def _power_integral(p, lo, hi):
    """int_lo^hi t^p dt with the log case at p = -1."""
    if p == -1.0:
        return math.log(hi / lo)
    return (hi ** (p + 1.0) - lo ** (p + 1.0)) / (p + 1.0)


def hardy_check(k, profile):
    """(lhs, rhs) of the weighted Hardy inequality for exponent k > -1.

    lhs = int_0^inf t^{-2-k} (int_0^t s^{k/2} h(s) ds)^2 dt,
    rhs = 4 / (k+1)^2 * int_0^inf h(t)^2 dt.

    BoxProfile arguments are integrated in closed form (exact power sums);
    smooth profiles fall back to panel quadrature plus the exact tail.
    """
    if not -1.0 < k < math.inf:
        raise ValueError(f"need a finite k > -1, got {k}")
    q = 0.5 * k + 1.0
    rhs = 4.0 / (k + 1.0) ** 2 * profile.sq_integral()
    alpha, beta = profile.support

    if isinstance(profile, BoxProfile):
        lhs = 0.0
        inner_at = 0.0  # running value of int_0^t s^{k/2} h
        for lo, hi, v in zip(profile.edges[:-1], profile.edges[1:],
                             profile.values):
            # inner(t) = a + b t^q on this piece
            b = v / q
            a = inner_at - b * lo ** q
            if lo == 0.0:
                # a = 0 when the support starts at 0, so no singular term
                lhs += b * b * _power_integral(2 * q - 2.0 - k, lo, hi)
            else:
                lhs += (a * a * _power_integral(-2.0 - k, lo, hi)
                        + 2 * a * b * _power_integral(q - 2.0 - k, lo, hi)
                        + b * b * _power_integral(2 * q - 2.0 - k, lo, hi))
            inner_at = a + b * hi ** q
        tail_c = inner_at
    else:
        edges = np.linspace(alpha, beta, 33)
        nodes, weights = panel_rule(edges, order=16)
        inner = profile.weighted_integral(0.5 * k, nodes)
        lhs = float(np.dot(weights, nodes ** (-2.0 - k) * inner ** 2))
        tail_c = profile.weighted_integral(0.5 * k)
    lhs += tail_c ** 2 * beta ** (-1.0 - k) / (1.0 + k)
    return lhs, rhs


# --- generating function -----------------------------------------------------------

def generating_function_error(z, x, max_total):
    """|sum_{|n|<=N} z^n He_n(x)/n! - exp(-(|z|^2 - 2(x,z))/2)| at one point."""
    z = np.asarray(np.atleast_1d(z), dtype=float)
    x = np.asarray(np.atleast_1d(x), dtype=float)
    d = z.size
    total = 0.0
    for n in multi_indices(d, max_total):
        zn = math.prod(float(z[i]) ** n[i] for i in range(d))
        total += zn * float(hermite_value(n, x)) / index_factorial(n)
    exact = math.exp(-0.5 * (float(z @ z) - 2.0 * float(x @ z)))
    return abs(total - exact)


# --- aggregated verification (CLI-facing) ------------------------------------------

def verification_report(seed=0, trials=200, max_degree=6, d=2, grid_n=5,
                        bound_overrides=None):
    """Run the full identity/bound suite and report per-item maxima.

    ``bound_overrides`` is a test hook mapping operator name -> bound,
    letting a negative control force a failure. trials and grid_n must be
    whole numbers >= 1 (``ValueError`` otherwise).
    """
    trials, grid_n = _whole(trials, "trials", -math.inf), _whole(grid_n, "grid_n", -math.inf)
    if trials < 1 or grid_n < 1:
        raise ValueError("need trials >= 1 and grid_n >= 1")
    rng = np.random.default_rng(seed)
    report = {"identities": [], "bounds": [], "hardy": {}, "ok": True}

    # eigen-identity on a grid, |n| <= 4, d in {1, 2}
    ts = np.linspace(0.4, 2.0, grid_n)
    root_t = np.sqrt(ts)[:, None, None]
    prof = BumpProfile(0.2, 1.2, amplitude=1.0)
    big_g = prof.weighted_integral(0.0, ts)[:, None]
    for dim in (1, 2):
        xs = np.repeat(np.linspace(-1.5, 1.5, grid_n)[:, None], dim, axis=1)
        idx = multi_indices(dim, 4)
        worst = 0.0
        for n, a in zip(idx, _lambda_on_hermite_batch(idx, prof, ts, xs)):
            b = hermite_value(n, xs / root_t) * ts[:, None] ** (-0.5 * sum(n)) * big_g
            worst = max(worst, float(np.max(np.abs(a - b))))
        report["identities"].append(
            {"name": f"eigen_identity_d{dim}", "max_error": worst,
             "tolerance": 1e-5, "pass": worst < 1e-5})

    # orthogonality matrix
    worst = 0.0
    for dim in (1, 2):
        idx = multi_indices(dim, 6)
        fact = np.array([index_factorial(n) for n in idx], dtype=float)
        a_i, b_i = np.triu_indices(len(idx))
        want = np.where(a_i == b_i, fact[a_i], 0.0)
        idx = np.array(idx)
        val = _orthogonality_batch(idx[a_i], idx[b_i])
        worst = max(worst, float(np.max(np.abs(val - want))))
    report["identities"].append(
        {"name": "orthogonality", "max_error": worst, "tolerance": 1e-8,
         "pass": worst < 1e-8})

    # operator norm bounds
    probes = [("lambda0", None), ("lambda1", None), ("lambda2i", None),
              ("lambda3i", None), ("e_t_lambda", 0.5), ("e_t_lambda", 1.0),
              ("e_t_lambda", 2.0)]
    overrides = bound_overrides or {}
    for which, T in probes:
        bound = overrides.get(which, OPERATOR_BOUNDS[which](d, T))
        quot = operator_norm_probe(which, trials, max_degree, d, T=T,
                                   seed=int(rng.integers(2 ** 31)))
        label = which if T is None else f"{which}(T={T})"
        report["bounds"].append(
            {"operator": label, "bound": bound, "max_quotient": quot,
             "pass": quot <= bound + 1e-6})

    # Hardy sweep on random boxes
    violations = 0
    for _ in range(100):
        k = rng.uniform(-0.9, 4.0)
        edges = np.sort(rng.uniform(0.05, 3.0, size=4))
        vals = rng.uniform(-2.0, 2.0, size=3)
        lhs, rhs = hardy_check(k, BoxProfile(edges, vals))
        if lhs > rhs * (1.0 + 1e-12):
            violations += 1
    report["hardy"] = {"draws": 100, "violations": violations,
                       "pass": violations == 0}

    report["ok"] = (all(r["pass"] for r in report["identities"])
                    and all(r["pass"] for r in report["bounds"])
                    and report["hardy"]["pass"])
    return report
