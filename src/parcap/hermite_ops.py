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

from .quadrature import (gauss_hermite_prob, gauss_legendre, panel_rule, panels,
                         tensor_rule)

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
    broadcast against each other.
    """
    u = (2.0 * t - (alpha + beta)) / (beta - alpha)
    amp = np.broadcast_to(amplitude, u.shape)
    out = np.zeros(u.shape)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = amp[inside] * np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


@lru_cache(maxsize=4)
def _interpolant_antiderivative(order):
    """(order, order + 1) matrix taking values at the ``order`` GL nodes of
    [-1, 1] to the Legendre coefficients of int_{-1}^xi p, where p is the
    interpolant of those values.

    GL quadrature is exact for P_j P_k here, so p's coefficients are
    c_j = (j + 1/2) sum_k w_k f(x_k) P_j(x_k); then
    int_{-1}^xi P_0 = P_0 + P_1 and int_{-1}^xi P_j = (P_{j+1} - P_{j-1})/(2j+1).
    """
    x, w = gauss_legendre(order)
    to_coef = (np.polynomial.legendre.legvander(x, order - 1) * w[:, None]
               * (np.arange(order) + 0.5))
    anti = np.zeros((order, order + 1))
    anti[0, :2] = 1.0
    for j in range(1, order):
        anti[j, j + 1] = 1.0 / (2 * j + 1)
        anti[j, j - 1] = -1.0 / (2 * j + 1)
    out = to_coef @ anti
    out.flags.writeable = False
    return out


BUMP_PANELS, BUMP_ORDER = 24, 16  # GL panels per bump profile, nodes per panel
LAMBDA_S_ORDER = 64  # s nodes of the direct smoothing-operator quadrature
GH_ORDER = 40        # Gauss-Hermite nodes of that quadrature and of orthogonality
FD_STEP = 1e-5       # central-difference step of hermite_derivative_check


class _BumpBatch:
    """K bump profiles, each on its own BUMP_PANELS x BUMP_ORDER GL panels.

    A running integral int_0^t s^q g(s) ds is the panel cumulative sum up to
    the panel holding t plus the exact integral, up to t, of the order-point
    Legendre interpolant of s^q g on that panel. So g is only ever evaluated
    at the panel nodes, whatever the number of points t. Inside the two end
    panels, where the bump is flattest, the result is off by at most a few
    1e-11 of the total; elsewhere by rounding.
    """

    def __init__(self, alpha, beta, amplitude):
        self.alpha = np.asarray(alpha, dtype=float)
        self.beta = np.asarray(beta, dtype=float)
        self.amplitude = np.asarray(amplitude, dtype=float)
        self.edges = np.linspace(self.alpha, self.beta, BUMP_PANELS + 1, axis=-1)
        self.nodes, self.weights = panels(self.edges, BUMP_ORDER)
        self.values = _bump(self.nodes, self.alpha[:, None, None],
                            self.beta[:, None, None],
                            self.amplitude[:, None, None])

    def at(self, t):
        """(K, N) values of every profile at the 1-D points t."""
        return _bump(t, self.alpha[:, None], self.beta[:, None],
                     self.amplitude[:, None])

    def sq_integrals(self):
        """int g_k(t)^2 dt for every profile, shape (K,)."""
        return (self.weights * self.values ** 2).sum(axis=(1, 2))

    def running_integrals(self, q, t):
        """int_0^t s^{q_k} g_k(s) ds at the 1-D points t, and the totals.

        ``q`` holds one exponent per profile. Returns arrays of shapes (K, N)
        and (K,).
        """
        n_prof, n_panels, order = self.nodes.shape
        fq = self.nodes ** np.asarray(q, dtype=float)[:, None, None] * self.values
        cum = np.zeros((n_prof, n_panels + 1))
        np.cumsum((self.weights * fq).sum(axis=-1), axis=-1, out=cum[:, 1:])
        t = np.asarray(t, dtype=float)
        out = np.where(t >= self.beta[:, None], cum[:, -1:], 0.0)
        k, pt = np.nonzero((t > self.alpha[:, None]) & (t < self.beta[:, None]))
        if k.size:
            # row j of coef holds coefficient j of every panel's antiderivative
            coef = np.ascontiguousarray(
                (fq @ _interpolant_antiderivative(order)).reshape(-1, order + 1).T)
            # panel j of each point and its coordinate xi in [-1, 1] there
            width = self.beta - self.alpha
            pos = (t[pt] - self.alpha[k]) * (n_panels / width)[k]
            j = np.minimum(pos.astype(int), n_panels - 1)
            xi = 2.0 * (pos - j) - 1.0
            panel = k * n_panels + j
            # Clenshaw sum of coef_m P_m(xi), one array per degree: a
            # (points x order) table would dominate the probe's memory
            b1, b2 = coef[order][panel], np.zeros_like(xi)
            for m in range(order - 1, 0, -1):
                b1, b2 = (coef[m][panel] + (2 * m + 1) / (m + 1) * xi * b1
                          - (m + 1) / (m + 2) * b2), b1
            acc = coef[0][panel] + xi * b1 - 0.5 * b2
            out[k, pt] = cum[k, j] + (0.5 * width / n_panels)[k] * acc
        return out, cum[:, -1]


class BumpProfile:
    """Smooth window supported on [alpha, beta].

    g(t) = amplitude * exp(1 - 1/(1 - u^2)) with u the affine map of
    [alpha, beta] onto [-1, 1]. Weighted running integrals int_0^t s^q g(s) ds
    use a fixed panel rule and the panels' Legendre interpolants (a batch of
    one, see ``_BumpBatch``); the profile is smooth, so this is accurate far
    beyond the tolerances used anywhere in the package.
    """

    def __init__(self, alpha, beta, amplitude=1.0):
        if not 0.0 < alpha < beta:
            raise ValueError("need 0 < alpha < beta")
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
        """int_0^t s^q g(s) ds, vectorized over t (full integral if t is None)."""
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
        if np.any(np.diff(edges) <= 0) or edges[0] < 0:
            raise ValueError("edges must be increasing and nonnegative")
        self.edges = edges
        self.values = values

    @property
    def support(self):
        return (float(self.edges[0]), float(self.edges[-1]))

    def sq_integral(self):
        return float(np.sum(self.values ** 2 * np.diff(self.edges)))


# --- Hermite polynomials --------------------------------------------------------

def hermite_value_1d(k, u):
    """He_k(u) via the three-term recurrence, vectorized in u."""
    u = np.asarray(u, dtype=float)
    if k < 0:
        return np.zeros(u.shape)
    prev = np.ones(u.shape)
    if k == 0:
        return prev
    cur = u.copy()
    for j in range(2, k + 1):
        prev, cur = cur, u * cur - (j - 1) * prev
    return cur


def hermite_value(n, x):
    """Multi-index He_n(x) = prod_i He_{n_i}(x_i); x may be (..., d)."""
    n = tuple(int(k) for k in np.atleast_1d(n))
    if any(k < 0 for k in n):
        raise ValueError("index entries must be >= 0")
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
    return math.prod(math.factorial(int(k)) for k in np.atleast_1d(n))


def multi_indices(d, max_total):
    """All n in N^d with |n| <= max_total, lexicographic."""
    return [n for n in itertools.product(range(max_total + 1), repeat=d)
            if sum(n) <= max_total]


def hermite_derivative_check(n, i, x):
    """(analytic, numeric) values of d/dx_i He_n at x; requires n_i >= 1."""
    n = tuple(int(k) for k in np.atleast_1d(n))
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

    Nodes are placed for the variance-t Gaussian weight and mapped through
    the same x/sqrt(t) scaling as the integrand; equals n! when n == m.
    """
    n = tuple(int(k) for k in np.atleast_1d(n))
    m = tuple(int(k) for k in np.atleast_1d(m))
    if len(n) != len(m):
        raise ValueError("index dimension mismatch")
    u, w = gauss_hermite_prob(GH_ORDER)
    total = 1.0
    root_t = math.sqrt(t)
    for ni, mi in zip(n, m):
        y = root_t * u
        vals = hermite_value_1d(ni, y / root_t) * hermite_value_1d(mi, y / root_t)
        total *= float(np.dot(w, vals))
    return total


# --- separated fields and the operator family -----------------------------------

def h_field(n, profile, t, x):
    """h(n, g)(t, x) = He_n(x / sqrt t) t^{-|n|/2} g(t); zero for t <= 0."""
    n = tuple(int(k) for k in np.atleast_1d(n))
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
    one 1-D sum per axis; no d-dimensional node mesh is built.
    """
    n = tuple(int(k) for k in np.atleast_1d(n))
    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float).reshape(-1, len(n))
    out = np.zeros((ts.size, xs.shape[0]))
    for r, t in enumerate(ts):
        rule = _lambda_rule(profile.support, t, GH_ORDER)
        if rule is None:
            continue
        s, ws, u, w = rule
        spread = np.sqrt(s * (t - s) / t)[:, None] * u  # axes (s, y)
        root_s = np.sqrt(s)[:, None]
        avg = np.ones((xs.shape[0], s.size))
        for i, k in enumerate(n):
            y = (s / t)[:, None] * xs[:, i, None, None] + spread  # axes (x, s, y)
            avg *= hermite_value_1d(k, y / root_s) @ w
        out[r] = avg @ (ws * s ** (-0.5 * sum(n)) * profile(s))
    return out


def _terms(which, indices, i):
    """(identity, [(j, coef)]): the operator maps coefficient profile n (row n
    of ``indices``) to coef[n] J_n(t) / t at output n (j None) or n - 2 e_j,
    plus the profile itself if ``identity``; J_n as in :func:`_apply_operator`."""
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
    never go negative.
    """
    n = tuple(int(k) for k in np.atleast_1d(n))
    if t <= 0:
        return 0.0
    x = np.asarray(np.atleast_1d(x), dtype=float)
    tot = sum(n)
    root_t = math.sqrt(t)
    big_g = float(profile.weighted_integral(0.0, np.asarray(t)))
    if which == "lambda":
        return float(hermite_value(n, x / root_t)) * t ** (-0.5 * tot) * big_g
    identity, terms = _terms(which, np.array([n]), i)
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


def _common_grid(profiles, t_cap=None):
    edges = np.unique(np.linspace(profiles.alpha, profiles.beta, 9, axis=-1))
    if t_cap is not None:
        edges = np.union1d(edges[edges <= t_cap + 1e-15], [t_cap])
    return panel_rule(edges, order=12)


def _lowered_rows(indices, j):
    """(src, dst): the rows of ``indices`` with n_j >= 2 and the rows of n - 2 e_j."""
    row = {n: r for r, n in enumerate(map(tuple, indices.tolist()))}
    src = np.flatnonzero(indices[:, j] >= 2)
    lowered = indices[src]
    lowered[:, j] -= 2
    dst = np.array([row[n] for n in map(tuple, lowered.tolist())], dtype=int)
    return src, dst


def _apply_operator(which, indices, profiles, nodes, T=None, i=0):
    """Map an expansion through an operator on the common grid.

    The expansion has coefficient profile k of ``profiles`` at the multi-index
    in row k of the (K, d) array ``indices``. Returns (vals, tail): vals[m]
    is output coefficient m on the grid, and beyond the grid it equals
    tail[m, 0] t^{-|m|/2-1} + tail[m, 1] t^{-|m|/2-2}. The running integrals
    J_n(t) = t^{-|n|/2} int_0^t s^{|n|/2} gamma_n(s) ds carry these exact
    power-law tails beyond the largest support edge.
    """
    q = 0.5 * indices.sum(axis=1)
    J, C = profiles.running_integrals(q, nodes)
    J *= nodes ** -q[:, None]  # J = C t^{-q} beyond the support
    if which == "e_t_lambda":
        return np.where(nodes < T, J, 0.0), np.zeros((len(q), 2))  # grid capped at T
    identity, terms = _terms(which, indices, i)
    vals = profiles.at(nodes) if identity else np.zeros_like(J)
    tail = np.zeros((len(q), 2))
    J /= nodes
    for j, coef in terms:
        if j is None:
            vals += coef[:, None] * J
            tail[:, 0] += coef * C
        else:
            src, dst = _lowered_rows(indices, j)
            vals[dst] += coef[src, None] * J[src]
            tail[dst, 1] += coef[src] * C[src]
    return vals, tail


def _output_norm_sq(indices, fact, vals, tail, weights, t_max):
    piece = vals ** 2 @ weights
    # closed-form tail integral of (A t^{-p1} + B t^{-p2})^2 over (t_max, inf)
    p1 = 0.5 * indices.sum(axis=1) + 1.0
    p2 = p1 + 1.0
    a, b = tail.T
    piece += (a * a * t_max ** (1.0 - 2 * p1) / (2 * p1 - 1.0)
              + 2 * a * b * t_max ** (1.0 - p1 - p2) / (p1 + p2 - 1.0)
              + b * b * t_max ** (1.0 - 2 * p2) / (2 * p2 - 1.0))
    return float(fact @ piece)


def operator_norm_probe(which, trials, max_degree, d, T=None, i=0, seed=0):
    """Max Rayleigh quotient ||op f|| / ||f|| over random finite expansions.

    Each trial draws an independent random bump coefficient profile
    (support start, width, amplitude) for every index with |n| <= max_degree.
    Quotients are evaluated in the coefficient domain, where the family acts
    index by index: all profiles of a trial are one array batch, their
    running integrals at the common grid come from the panel Legendre
    interpolants, and the output norm adds the exact power-law tail beyond
    the grid. The physical-space cross-check lives in :func:`lambda_numeric`.
    Raises ``ValueError`` for trials < 1, max_degree < 0 or d < 1, which
    would leave nothing to probe.
    """
    if which == "e_t_lambda" and T is None:
        raise ValueError("e_t_lambda probe needs T")
    if trials < 1 or max_degree < 0 or d < 1:
        raise ValueError("need trials >= 1, max_degree >= 0 and d >= 1")
    rng = np.random.default_rng(seed)
    indices = np.array(multi_indices(d, max_degree), dtype=int)
    fact = np.array([index_factorial(n) for n in indices], dtype=float)
    t_cap = T if which == "e_t_lambda" else None
    worst = 0.0
    for _ in range(trials):
        # per index: start a, width b - a, amplitude (same stream order as
        # drawing the three scalars index by index)
        draw = rng.uniform([0.05, 0.1, -1.0], [2.0, 1.5, 1.0], size=(len(indices), 3))
        a = draw[:, 0]
        amp = np.where(np.abs(draw[:, 2]) < 0.05, 0.05, draw[:, 2])
        profiles = _BumpBatch(a, a + draw[:, 1], amp)
        nodes, weights = _common_grid(profiles, t_cap=t_cap)
        t_max = float(profiles.beta.max())
        if t_cap is not None:
            t_max = min(t_max, t_cap)
        vals, tail = _apply_operator(which, indices, profiles, nodes, T=T, i=i)
        out_sq = _output_norm_sq(indices, fact, vals, tail, weights, t_max)
        quot = math.sqrt(out_sq / float(fact @ profiles.sq_integrals()))
        worst = max(worst, quot)
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
    if k <= -1.0:
        raise ValueError("need k > -1")
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
    letting a negative control force a failure.
    """
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
        worst = 0.0
        for n in multi_indices(dim, 4):
            a = lambda_numeric_on_hermite(n, prof, ts, xs)
            b = hermite_value(n, xs / root_t) * ts[:, None] ** (-0.5 * sum(n)) * big_g
            worst = max(worst, float(np.max(np.abs(a - b))))
        report["identities"].append(
            {"name": f"eigen_identity_d{dim}", "max_error": worst,
             "tolerance": 1e-5, "pass": worst < 1e-5})

    # orthogonality matrix
    worst = 0.0
    for dim in (1, 2):
        idx = multi_indices(dim, 6)
        for t in (0.5, 1.0, 3.0):
            for a_i, n in enumerate(idx):
                for m in idx[a_i:]:
                    val = hermite_orthogonality(n, m, t)
                    want = index_factorial(n) if n == m else 0.0
                    worst = max(worst, abs(val - want))
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
