import math

import numpy as np
import pytest
from conftest import traced_peak

from parcap.hermite_ops import (
    OPERATOR_BOUNDS,
    PROBE_CHUNK,
    _BumpBatch,
    _bump,
    _common_grid,
    _lambda_on_hermite_batch,
    _lowered_rows,
    _terms,
    BoxProfile,
    BumpProfile,
    generating_function_error,
    h_field,
    hardy_check,
    hermite_derivative_check,
    hermite_orthogonality,
    hermite_value,
    hermite_value_1d,
    index_factorial,
    lambda_family_on_hermite,
    lambda_numeric,
    lambda_numeric_on_hermite,
    multi_indices,
    operator_norm_probe,
    verification_report,
)
from parcap.quadrature import adaptive_gauss_kronrod


def test_hermite_basic_values():
    assert hermite_value((2,), [0.0]) == pytest.approx(-1.0)
    assert hermite_value((1, 1), [2.0, -3.0]) == pytest.approx(-6.0)
    assert hermite_value((0, 0, 0), [1.0, 2.0, 3.0]) == pytest.approx(1.0)


def test_hermite_growth_bound():
    # |He_n(x)| <= c0^d sqrt(n!) exp(|x|^2/4) with 1 < c0 < 2
    val = abs(hermite_value((6,), [1.3]))
    assert val <= 2.0 * math.sqrt(math.factorial(6)) * math.exp(1.3 ** 2 / 4.0)
    rng = np.random.default_rng(1)
    for _ in range(200):
        d = int(rng.integers(1, 3))
        n = tuple(int(k) for k in rng.integers(0, 7, d))
        x = rng.uniform(-2.5, 2.5, d)
        bound = 2.0 ** d * math.sqrt(index_factorial(n)) * math.exp(x @ x / 4.0)
        assert abs(hermite_value(n, x)) <= bound


def test_derivative_formula():
    a, nmr = hermite_derivative_check((2,), 0, [0.7])
    assert a == pytest.approx(1.4)
    assert nmr == pytest.approx(a, abs=1e-6)
    a, nmr = hermite_derivative_check((1, 1), 0, [0.3, -0.8])
    assert a == pytest.approx(-0.8)
    assert nmr == pytest.approx(a, abs=1e-6)
    with pytest.raises(ValueError):
        hermite_derivative_check((0, 1), 0, [0.0, 0.0])


def test_orthogonality_values():
    assert hermite_orthogonality((2,), (2,), 1.0) == pytest.approx(2.0, abs=1e-8)
    assert hermite_orthogonality((1,), (2,), 0.7) == pytest.approx(0.0, abs=1e-8)
    assert hermite_orthogonality((1, 1), (1, 1), 3.0) == pytest.approx(1.0, abs=1e-8)


def test_orthogonality_matrix_small():
    for t in (0.5, 3.0):
        idx = multi_indices(2, 3)
        for i, n in enumerate(idx):
            for m in idx[i:]:
                want = index_factorial(n) if n == m else 0.0
                got = hermite_orthogonality(n, m, t)
                assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("n, m, t, message", [
    ((-1,), (-1,), 1.0, "index entries"),
    ((0, -1), (0, 0), 1.0, "index entries"),
    ((1,), (1,), 0.0, "t > 0"),
    ((1,), (1,), -1.0, "t > 0"),
])
def test_orthogonality_refuses_negative_indices_and_times(n, m, t, message):
    with pytest.raises(ValueError, match=message):
        hermite_orthogonality(n, m, t)


def test_h_field_values():
    prof = BumpProfile(0.2, 1.2)
    t = 0.8
    assert h_field((0,), prof, t, [0.4]) == pytest.approx(float(prof(np.asarray(t))))
    assert h_field((0,), prof, 2.0, [0.0]) == 0.0
    assert h_field((2,), prof, t, [0.0]) == pytest.approx(
        -float(prof(np.asarray(t))) / t)


def test_lambda_numeric_zero_function():
    assert lambda_numeric(lambda s, y: np.zeros(y.shape[0]), (0.1, 1.0), 1.0,
                          [0.0]) == 0.0


def test_lambda_numeric_constant_index_gives_running_integral():
    prof = BumpProfile(0.2, 1.2)
    for t in np.linspace(0.3, 2.0, 5):
        for xv in np.linspace(-1.5, 1.5, 5):
            got = lambda_numeric(lambda s, y: prof(np.full(y.shape[0], s)),
                                 prof.support, t, [xv])
            want = float(prof.weighted_integral(0.0, np.asarray(t)))
            assert got == pytest.approx(want, abs=1e-6)


def test_lambda_numeric_matches_closed_form_degree2():
    prof = BumpProfile(0.25, 1.0, amplitude=1.3)

    def f(s, y):
        return (hermite_value((2,), y / math.sqrt(s)) / s
                * prof(np.full(y.shape[0], s)))

    for t in np.linspace(0.4, 1.8, 5):
        for xv in np.linspace(-1.5, 1.5, 5):
            got = lambda_numeric(f, prof.support, t, [xv])
            want = lambda_family_on_hermite("lambda", (2,), prof, t, [xv])
            assert got == pytest.approx(want, abs=1e-5)


@pytest.mark.parametrize("d", [1, 2])
def test_lambda_numeric_on_hermite_matches_lambda_numeric(d):
    prof = BumpProfile(0.2, 1.2, amplitude=0.9)
    # 0.15 and 0.2 sit at or below the support start: exactly 0 there
    ts = np.array([0.15, 0.2, 0.7, 1.9])
    xs = np.array([[-1.3, 0.4], [0.0, -0.7], [0.8, 1.5]])[:, :d]
    for n in multi_indices(d, 4):
        def f(s, y, n=n):
            return (hermite_value(n, y / math.sqrt(s)) * s ** (-0.5 * sum(n))
                    * prof(np.full(y.shape[0], s)))
        got = lambda_numeric_on_hermite(n, prof, ts, xs)
        assert got.shape == (ts.size, xs.shape[0])
        assert np.all(got[:2] == 0.0)
        for a, t in enumerate(ts):
            for b, x in enumerate(xs):
                want = lambda_numeric(f, prof.support, t, x)
                assert abs(got[a, b] - want) <= 1e-13


def test_lambda_family_degenerate_indices():
    prof = BumpProfile(0.2, 1.2)
    assert lambda_family_on_hermite("lambda2i", (1, 0), prof, 0.7, [0.1, 0.2],
                                    i=0) == 0.0
    assert lambda_family_on_hermite("lambda2i", (0,), prof, 0.7, [0.1]) == 0.0
    assert lambda_family_on_hermite("lambda4i", (0, 0), prof, 0.7,
                                    [0.1, 0.2]) == 0.0
    # identity part only at n = 0
    got = lambda_family_on_hermite("lambda1", (0,), prof, 0.7, [0.4])
    assert got == pytest.approx(h_field((0,), prof, 0.7, [0.4]))


def test_operator_norm_probes_small():
    for which, T, d in [("lambda2i", None, 2), ("lambda0", None, 2),
                        ("lambda3i", None, 2), ("lambda1", None, 2),
                        ("lambda4i", None, 1), ("e_t_lambda", 1.0, 2)]:
        q = operator_norm_probe(which, 25, 5, d, T=T, seed=7)
        assert q <= OPERATOR_BOUNDS[which](d, T) + 1e-6
        assert q > 0.0


# operator_norm_probe values recorded from the per-index scalar implementation
# (one BumpProfile per index, GL16 partial panels) at max degree 4
PINNED_PROBES = [  # which, T, d, i, trials, seed, value
    ("lambda0", None, 2, 0, 4, 3, 0.3212119082382174),
    ("lambda1", None, 2, 0, 4, 3, 0.9817217577812056),
    ("lambda2i", None, 2, 0, 4, 3, 0.3332323390995264),
    ("lambda3i", None, 2, 0, 4, 3, 1.0976614135575475),
    ("lambda4i", None, 1, 0, 4, 3, 1.0419278910575263),
    ("e_t_lambda", 1.0, 2, 0, 4, 3, 0.07765382951934775),
    ("e_t_lambda", 0.01, 2, 0, 4, 3, 0.0),  # T below every support
    ("lambda2i", None, 2, 1, 3, 5, 0.39973148437655664),
    ("lambda3i", None, 2, 1, 3, 5, 1.2164348247319656),
    ("lambda4i", None, 2, 1, 3, 5, 0.9331194097927977),
]


@pytest.mark.parametrize("which,T,d,i,trials,seed,want", PINNED_PROBES)
def test_operator_norm_probe_pinned_values(which, T, d, i, trials, seed, want):
    got = operator_norm_probe(which, trials, 4, d, T=T, i=i, seed=seed)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# the report's 7 probe quotients at seed 1, recorded when the panel
# interpolants were summed in the Legendre basis by Clenshaw's recurrence
REPORT_SEED1_QUOTIENTS = [
    0.24238001091737166, 1.06322274170416, 0.5407306875678388,
    1.8409397500533864, 0.06154300653184681, 0.14221866216392093,
    0.3097376705476591,
]


def test_verification_report_quotients_pinned():
    rep = verification_report(seed=1, trials=50)
    got = [b["max_quotient"] for b in rep["bounds"]]
    assert got == pytest.approx(REPORT_SEED1_QUOTIENTS, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("T", [None, 0.0, -1.0, math.nan, math.inf])
def test_e_t_lambda_probe_refuses_T_not_finite_positive(T):
    with pytest.raises(ValueError, match="finite T > 0"):
        operator_norm_probe("e_t_lambda", 2, 2, 2, T=T, seed=1)


@pytest.mark.parametrize("which", ["lambda2i", "lambda3i", "lambda4i"])
@pytest.mark.parametrize("i", [-1, 2, 5])
def test_operators_refuse_axis_outside_dimension(which, i):
    with pytest.raises(ValueError, match="axis"):
        operator_norm_probe(which, 2, 2, 2, i=i, seed=1)
    with pytest.raises(ValueError, match="axis"):
        lambda_family_on_hermite(which, (2, 0), BumpProfile(0.2, 1.2), 0.7,
                                 [0.1, 0.2], i=i)


@pytest.mark.parametrize("q", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("alpha, beta, amp", [(0.3, 1.7, -1.3), (1.0, 2.5, 1.0)])
def test_running_integral_matches_adaptive_quadrature(q, alpha, beta, amp):
    prof = BumpProfile(alpha, beta, amplitude=amp)
    total = prof.weighted_integral(q)
    edges = prof._batch.edges[0]
    rng = np.random.default_rng(4)
    inner = rng.uniform(edges[1], edges[-2], 30)
    # unsorted, with repeats, alpha, beta and every panel edge among them
    t = rng.permutation(np.concatenate([edges, inner, inner[:6], edges[3:5]]))
    # the two end panels, where the interpolant's own error is a few 1e-11
    ends = np.concatenate([rng.uniform(edges[0], edges[1], 8),
                           rng.uniform(edges[-2], edges[-1], 8)])

    def reference(points):
        return np.array([adaptive_gauss_kronrod(lambda s: s ** q * prof(s), alpha,
                                                min(p, beta), rel_tol=1e-14)
                         for p in points])

    assert np.max(np.abs(prof.weighted_integral(q, t) - reference(t))) \
        <= 1e-12 * abs(total)
    assert np.max(np.abs(prof.weighted_integral(q, ends) - reference(ends))) \
        <= 5e-11 * abs(total)
    assert abs(total - reference([beta])[0]) <= 1e-12 * abs(total)
    assert prof.weighted_integral(q, []).shape == (0,)


@pytest.mark.parametrize("q", [0.0, 0.5, 3.0])
def test_running_integral_is_exact_outside_the_support(q):
    alpha, beta = 0.2, 1.2
    prof = BumpProfile(alpha, beta, amplitude=0.7)
    below = [-math.inf, -1.0, 0.0, 0.1, np.nextafter(alpha, 0.0), alpha]
    above = [beta, np.nextafter(beta, 2.0), 3.0, math.inf]
    assert np.all(prof.weighted_integral(q, below) == 0.0)
    assert np.all(prof.weighted_integral(q, above) == prof.weighted_integral(q))


def test_running_integrals_permute_with_their_points():
    rng = np.random.default_rng(9)
    a = rng.uniform(0.05, 2.0, 6)
    batch = _BumpBatch(a, a + rng.uniform(0.1, 1.5, 6), rng.uniform(-1.0, 1.0, 6))
    q = np.arange(6) * 0.5
    t = np.concatenate([rng.uniform(0.0, 4.0, 300), batch.edges.ravel()])
    got, total = batch.running_integrals(q, t)
    for order in (np.argsort(t), rng.permutation(t.size)):
        moved, moved_total = batch.running_integrals(q, t[order])
        assert np.array_equal(moved, got[:, order])
        assert np.array_equal(moved_total, total)


def test_running_integral_refuses_nan_points():
    with pytest.raises(ValueError, match="NaN"):
        BumpProfile(0.2, 1.2).weighted_integral(0.0, [0.5, math.nan])


def test_probe_and_report_reject_empty_runs():
    with pytest.raises(ValueError, match="trials"):
        operator_norm_probe("lambda0", 0, 4, 2)
    with pytest.raises(ValueError, match="max_degree"):
        operator_norm_probe("lambda0", 2, -1, 2)
    with pytest.raises(ValueError, match="trials"):
        verification_report(trials=0)
    with pytest.raises(ValueError, match="grid_n"):
        verification_report(trials=1, grid_n=0)


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("name, call", [
    ("trials", lambda v: operator_norm_probe("lambda0", v, 2, 1)),
    ("max_degree", lambda v: operator_norm_probe("lambda0", 1, v, 1)),
    ("d", lambda v: operator_norm_probe("lambda0", 1, 2, v)),
    ("trials", lambda v: verification_report(trials=v, grid_n=1)),
    ("grid_n", lambda v: verification_report(trials=1, grid_n=v)),
], ids=["probe_trials", "probe_max_degree", "probe_d", "report_trials", "report_grid_n"])
def test_probe_and_report_refuse_counts_that_are_not_whole_numbers(name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be a whole number, got {value!r}$"):
        call(value)


def test_hardy_box_case():
    lhs, rhs = hardy_check(0.0, BoxProfile([0.0, 1.0], [1.0]))
    assert lhs == pytest.approx(2.0, abs=1e-8)
    assert rhs == pytest.approx(4.0, abs=1e-8)


def test_hardy_zero_profile():
    lhs, rhs = hardy_check(1.0, BoxProfile([0.5, 1.0], [0.0]))
    assert lhs == 0.0
    assert rhs == 0.0


@pytest.mark.parametrize("make", [
    lambda: BoxProfile([0.0, 1.0], [math.inf]),
    lambda: BoxProfile([0.0, 1.0], [math.nan]),
    lambda: BoxProfile([0.0, math.inf], [1.0]),
    lambda: BoxProfile([math.nan, 1.0], [1.0]),
    lambda: BumpProfile(0.2, 1.2, amplitude=math.nan),
    lambda: BumpProfile(0.2, 1.2, amplitude=math.inf),
    lambda: BumpProfile(0.2, math.inf),
])
def test_profiles_refuse_non_finite_inputs(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_hardy_box_off_zero_takes_the_log_case():
    # at k = 0 the cross term integrates t^-1 on [a, b]: a log; the tail
    # beyond b adds v^2 (b - a)^2 / b
    a, b, v = 0.5, 1.0, 1.0
    lhs, rhs = hardy_check(0.0, BoxProfile([a, b], [v]))
    exact = (v * v * ((b - a) - 2 * a * math.log(b / a) + a * a * (1 / a - 1 / b))
             + v * v * (b - a) ** 2 / b)
    assert lhs == pytest.approx(exact, rel=1e-14)
    assert rhs == 4.0 * v * v * (b - a)


def test_hardy_random_sweep():
    rng = np.random.default_rng(12)
    for _ in range(100):
        k = rng.uniform(-0.9, 4.0)
        edges = np.sort(rng.uniform(0.05, 3.0, 4))
        vals = rng.uniform(-2.0, 2.0, 3)
        lhs, rhs = hardy_check(k, BoxProfile(edges, vals))
        assert lhs <= rhs * (1 + 1e-12)


def test_hardy_bump_profile_route():
    lhs, rhs = hardy_check(0.5, BumpProfile(0.3, 1.1, amplitude=1.7))
    assert 0.0 < lhs <= rhs


def test_generating_function():
    rng = np.random.default_rng(5)
    for d in (1, 2):
        for _ in range(5):
            z = rng.uniform(-0.5, 0.5, d)
            z *= min(1.0, 0.5 / max(np.linalg.norm(z), 1e-9))
            x = rng.uniform(-1.0, 1.0, d)
            assert generating_function_error(z, x, 20) < 1e-8


def test_verification_report_negative_control():
    rep = verification_report(seed=1, trials=3, grid_n=2)
    assert rep["ok"]
    bad = verification_report(seed=1, trials=3, grid_n=2,
                              bound_overrides={"lambda2i": 1e-9})
    assert not bad["ok"]
    assert any(b["operator"] == "lambda2i" and not b["pass"]
               for b in bad["bounds"])


@pytest.mark.parametrize("n", [(0,), (3,), (2, 1), (0, 4)])
def test_lambda0_is_the_time_scaled_smoothing_operator(n):
    # "lambda0" comes from the probes' term list, "lambda" from the closed form
    prof = BumpProfile(0.2, 1.2, amplitude=0.8)
    x = np.linspace(-0.6, 0.9, len(n))
    for t in (0.15, 0.5, 0.9, 1.7):
        want = lambda_family_on_hermite("lambda", n, prof, t, x) / t
        got = lambda_family_on_hermite("lambda0", n, prof, t, x)
        assert got == pytest.approx(want, rel=1e-14, abs=1e-300)
    with pytest.raises(ValueError, match="unknown operator"):
        lambda_family_on_hermite("lambda5", n, prof, 0.5, x)


@pytest.mark.parametrize("i", [-1, 2, 5])
def test_derivative_check_refuses_axis_outside_dimension(i):
    with pytest.raises(ValueError, match="axis"):
        hermite_derivative_check((2, 1), i, [0.3, 0.4])


@pytest.mark.parametrize("t", [0.0, -1.0, 0.7])
def test_lambda_family_checks_operator_and_axis_at_every_t(t):
    prof = BumpProfile(0.2, 1.2)
    with pytest.raises(ValueError, match="unknown operator"):
        lambda_family_on_hermite("bogus", (2,), prof, t, [0.1])
    with pytest.raises(ValueError, match="axis"):
        lambda_family_on_hermite("lambda2i", (2, 0), prof, t, [0.1, 0.2], i=5)


@pytest.mark.parametrize("call", [
    lambda n: hermite_value(n, [0.3]),
    lambda n: hermite_orthogonality(n, (1,), 1.0),
    lambda n: hermite_orthogonality((1,), n, 1.0),
    lambda n: hermite_derivative_check(n, 0, [0.3]),
    lambda n: h_field(n, BumpProfile(0.2, 1.2), 0.7, [0.3]),
    lambda n: lambda_numeric_on_hermite(n, BumpProfile(0.2, 1.2), [0.7], [[0.3]]),
    lambda n: lambda_family_on_hermite("lambda", n, BumpProfile(0.2, 1.2), 0.7, [0.3]),
    index_factorial,
])
def test_multi_index_entries_must_be_integral(call):
    for n in [(1.7,), (1.9,), (math.nan,), (math.inf,)]:
        with pytest.raises(ValueError, match="index entries must be integers"):
            call(n)
    # integral floats are indices; negative entries keep their own refusal
    assert call((2.0,)) == call((2,))
    with pytest.raises(ValueError):
        call((-1,))


@pytest.mark.parametrize("n, i", [((2,), 0), ((3,), 0), ((2, 3), 0), ((2, 3), 1),
                                  ((3, 2), 1)])
def test_lowered_terms_match_x_derivatives_of_lambda(n, i):
    # lambda2i = 1/2 d^2/dx_i^2 Lambda and lambda3i = -(x_i/t) d/dx_i Lambda,
    # Lambda the closed form "lambda"; both reach the n - 2 e_i term. Lambda
    # has degree n_i <= 3 in x_i, so the central differences (steps 1e-3 and
    # 1e-5) err by rounding only, about 1e-10 here: tolerance 1e-9 absolute.
    prof = BumpProfile(0.2, 1.2, amplitude=0.8)
    x = np.array([0.4, -0.9])[:len(n)]
    e = np.eye(len(n))[i]

    def lam(t, y):
        return lambda_family_on_hermite("lambda", n, prof, t, y)

    for t in (0.3, 0.5, 0.9, 1.7):
        h2, h1 = 1e-3, 1e-5
        d2 = (lam(t, x + h2 * e) - 2.0 * lam(t, x) + lam(t, x - h2 * e)) / h2 ** 2
        d1 = (lam(t, x + h1 * e) - lam(t, x - h1 * e)) / (2.0 * h1)
        two = lambda_family_on_hermite("lambda2i", n, prof, t, x, i=i)
        three = lambda_family_on_hermite("lambda3i", n, prof, t, x, i=i)
        assert two != 0.0
        assert abs(two - 0.5 * d2) <= 1e-9
        assert abs(three + x[i] / t * d1) <= 1e-9


# two-trial probes (seed 11, i = 0) recorded when the part of ||op f||^2 past
# the last support edge was a closed-form power integral; e_t_lambda's T =
# 3.9 lies past every support. d = 3 stops at degree 9: degree 12 there has
# 455 profiles and peaks near 0.9 GB, and the tail rule's order depends on
# the degree only, which d = 1 covers at 12.
PINNED_TAIL_PROBES = [  # which, T, max_degree, d, value
    ("lambda0", None, 0, 1, 0.8930221661175392),
    ("lambda0", None, 0, 3, 0.8930221661175392),
    ("lambda0", None, 1, 1, 0.7655095054447173),
    ("lambda0", None, 1, 3, 0.5829600352533425),
    ("lambda0", None, 9, 1, 0.15765748166451807),
    ("lambda0", None, 9, 3, 0.1624352406747579),
    ("lambda0", None, 12, 1, 0.11953075067748725),
    ("lambda1", None, 0, 1, 1.0000000001133784),
    ("lambda1", None, 0, 3, 1.0000000001133784),
    ("lambda1", None, 1, 1, 0.9995480682679987),
    ("lambda1", None, 1, 3, 0.9443674006822894),
    ("lambda1", None, 9, 1, 1.1042066192295952),
    ("lambda1", None, 9, 3, 1.0849898731519996),
    ("lambda1", None, 12, 1, 1.1356474032446813),
    ("lambda3i", None, 0, 1, 0.0),  # -n_i vanishes at n = 0
    ("lambda3i", None, 0, 3, 0.0),
    ("lambda3i", None, 1, 1, 0.5529007849693227),
    ("lambda3i", None, 1, 3, 0.02492426398499394),
    ("lambda3i", None, 9, 1, 1.9360853834084337),
    ("lambda3i", None, 9, 3, 0.6240223893122272),
    ("lambda3i", None, 12, 1, 1.974400615367314),
    ("e_t_lambda", 3.9, 0, 1, 1.3562365019694649),
    ("e_t_lambda", 3.9, 0, 3, 1.3562365019694649),
    ("e_t_lambda", 3.9, 1, 1, 0.8588502803976013),
    ("e_t_lambda", 3.9, 1, 3, 0.8862604582155954),
    ("e_t_lambda", 3.9, 9, 1, 0.4062556227928355),
    ("e_t_lambda", 3.9, 9, 3, 0.3650777825522937),
    ("e_t_lambda", 3.9, 12, 1, 0.24764464957036567),
]


@pytest.mark.parametrize("which,T,max_degree,d,want", PINNED_TAIL_PROBES)
def test_operator_norm_probe_tail_pinned_values(which, T, max_degree, d, want):
    got = operator_norm_probe(which, 2, max_degree, d, T=T, seed=11)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)



def test_hermite_value_1d_parses_its_index():
    u = np.linspace(-2.0, 2.0, 9)
    assert np.array_equal(hermite_value_1d(2.0, u), hermite_value_1d(2, u))
    assert np.array_equal(hermite_value_1d(np.int64(3), u), hermite_value((3,), u[:, None]))
    with pytest.raises(ValueError, match="integers, got 1.7"):
        hermite_value_1d(1.7, u)
    with pytest.raises(ValueError, match=">= 0"):
        hermite_value_1d(-1.0, u)


@pytest.mark.parametrize("k, profile, message", [
    (math.nan, BoxProfile([0.0, 1.0], [1.0]), "got nan"),
    (math.inf, BoxProfile([0.5, 1.0], [1.0]), "got inf"),
    (-1.0, BoxProfile([0.0, 1.0], [1.0]), "got -1.0"),
    (math.nan, BumpProfile(0.2, 1.2), "got nan"),
], ids=["nan_box", "inf_box", "minus_one", "nan_bump"])
def test_hardy_check_refuses_an_exponent_that_is_not_finite_above_minus_one(k, profile, message):
    with pytest.raises(ValueError, match=f"need a finite k > -1, {message}"):
        hardy_check(k, profile)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_orthogonality_refuses_a_time_that_is_not_finite(t):
    with pytest.raises(ValueError, match=f"need a finite t > 0, got {t}"):
        hermite_orthogonality((1,), (1,), t)


def _dense_apply(which, indices, profiles, nodes, i=0):
    """The probes' operator on dense (K, N) arrays over the whole grid: row m
    is output coefficient m at the nodes, built from the running integrals
    J_n(t) = t^{-|n|/2} int_0^t s^{|n|/2} gamma_n(s) ds."""
    q = 0.5 * indices.sum(axis=1)
    J = profiles.running_integrals(q, nodes)[0]
    distinct, row = np.unique(q, return_inverse=True)  # one power per distinct q
    J *= (nodes ** -distinct[:, None])[row]
    if which == "e_t_lambda":
        return J
    identity, terms = _terms(which, indices, i)
    vals = (_bump(nodes, profiles.alpha[:, None], profiles.beta[:, None],
                  profiles.amplitude[:, None]) if identity else np.zeros_like(J))
    J /= nodes
    for j, coef in terms:
        if j is None:
            vals += coef[:, None] * J
        else:
            src, dst = _lowered_rows(indices, j)
            vals[dst] += coef[src, None] * J[src]
    return vals


def _dense_quotients(which, trials, max_degree, d, T=None, i=0, seed=0):
    """Per-trial Rayleigh quotients of operator_norm_probe's draws, each
    trial on dense (K, N) arrays."""
    rng = np.random.default_rng(seed)
    indices = np.array(multi_indices(d, max_degree), dtype=int)
    fact = np.array([index_factorial(n) for n in indices], dtype=float)
    out = []
    for _ in range(trials):
        draw = rng.uniform([0.05, 0.1, -1.0], [2.0, 1.5, 1.0], size=(len(indices), 3))
        amp = np.where(np.abs(draw[:, 2]) < 0.05, 0.05, draw[:, 2])
        profiles = _BumpBatch(draw[:, 0], draw[:, 0] + draw[:, 1], amp)
        nodes, weights = _common_grid(profiles, max_degree,
                                      T if which == "e_t_lambda" else None)
        vals = _dense_apply(which, indices, profiles, nodes, i=i)
        out.append(math.sqrt(float(fact @ (vals ** 2 @ weights))
                             / float(fact @ profiles.sq_integrals())))
    return out


# e_t_lambda's T: below every support (starts are >= 0.05), inside the
# supports, and past them (ends are < 3.5); the axis i only where d > i
_EQUIVALENCE_CASES = [
    (which, T, i, d, max_degree)
    for which, T, i in [("lambda0", None, 0), ("lambda1", None, 0)]
    + [(which, None, i) for which in ("lambda2i", "lambda3i", "lambda4i")
       for i in (0, 1)]
    + [("e_t_lambda", T, 0) for T in (0.01, 1.0, 3.9)]
    for d in (1, 2, 3) if i < d
    for max_degree in (0, 1, 4, 9)]


@pytest.mark.parametrize("which, T, i, d, max_degree", _EQUIVALENCE_CASES)
def test_probe_on_stretches_matches_dense_operator(which, T, i, d, max_degree):
    # one trial, and one more than a chunk of them
    trials = max(1, PROBE_CHUNK // len(multi_indices(d, max_degree))) + 1
    want = _dense_quotients(which, trials, max_degree, d, T=T, i=i, seed=13)
    for n in (1, trials):
        got = operator_norm_probe(which, n, max_degree, d, T=T, i=i, seed=13)
        assert got == pytest.approx(max(want[:n]), rel=1e-12, abs=0.0)


def test_probe_memory_scales_with_the_supports():
    # 165 profiles: on their stretches the traced peak is about 14 MB, where
    # a dense (profiles x grid) layout needs about 100 MB
    _, peak = traced_peak(lambda: operator_norm_probe("lambda1", 1, 8, 3, seed=11))
    assert peak < 20 * 2 ** 20


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("max_degree", [4, 6])
def test_lambda_batch_equals_one_index_at_a_time(d, max_degree):
    # every index, those with a zero entry included; 0.15 sits below the
    # support, where the rows are exactly 0
    prof = BumpProfile(0.2, 1.2, amplitude=0.9)
    ts = np.array([0.15, 0.4, 1.1, 2.0])
    xs = np.array([[-1.3, 0.4, 0.9], [0.0, -0.7, 0.2], [0.8, 1.5, -1.1]])[:, :d]
    idx = multi_indices(d, max_degree)
    got = _lambda_on_hermite_batch(idx, prof, ts, xs)
    assert got.shape == (len(idx), ts.size, xs.shape[0])
    for n, batch_row in zip(idx, got):
        assert np.array_equal(batch_row, lambda_numeric_on_hermite(n, prof, ts, xs))


@pytest.mark.parametrize("idx, message", [
    ([(1, 0), (-1, 2)], "index entries must be >= 0"),
    ([(1, 0), (2.5, 0)], "index entries must be integers, got (2.5, 0)"),
])
def test_lambda_batch_keeps_the_index_refusals(idx, message):
    with pytest.raises(ValueError) as err:
        _lambda_on_hermite_batch(idx, BumpProfile(0.2, 1.2), [0.7], [[0.3, 0.1]])
    assert str(err.value) == message


@pytest.mark.parametrize("call", [
    lambda i: operator_norm_probe("lambda2i", 1, 2, 2, i=i),
    lambda i: lambda_family_on_hermite("lambda2i", (2, 0), BumpProfile(0.2, 1.2),
                                       0.7, [0.1, 0.2], i=i),
    lambda i: hermite_derivative_check((2, 1), i, [0.3, 0.4]),
])
@pytest.mark.parametrize("i, message", [
    (0.5, "i must be a whole number, got 0.5"),
    (True, "i must be a whole number, got True"),
    ("0", "i must be a whole number, got '0'"),
])
def test_axis_that_is_not_a_whole_number_is_refused(call, i, message):
    with pytest.raises(ValueError) as err:
        call(i)
    assert str(err.value) == message
