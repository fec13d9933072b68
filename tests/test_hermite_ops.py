import math

import numpy as np
import pytest

from parcap.hermite_ops import (
    OPERATOR_BOUNDS,
    BoxProfile,
    BumpProfile,
    generating_function_error,
    h_field,
    hardy_check,
    hermite_derivative_check,
    hermite_orthogonality,
    hermite_value,
    index_factorial,
    lambda_family_on_hermite,
    lambda_numeric,
    lambda_numeric_on_hermite,
    multi_indices,
    operator_norm_probe,
    verification_report,
)


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


def test_probe_and_report_reject_empty_runs():
    with pytest.raises(ValueError, match="trials"):
        operator_norm_probe("lambda0", 0, 4, 2)
    with pytest.raises(ValueError, match="max_degree"):
        operator_norm_probe("lambda0", 2, -1, 2)
    with pytest.raises(ValueError, match="trials"):
        verification_report(trials=0)
    with pytest.raises(ValueError, match="grid_n"):
        verification_report(trials=1, grid_n=0)


def test_hardy_box_case():
    lhs, rhs = hardy_check(0.0, BoxProfile([0.0, 1.0], [1.0]))
    assert lhs == pytest.approx(2.0, abs=1e-8)
    assert rhs == pytest.approx(4.0, abs=1e-8)


def test_hardy_zero_profile():
    lhs, rhs = hardy_check(1.0, BoxProfile([0.5, 1.0], [0.0]))
    assert lhs == 0.0
    assert rhs == 0.0


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
