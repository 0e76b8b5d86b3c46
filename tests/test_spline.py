"""Interpolation, derivative, and optimality checks for the smoothing spline."""
import numpy as np
import pytest

from demo2dex.spline import JerkMinSpline, SplineError, _interior_solve

RNG = np.random.default_rng(7)


def random_spline(n_knots: int, dim: int = 3, seed: int = 0):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0, 4.0, n_knots))
    while np.min(np.diff(t)) < 0.05:
        t = np.sort(rng.uniform(0, 4.0, n_knots))
    y = rng.normal(size=(n_knots, dim))
    return t, y, JerkMinSpline.fit(t, y)


def test_interpolates_knots():
    for seed in range(10):
        t, y, sp = random_spline(8, seed=seed)
        for i in range(len(t)):
            assert np.max(np.abs(sp.value(t[i]) - y[i])) < 1e-9


def test_two_knot_case_is_linear():
    sp = JerkMinSpline.fit([0.0, 2.0], [[1.0], [5.0]])
    assert abs(sp.value(1.0).item() - 3.0) < 1e-12
    assert abs(sp.velocity(0.5).item() - 2.0) < 1e-12
    assert abs(sp.acceleration(1.7).item()) < 1e-12
    assert sp.jerk_energy() == 0.0


def test_velocity_matches_finite_differences():
    t, _, sp = random_spline(9, seed=3)
    eps = 1e-6
    for tq in np.linspace(t[0] + 1e-3, t[-1] - 1e-3, 50):
        fd = (sp.value(tq + eps) - sp.value(tq - eps)) / (2 * eps)
        v = sp.velocity(tq)
        denom = max(np.max(np.abs(fd)), 1.0)
        assert np.max(np.abs(v - fd)) / denom < 1e-4


def test_acceleration_matches_finite_differences():
    t, _, sp = random_spline(9, seed=4)
    eps = 1e-5
    for tq in np.linspace(t[0] + 1e-2, t[-1] - 1e-2, 50):
        fd = (sp.value(tq + eps) - 2 * sp.value(tq) + sp.value(tq - eps)) / eps**2
        a = sp.acceleration(tq)
        denom = max(np.max(np.abs(fd)), 1.0)
        assert np.max(np.abs(a - fd)) / denom < 1e-4


def test_velocity_continuous_at_interior_knots():
    """Value and curvature continuity are structural in the second-derivative
    form; first-derivative continuity is the property the solve enforces.
    Recompute both one-sided derivatives from the segment closed forms."""
    t, y, sp = random_spline(10, seed=5)
    m = sp.m2
    h = np.diff(t)
    for i in range(1, len(t) - 1):
        hl, hr = h[i - 1], h[i]
        v_left = hl * m[i - 1] / 6.0 + hl * m[i] / 3.0 + (y[i] - y[i - 1]) / hl
        v_right = -hr * m[i] / 3.0 - hr * m[i + 1] / 6.0 + (y[i + 1] - y[i]) / hr
        assert np.max(np.abs(v_left - v_right)) < 1e-9
        # and the evaluator agrees with the segment formula at the knot
        assert np.max(np.abs(sp.velocity(t[i]) - v_right)) < 1e-9


def test_jerk_energy_minimal_over_boundary_curvature():
    """Any other C2 cubic interpolant of the same knots has at least the
    fitted jerk energy; that family is exactly the fitted m2 plus boundary
    curvature perturbations propagated through the continuity system."""
    t, y, sp = random_spline(7, dim=1, seed=6)
    h = np.diff(t)
    m_a = _interior_solve(h, np.zeros((len(t) - 2, 1)), np.array([1.0]), np.array([0.0]))[:, 0]
    m_b = _interior_solve(h, np.zeros((len(t) - 2, 1)), np.array([0.0]), np.array([1.0]))[:, 0]
    va = np.concatenate([[1.0], m_a, [0.0]])[:, None]
    vb = np.concatenate([[0.0], m_b, [1.0]])[:, None]
    e0 = sp.jerk_energy()
    for _ in range(30):
        da, db = RNG.normal(size=2)
        other = JerkMinSpline(t, y, sp.m2 + da * va + db * vb)
        assert other.jerk_energy() >= e0 - 1e-9


def test_domain_bounds():
    t, y, sp = random_spline(5, seed=8)
    # a hair outside is clamped to the endpoint, far outside is rejected
    assert np.allclose(sp.value(t[0] - 1e-10), y[0])
    assert np.allclose(sp.value(t[-1] + 1e-10), y[-1])
    with pytest.raises(SplineError):
        sp.value(t[0] - 10.0)
    with pytest.raises(SplineError):
        sp.value(t[-1] + 10.0)


def test_rejects_bad_knots():
    with pytest.raises(SplineError):
        JerkMinSpline.fit([0.0], [[1.0]])
    with pytest.raises(SplineError):
        JerkMinSpline.fit([0.0, 0.0, 1.0], [[1.0], [2.0], [3.0]])
    with pytest.raises(SplineError):
        JerkMinSpline.fit([0.0, 1.0], [[1.0], [2.0], [3.0]])
    with pytest.raises(SplineError):  # values are one row per knot
        JerkMinSpline.fit([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    # non-finite knots, at two knots too, where no solve would catch them
    for times, values in [
        ([0.0, np.nan], [[0.0], [1.0]]),
        ([0.0, 1.0], [[0.0], [np.inf]]),
        ([0.0, 1.0, np.inf], [[0.0], [1.0], [2.0]]),
        ([0.0, 1.0, 2.0], [[0.0], [np.nan], [2.0]]),
    ]:
        with pytest.raises(SplineError, match="must be finite"):
            JerkMinSpline.fit(times, values)


def random_system(rng, n_knots, cols):
    # knot spacing and data each spread over six decades
    h = rng.uniform(0.001, 1.0, n_knots - 1) * 10.0 ** rng.uniform(-3, 3)
    scale = 10.0 ** rng.uniform(-3, 3)
    rhs = rng.normal(size=(n_knots - 2, cols)) * scale
    return h, rhs, rng.normal(size=cols) * scale, rng.normal(size=cols) * scale


def test_interior_solve_is_solve_banded_bit_for_bit():
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(11)
    for n_knots in (3, 3, 4, 5, 9, 40, 200):  # three knots: the 1x1 division
        for cols in (1, 6, 24):
            h, rhs, m0, mlast = random_system(rng, n_knots, cols)
            b = rhs.copy()
            b[0] -= h[0] / 6.0 * m0
            b[-1] -= h[-1] / 6.0 * mlast
            ab = np.zeros((3, n_knots - 2))
            ab[0, 1:] = ab[2, :-1] = h[1:-1] / 6.0
            ab[1] = (h[:-1] + h[1:]) / 3.0
            want = solve_banded((1, 1), ab, b)
            got = _interior_solve(h, rhs, m0, mlast)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (n_knots, cols)


def test_one_stacked_solve_is_three_solves():
    # fit solves the natural curvatures and both unit boundary systems at once
    rng = np.random.default_rng(12)
    for n_knots in (3, 4, 17, 120):
        h, rhs, _, _ = random_system(rng, n_knots, 5)
        zeros, z1 = np.zeros(5), np.zeros((n_knots - 2, 1))
        m0, mlast = np.zeros(7), np.zeros(7)
        m0[5] = mlast[6] = 1.0
        stacked = _interior_solve(h, np.hstack([rhs, np.zeros((n_knots - 2, 2))]), m0, mlast)
        apart = np.hstack([
            _interior_solve(h, rhs, zeros, zeros),
            _interior_solve(h, z1, np.array([1.0]), np.array([0.0])),
            _interior_solve(h, z1, np.array([0.0]), np.array([1.0])),
        ])
        assert np.ascontiguousarray(stacked).tobytes() == apart.tobytes(), n_knots


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n_knots", [3, 6])
def test_interior_solve_rejects_non_finite_input(bad, n_knots):
    h, rhs, m0, mlast = random_system(np.random.default_rng(13), n_knots, 2)
    rhs[-1, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        _interior_solve(h, rhs, m0, mlast)
    h[n_knots // 2 - 1] = bad  # a diagonal and, past three knots, an off-diagonal entry
    with pytest.raises(ValueError, match="infs or NaNs"):
        _interior_solve(h, np.zeros((n_knots - 2, 1)), np.ones(1), np.ones(1))


def test_interior_solve_names_a_singular_system():
    # fit cannot produce one: for increasing knots every row is strictly
    # diagonally dominant, (h0 + h1)/3 > h0/6 + h1/6. Spacings of mixed sign
    # can: h = (-3, 6, -3) gives the 2x2 system [[1, 1], [1, 1]].
    from scipy.linalg import solve_banded

    h = np.array([-3.0, 6.0, -3.0])
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _interior_solve(h, np.ones((2, 1)), np.zeros(1), np.zeros(1))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        solve_banded((1, 1), np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]), np.ones((2, 1)))
