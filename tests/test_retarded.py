import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointcharge.errors import OnWorldline, PointChargeError
from pointcharge import retarded
from pointcharge.minkowski import (
    Worldline,
    boost_worldline,
    catalog,
    inner,
    lower,
    rest_worldline,
)
from pointcharge.retarded import (
    _neighbour_tau0,
    div_K_fd,
    grad_tau_check,
    grad_xi,
    kinematics_arrays,
    neighbours,
    retarded_time,
    retarded_time_bisection,
)

RNG = np.random.default_rng(42)


def cloud(n=200, w=None):
    """Random observer points off the worldline, inside any horizon."""
    pts = np.empty((n, 4))
    pts[:, 0] = RNG.uniform(1.0, 6.0, size=n)
    pts[:, 1:] = RNG.uniform(-3.0, 3.0, size=(n, 3))
    if w is not None and w.label == "hyperbolic":
        # only points with X0 + X1 > 0 see the worldline
        pts[:, 1] = np.abs(pts[:, 1]) + pts[:, 0] * 0.1 + 0.5
    return pts


def test_rest_worldline_closed_form():
    from pointcharge.minkowski import rest_worldline

    w = rest_worldline()
    pts = cloud(500)
    tau = retarded_time(w, pts)
    expect = pts[:, 0] - np.linalg.norm(pts[:, 1:], axis=-1)
    assert np.abs(tau - expect).max() < 1e-12


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_null_residual_and_causality(w):
    pts = cloud(200, w)
    k = kinematics_arrays(w, pts)
    scale = np.maximum(1.0, (pts * pts).sum(axis=-1))
    assert np.abs(k["residual"]).max() <= 1e-9 * scale.max()
    # retarded, not advanced: R0 > 0
    assert (k["R"][:, 0] > 0).all()


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_agrees_with_bisection_oracle(w):
    pts = cloud(100, w)
    tau = retarded_time(w, pts)
    tau_b = retarded_time_bisection(w, pts)
    assert np.abs(tau - tau_b).max() <= 1e-10


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_kinematic_identities(w):
    pts = cloud(200, w)
    k = kinematics_arrays(w, pts)
    zdot = w.zdot(k["tau_r"])
    assert np.abs(inner(k["K"], zdot) - 1.0).max() <= 1e-9
    assert np.abs(inner(k["K"], k["K"])).max() <= 1e-9
    assert (k["xi"] > 0).all()


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_gradient_of_retarded_time_is_K(w):
    pts = cloud(30, w)
    assert grad_tau_check(w, pts, h=1e-4) <= 1e-4


def boost_tau(v):
    """Closed-form tau_r for boost(v): R.R = 0 is the quadratic
    tau^2 - 2 g (X0 - v X1) tau + X.X = 0, and tau_r is its smaller root."""
    g = 1.0 / np.sqrt(1.0 - v * v)

    def tau(X):
        b = g * (X[:, 0] - v * X[:, 1])
        return b - np.sqrt(b * b - inner(X, X))
    return tau


@pytest.mark.parametrize("w, tau", [
    (rest_worldline(), lambda X: X[:, 0] - np.linalg.norm(X[:, 1:], axis=-1)),
    (boost_worldline(0.6), boost_tau(0.6)),
], ids=["rest", "boost"])
def test_neighbour_start_is_second_order(w, tau):
    # the start tau_r +- h K_mu + h^2/2 d_mu d_mu tau_r misses the closed
    # form by O(h^3), the first-order start tau_r +- h K_mu by O(h^2)
    pts = cloud(200)
    k = kinematics_arrays(w, pts)
    assert np.abs(k["tau_r"] - tau(pts)).max() <= 1e-12

    def gaps(h):
        second = first = 0.0
        for mu in range(4):
            plus, minus = _neighbour_tau0(k, mu, h)
            for sign, start in ((1.0, plus), (-1.0, minus)):
                X = pts.copy()
                X[:, mu] += sign * h
                exact = tau(X)
                second = max(second, np.abs(start - exact).max())
                first = max(first, np.abs(k["tau_r"] + sign * h * lower(k["K"])[:, mu]
                                          - exact).max())
        return second, first

    (s1, f1), (s2, f2) = gaps(2e-3), gaps(1e-3)
    assert 7.0 <= s1 / s2 <= 9.0
    assert 3.5 <= f1 / f2 <= 4.5


@pytest.mark.parametrize("h", [1e-3, np.linspace(1e-4, 1e-2, 50)],
                         ids=["scalar", "per-point"])
def test_neighbours_shift_by_h_along_each_axis(h):
    # a local generator leaves the module's RNG stream to the other tests
    pts = np.random.default_rng(3).uniform(1.0, 3.0, size=(50, 4))
    k = kinematics_arrays(boost_worldline(0.6), pts)
    mus = []
    for mu, Xp, tau_plus, Xm, tau_minus in neighbours(pts, k, h):
        mus.append(mu)
        others = np.arange(4) != mu
        assert np.array_equal(Xp[:, others], pts[:, others])
        assert np.array_equal(Xm[:, others], pts[:, others])
        assert np.array_equal(Xp[:, mu], pts[:, mu] + h)
        assert np.array_equal(Xm[:, mu], pts[:, mu] - h)
        plus, minus = _neighbour_tau0(k, mu, h)
        assert np.array_equal(tau_plus, plus) and np.array_equal(tau_minus, minus)
    assert mus == [0, 1, 2, 3]


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_fd_checks_solve_only_the_centre_cold(w, monkeypatch):
    # grad_tau_check and div_K_fd start their +-h neighbours from the
    # centre kinematics; every neighbour keeps its warm root
    cold = []
    solve = retarded._solve_array

    def counting(w_, X, tau0=None):
        if tau0 is None:
            cold.append(X.size // 4)
        return solve(w_, X, tau0)

    monkeypatch.setattr(retarded, "_solve_array", counting)
    pts = cloud(30, w)
    assert grad_tau_check(w, pts, h=1e-4) <= 1e-4
    assert div_K_fd(w, pts, h=1e-4).shape == (30,)
    assert cold == [30, 30]


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_gradient_of_xi_analytic_vs_fd(w):
    pts = cloud(30, w)
    G = lower(grad_xi(w, pts))
    h = 1e-4
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = h
        fd = (kinematics_arrays(w, pts + e)["xi"]
              - kinematics_arrays(w, pts - e)["xi"]) / (2 * h)
        assert np.abs(fd - G[:, mu]).max() <= 1e-4
    # nonvanishing gradient
    assert np.linalg.norm(G, axis=-1).min() > 0


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_divergence_of_K(w):
    pts = cloud(30, w)
    k = kinematics_arrays(w, pts)
    fd = div_K_fd(w, pts, h=1e-4)
    rel = np.abs(fd - 2.0 / k["xi"]) / np.abs(2.0 / k["xi"])
    assert rel.max() <= 1e-4


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_xi_eigentime_derivative_identity(w):
    # d/dtau of Zdot(tau).(X - Z(tau)) at tau_r equals xi*kappa - 1
    pts = cloud(30, w)
    k = kinematics_arrays(w, pts)
    h = 1e-5

    def xi_of_tau(tau):
        return inner(w.zdot(tau), pts - w.z(tau))

    fd = (xi_of_tau(k["tau_r"] + h) - xi_of_tau(k["tau_r"] - h)) / (2 * h)
    expect = k["xi"] * k["kappa"] - 1.0
    assert np.abs(fd - expect).max() <= 1e-6


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_bad_warm_start_falls_back_to_cold_solve(w):
    pts = cloud(100, w)
    tau = kinematics_arrays(w, pts)["tau_r"]
    # beyond the advanced root, or between the two roots for distant points
    warm = kinematics_arrays(w, pts, tau0=tau + 10.0)["tau_r"]
    assert np.abs(warm - tau).max() <= 1e-12 * np.maximum(1.0, np.abs(tau)).max()


def test_advanced_root_start_falls_back_to_cold_solve():
    from pointcharge.minkowski import rest_worldline

    # g = 0 at the advanced root X0 + |x| too, but there R0 < 0
    w = rest_worldline()
    pts = cloud(100)
    advanced = pts[:, 0] + np.linalg.norm(pts[:, 1:], axis=-1)
    tau = kinematics_arrays(w, pts, tau0=advanced)["tau_r"]
    assert np.array_equal(tau, kinematics_arrays(w, pts)["tau_r"])


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_converged_points_leave_the_newton_iteration(w):
    pts = cloud(100, w)
    tau = kinematics_arrays(w, pts)["tau_r"]
    sizes = []

    def z(t):
        sizes.append(np.size(t))
        return w.z(t)

    n = pts.shape[0]
    counted = Worldline(w.label, z=z, zdot=w.zdot, zddot=w.zddot)
    again = kinematics_arrays(counted, pts, tau0=tau)["tau_r"]
    # one Newton iteration over the batch, then R at the root
    assert sizes == [n, n]
    assert np.abs(again - tau).max() <= 1e-12 * np.maximum(1.0, np.abs(tau)).max()
    # points that start at the root leave the iteration after one step
    sizes.clear()
    kinematics_arrays(counted, pts, tau0=tau + np.where(np.arange(n) % 2, 1e-3, 0.0))
    assert sizes[0] == n and len(sizes) > 3 and max(sizes[1:-1]) <= n // 2


def test_single_point_kinematics():
    w = catalog()[1]
    X = (3.0, 1.0, 0.5, 0.0)
    k = kinematics_arrays(w, X)
    assert np.shape(k["xi"]) == () and k["xi"] > 0
    assert k["R"].shape == k["K"].shape == (4,)
    assert abs(inner(k["K"], k["K"])) <= 1e-9
    tau = retarded_time(w, X)
    assert isinstance(tau, float)
    assert float(k["tau_r"]) == pytest.approx(tau)


def test_on_worldline_rejected():
    from pointcharge.minkowski import rest_worldline

    with pytest.raises(OnWorldline):
        retarded_time(rest_worldline(), (2.0, 0.0, 0.0, 0.0))


def test_hyperbolic_horizon_has_no_retarded_time():
    from pointcharge.minkowski import hyperbolic_worldline

    # X0 + X1 <= 0 never intersects the backward light cone of the motion
    with pytest.raises(PointChargeError):
        retarded_time(hyperbolic_worldline(1.0), (1.0, -3.0, 0.0, 0.0))


@given(
    t=st.floats(min_value=0.5, max_value=5.0),
    x=st.floats(min_value=-2.0, max_value=2.0),
    y=st.floats(min_value=0.3, max_value=2.0),
)
@settings(max_examples=50, deadline=None)
def test_rest_retarded_time_property(t, x, y):
    from pointcharge.minkowski import rest_worldline

    tau = retarded_time(rest_worldline(), (t, x, y, 0.0))
    assert tau == pytest.approx(t - np.hypot(x, y), abs=1e-10)
