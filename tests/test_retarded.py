import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointcharge.errors import BehindHorizon, OnWorldline
from pointcharge import retarded
from pointcharge.minkowski import (
    Worldline,
    boost_worldline,
    catalog,
    circular_worldline,
    hyperbolic_worldline,
    inner,
    rest_worldline,
)
from pointcharge.retarded import (
    kinematics_arrays,
    retarded_time_bisection,
)
from oracles import div_K_fd, grad_tau_check, grad_xi, lower, same_bits

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
    tau = kinematics_arrays(w, pts)["tau_r"]
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
    tau = kinematics_arrays(w, pts)["tau_r"]
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
    tau^2 - 2 b tau + X.X = 0 with b = g (X0 - v X1), and tau_r is its
    smaller root, b - sqrt(b^2 - X.X) = X.X / (b + sqrt(b^2 - X.X)); the
    second form does not cancel when b > 0."""
    g = 1.0 / np.sqrt(1.0 - v * v)

    def tau(X):
        b = g * (X[:, 0] - v * X[:, 1])
        xx = inner(X, X)
        root = np.sqrt(b * b - xx)
        return np.where(b > 0, xx / (b + root), b - root)
    return tau


def ball(seed, n):
    """n points at lab time 3, uniform in the unit ball about the origin."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    X = np.empty((n, 4))
    X[:, 0] = 3.0
    X[:, 1:] = d * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / 3.0)
    return X


@pytest.mark.parametrize("v", [0.995, 0.998, 0.999])
def test_fast_boost_matches_closed_form(v):
    # points within r <= 1 of the charge: ahead of it R0 ~ r/(1 - v), so the
    # rounding of R.R outgrows any residual bound set by |X| alone
    X = ball(20261018, 5000)
    X[:, 1] += 3.0 * v
    tau = kinematics_arrays(boost_worldline(v), X)["tau_r"]
    assert np.abs(tau - boost_tau(v)(X)).max() <= 1e-10


def rounding_bound(w, X, exact):
    """4 eps_mach s/(2 xi) at the exact roots of points X (n, 4)."""
    R = X - w.z(exact)
    s = np.maximum(retarded._scale(X), (R * R).sum(-1))
    return 4.0 * np.finfo(float).eps * s / (2.0 * inner(w.zdot(exact), R))


@pytest.mark.parametrize("gamma", [70.0, 300.0, 1000.0])
def test_fastest_boosts_match_closed_form(gamma):
    # as above, on 20,000 points.  Ahead of the charge R0 reaches 2 gamma^2 r,
    # and R.R rounds to about eps_mach*s, s = max(1, |X|^2, Euclidean |R|^2)
    # as the solver scales it, which fixes the root only to eps_mach*s over
    # |d(R.R)/dtau| = 2 xi; the closed form's X.X rounds to eps_mach |X|^2
    # over b + sqrt(b^2 - X.X) = 2 xi + tau.  So the bound is 4 eps_mach
    # s/(2 xi), not a flat 1e-10: at gamma = 1000 the worst point misses by
    # 7.9e-7 at tau = -1127 (7.4e-10 relative), and every gamma reads at
    # most 1.82 eps_mach s/(2 xi).  The gamma = 70 set holds the point of
    # test_rounding_floor_counts_as_converged (index 2723).  The ball never
    # lands on the line of motion, so 2,000 points on it within 1 of the
    # charge follow: ahead of it R = (R0, R0, 0, 0), R.R = R0^2 - R1^2
    # cancels, and R_mu = X_mu - z_mu(tau) carries the rounding of z0 ~
    # -R0 ~ -2 gamma^2 r, which leaves |R.R| just above eps_mach*s where
    # Newton's step still exceeds its bound.  With the bracketed fallback's floor at
    # eps_mach*s as well, 8, 8 and 2 of them raised NoConvergence at gamma
    # = 70, 300 and 1000
    v = np.sqrt(1.0 - 1.0 / gamma**2)
    w = boost_worldline(v)
    axis = np.zeros((2000, 4))
    axis[:, 0] = 3.0
    axis[:, 1] = np.random.default_rng(20261020).uniform(-1.0, 1.0, 2000)
    X = np.concatenate([ball(20261019, 20000), axis])
    X[:, 1] += 3.0 * v
    tau = kinematics_arrays(w, X)["tau_r"]
    exact = boost_tau(v)(X)
    assert np.all(np.abs(tau - exact) <= rounding_bound(w, X, exact))


def test_rounding_floor_counts_as_converged(monkeypatch):
    # on boost(v), gamma = 70, Newton from the cold solve's light-cone
    # start cycles at this point between two iterates with steps of
    # +-7.55e-11, above the step bound 1e-12*|tau| = 7.40e-11, while
    # |R.R| <= 5.6e-9 is already below eps_mach*s = 1.2e-8 (s = 5.37e7)
    # and cannot get smaller: the warm loop of the cold solve, without a
    # fallback, counts it as converged, and so does the bracketed
    # fallback, reached through _solve when the loop certifies nothing,
    # from either bracket end.  _solve returns the root stepped from one jet
    # at the bracketed root
    v = 0.9998979539769781
    w = boost_worldline(v)
    X = np.array([[3.0, 3.5283429076982924, 0.7999880632867423,
                   -0.08271028042315771]])
    exact = boost_tau(v)(X)
    bound = rounding_bound(w, X, exact)
    past_end = retarded._past_end

    def no_bracket(*args):
        raise AssertionError("the warm loop left the point to the fallback")

    monkeypatch.setattr(retarded, "_past_end", no_bracket)
    assert np.abs(kinematics_arrays(w, X)["tau_r"] - exact) <= bound

    reached = []

    def bracket(*args):
        reached.append(True)
        return past_end(*args)

    monkeypatch.setattr(retarded, "_past_end", bracket)
    rtsafe = retarded._rtsafe
    roots = []

    def bracketed(*args):
        t, done = rtsafe(*args)
        roots.append(t)
        return t, done

    monkeypatch.setattr(retarded, "_rtsafe", bracketed)
    for start in (-np.inf, np.inf):     # clipped to lo and to tau_s

        def uncertified(w_, X_, t, scale):
            return np.full(len(X_), start), np.zeros(len(X_), dtype=bool)

        monkeypatch.setattr(retarded, "_warm_loop", uncertified)
        reached.clear()
        roots.clear()
        root = retarded._solve(w, X)
        (tau,) = roots
        assert reached and np.abs(tau - exact) <= bound
        z, zd = w.jet(tau, 1)
        R = X - z
        assert same_bits(root, tau + 0.5 * inner(R, R) / inner(zd, R))


def test_cold_solve_brackets_points_with_no_cone_root_behind(monkeypatch):
    # far from circular(1, 0.9) the osculating hyperbola at the
    # light-delayed eigentime can have no root behind, or one the warm loop
    # cannot certify: the bracketed fallback solves those points.  On these
    # 10,000 scattered points that happens at 98 (at none on the slower
    # circular(1, 0.5)); the bisection oracle checks each
    w = circular_worldline(1.0, 0.9)
    rng = np.random.default_rng(7)
    n = 10000
    X = np.empty((n, 4))
    X[:, 0] = rng.uniform(2.5, 6.0, n)
    X[:, 1:] = rng.uniform(-4.0, 4.0, (n, 3))
    bracketed = []
    past_end = retarded._past_end

    def bracket(w_, X_, *args):
        bracketed.append(X_.copy())
        return past_end(w_, X_, *args)

    monkeypatch.setattr(retarded, "_past_end", bracket)
    tau = kinematics_arrays(w, X)["tau_r"]
    monkeypatch.undo()
    assert len(bracketed) == 1 and len(bracketed[0]) > 0
    cold = (X[:, None, :] == bracketed[0][None, :, :]).all(-1).any(-1)
    assert cold.sum() == len(bracketed[0])
    assert np.abs(tau - retarded_time_bisection(w, X)).max() <= 1e-10


@pytest.mark.parametrize("w", [
    rest_worldline(), boost_worldline(0.6), boost_worldline(0.999),
    hyperbolic_worldline(1.0), hyperbolic_worldline(5.0),
    hyperbolic_worldline(-1.0),
], ids=["rest", "boost0.6", "boost0.999", "hyperbolic1", "hyperbolic5",
        "hyperbolic-1"])
def test_cold_solve_certifies_inertial_points_on_their_start(w):
    # the osculating hyperbola is the worldline itself on inertial and
    # uniformly accelerated motion, and tau_s and tau_e are in closed form,
    # so the cold solve evaluates the jet at exactly 3n eigentimes: z alone
    # at tau_s, for the on-worldline test and the lab distance, the jet at
    # tau_e, for the start, and one pass at the start, which certifies
    # every point.  A bracketed Newton from a lab-time guess took 7n
    # evaluations of z at rest and 10.9n and 14.1n on these boosts
    pts = np.random.default_rng(23).uniform(-4.0, 4.0, size=(500, 4))
    pts[:, 0] += 6.0
    if w.label == "hyperbolic":
        # in front of the past horizon, X0 + X1 > 0 for a > 0 and
        # X0 - X1 > 0 for a < 0
        pts[:, 1] = np.abs(pts[:, 1]) * np.sign(w.zddot(0.0)[1]) + 0.1
    n = len(pts)
    sizes = []

    def jet(t, order=2):
        sizes.append(np.size(t))
        return w.jet(t, order)

    counted = Worldline(w.label, jet=jet, tau_at=w.tau_at)
    retarded._solve(counted, pts)
    assert sizes == [n, n, n]


def cone_points(w, rng, tau0, rho):
    """X = z(tau0) + rho (1, n), n uniform on the sphere: points on the
    future light cone of z(tau0), whose retarded time is tau0."""
    d = rng.normal(size=(len(tau0), 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    X = w.z(tau0)
    X[:, 0] += rho
    X[:, 1:] += rho[:, None] * d
    return X


@pytest.mark.parametrize("a", [0.2, 1.0, 5.0, -1.0, -3.0])
def test_cold_start_is_the_root_on_hyperbolic_motion(a, monkeypatch):
    # the start alone, before the warm loop takes a step, lands on the
    # retarded root from lab distance 1e-10 out to 3 (worst 7.7e-14
    # here).  |a tau0| <= 1 keeps gamma <= 1.6 and the points off the
    # OnWorldline test at rho = 1e-10; a local generator leaves the
    # module's RNG stream to the other tests
    w = hyperbolic_worldline(a)
    rng = np.random.default_rng(5)
    n = 2000
    tau0 = rng.uniform(-1.0, 1.0, n) / abs(a)
    X = cone_points(w, rng, tau0, 10.0 ** rng.uniform(-10.0, np.log10(3.0), n))
    starts = []
    warm_loop = retarded._warm_loop

    def capture(w_, X_, t, scale):
        starts.append(t.copy())
        return warm_loop(w_, X_, t, scale)

    monkeypatch.setattr(retarded, "_warm_loop", capture)
    retarded._solve(w, X)
    assert len(starts) == 1
    assert np.all(np.abs(starts[0] - tau0) <= 1e-11 * np.maximum(1.0, np.abs(tau0)))


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_warm_start_near_the_worldline_steps_to_the_root(w, monkeypatch):
    # at lab distance rho = 1e-9 or 1e-7, R.R is about 2 rho 1e-9 at a
    # start 1e-9 off the root: far below eps_mach max(1, |X|^2), so a
    # floor on that scale would certify the start itself, 1e-9 off.  The
    # rounding floor of R.R formed from R follows |R| down, so Newton
    # steps on to the root.  A start 1e-9 ahead at rho = 1e-9 sits between
    # the retarded and advanced roots, where xi <= 0, and the loop leaves
    # it uncertified (for _solve's bracketed fallback).  Off circular
    # motion _solve starts on the root, and certifies every point on its
    # first pass: it returns the root stepped from one jet at its start,
    # as kinematics_arrays does
    rng = np.random.default_rng(11)
    n = 125
    warm_loop = retarded._warm_loop
    starts = []

    def capture(w_, X_, t, scale):
        starts.append(t.copy())
        return warm_loop(w_, X_, t, scale)

    for rho in (1e-9, 1e-7):
        tau0 = rng.uniform(-2.0, 2.0, n)
        X = cone_points(w, rng, tau0, np.full(n, rho))
        for sign in (1.0, -1.0):
            tau, solved = warm_loop(w, X, tau0 + sign * 1e-9, retarded._scale(X))
            if rho == 1e-9 and sign > 0:
                assert not solved.any()
            else:
                assert solved.all()
                assert np.all(np.abs(tau - tau0)
                              <= 1e-11 * np.maximum(1.0, np.abs(tau0)))
        if w.label != "circular":
            monkeypatch.setattr(retarded, "_warm_loop", capture)
            starts.clear()
            root = retarded._solve(w, X)
            monkeypatch.undo()
            (t,) = starts
            z, zd = w.jet(t, 1)
            R = X - z
            assert same_bits(root, t + 0.5 * inner(R, R) / inner(zd, R))
            assert same_bits(root, kinematics_arrays(w, X)["tau_r"])


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_fallback_near_the_worldline_brackets_to_the_root(w, monkeypatch):
    # the same points with every start left uncertified, then clipped to
    # the bracket's ends: the bracketed fallback's floor follows R as the
    # warm loop's does; a flat floor of 4 eps_mach on -R.R/s, s >= 1,
    # would accept tau_s itself, rho off the root
    rng = np.random.default_rng(13)
    n = 125
    for start in (-np.inf, np.inf):     # clipped to lo and to tau_s

        def uncertified(w_, X_, t, scale):
            return np.full(len(X_), start), np.zeros(len(X_), dtype=bool)

        monkeypatch.setattr(retarded, "_warm_loop", uncertified)
        for rho in (1e-9, 1e-7):
            tau0 = rng.uniform(-2.0, 2.0, n)
            X = cone_points(w, rng, tau0, np.full(n, rho))
            tau = retarded._solve(w, X)
            assert np.all(np.abs(tau - tau0)
                          <= 1e-11 * np.maximum(1.0, np.abs(tau0)))


def hyperbolic_tau(a):
    """Closed-form tau_r for hyperbolic(a): with u = exp(a tau), R.R = 0 is
    the quadratic A u^2 + B u + C = 0 with A = X0 - X1,
    B = -a (X.X - 1/a^2) and C = -(X0 + X1) (Fulton & Rohrlich 1960), and
    tau_r = log(u)/a for its smallest positive root u; the roots are taken
    as q/A and C/q with q = -(B + sign(B) sqrt(B^2 - 4AC))/2, which do not
    cancel."""
    def tau(X):
        A, C = X[:, 0] - X[:, 1], -(X[:, 0] + X[:, 1])
        B = -a * (inner(X, X) - 1.0 / (a * a))
        q = -0.5 * (B + np.copysign(np.sqrt(B * B - 4.0 * A * C), B))
        roots = np.stack([q / A, C / q])
        u = np.where(roots > 0, roots, np.inf).min(axis=0)
        return np.log(u) / a
    return tau


@pytest.mark.parametrize("a", [1.0, 2.0, 5.0])
def test_hyperbolic_matches_closed_form(a):
    # points within r <= 1 of the track at lab time 3, where hyperbolic(5)
    # moves at v = 0.998
    w = hyperbolic_worldline(a)
    X = ball(20261019, 5000)
    X[:, 1:] += w.z(w.tau_at(3.0))[1:]
    tau = kinematics_arrays(w, X)["tau_r"]
    assert np.abs(tau - hyperbolic_tau(a)(X)).max() <= 1e-10


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
def test_converged_points_leave_the_newton_iteration(w):
    pts = cloud(100, w)
    tau = kinematics_arrays(w, pts)["tau_r"]
    sizes = []

    def jet(t, order=2):
        sizes.append(np.size(t))
        return w.jet(t, order)

    n = pts.shape[0]
    counted = Worldline(w.label, jet=jet, tau_at=w.tau_at)
    scale = retarded._scale(pts)
    again, solved = retarded._warm_loop(counted, pts, tau.copy(), scale)
    # one evaluation over the batch both certifies the root and steps it
    assert sizes == [n] and solved.all()
    assert np.abs(again - tau).max() <= 1e-12 * np.maximum(1.0, np.abs(tau)).max()
    # points that start at the root leave the iteration after one step
    sizes.clear()
    retarded._warm_loop(counted, pts, tau + np.where(np.arange(n) % 2, 1e-3, 0.0),
                        scale)
    assert sizes[0] == n and len(sizes) > 2 and max(sizes[1:]) <= n // 2


def test_single_point_kinematics():
    w = catalog()[1]
    X = (3.0, 1.0, 0.5, 0.0)
    k = kinematics_arrays(w, X)
    assert np.shape(k["xi"]) == () and k["xi"] > 0
    assert k["R"].shape == k["K"].shape == (4,)
    assert abs(inner(k["K"], k["K"])) <= 1e-9
    tau = retarded_time_bisection(w, X)
    assert isinstance(tau, float)
    assert float(k["tau_r"]) == pytest.approx(tau)


def test_on_worldline_rejected():
    from pointcharge.minkowski import rest_worldline

    with pytest.raises(OnWorldline, match=r"lab distance 0 below "
                       r"1e-12\*max\(1, \|X\|\) = 2e-12$"):
        kinematics_arrays(rest_worldline(), (2.0, 0.0, 0.0, 0.0))
    # the message names the point nearest the worldline on its own scale
    with pytest.raises(OnWorldline, match=r"lab distance 1e-13 below .* = 3e-12$"):
        kinematics_arrays(rest_worldline(), [(2.0, 1.0, 0.0, 0.0),
                                             (3.0, 1e-13, 0.0, 0.0)])


def test_hyperbolic_horizon_has_no_retarded_time():
    from pointcharge.minkowski import hyperbolic_worldline

    # X0 + X1 <= 0 never intersects the backward light cone of the motion:
    # the bracket search finds no lower end, and the error names the horizon
    w = hyperbolic_worldline(1.0)
    for solve in (kinematics_arrays, retarded_time_bisection):
        with pytest.raises(BehindHorizon, match="past horizon"):
            solve(w, (1.0, -3.0, 0.0, 0.0))


@given(
    t=st.floats(min_value=0.5, max_value=5.0),
    x=st.floats(min_value=-2.0, max_value=2.0),
    y=st.floats(min_value=0.3, max_value=2.0),
)
@settings(max_examples=50, deadline=None)
def test_rest_retarded_time_property(t, x, y):
    from pointcharge.minkowski import rest_worldline

    tau = kinematics_arrays(rest_worldline(), (t, x, y, 0.0))["tau_r"]
    assert tau == pytest.approx(t - np.hypot(x, y), abs=1e-10)
