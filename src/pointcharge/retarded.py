"""Retarded proper time and the kinematic quantities built on it.

For an observer point X and a worldline Z the retarded proper time tau_r
is the unique root of g(tau) = R.R with R = X - Z(tau) on the backward
light cone (R0 > 0).  Along the worldline, g > 0 before the retarded
crossing, negative between the retarded and advanced crossings, and
positive again afterwards, so any bracket [lo, hi] with g(lo) > 0,
g(hi) < 0 and hi at the simultaneous point Z0(hi) = X0 isolates tau_r.

All solver routines are vectorized over arrays of observer points of
shape (..., 4); a single point of shape (4,) gives a float tau_r.
"""

import numpy as np

from .errors import NoConvergence, OnWorldline
from .minkowski import METRIC, inner, lower

DEFAULT_TOL = 1e-12
MAX_ITER = 100

# spatial distance below this counts as "on the worldline"
ON_WORLDLINE_DIST = 1e-12


def _as_points(X):
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != 4:
        raise ValueError("observer points must have shape (..., 4)")
    return X, X.ndim == 1


def _g(w, X, tau):
    # evaluations far down the worldline may overflow (e.g. cosh); the
    # resulting nan/inf is treated as "not bracketed yet" by the callers
    with np.errstate(over="ignore", invalid="ignore"):
        R = X - w.z(tau)
        return inner(R, R)


def _past_end(w, X, hi, step):
    """Lower bracket end: doubling strides, the first of length `step`, down
    from hi until g > 0 (nan counts as not yet).  None exists e.g. behind
    the horizon of an eternally accelerated worldline."""
    lo = hi - step
    step = np.broadcast_to(np.asarray(step, dtype=float), lo.shape)
    for _ in range(MAX_ITER):
        g = _g(w, X, lo)
        moving = ~(g > 0)
        if not moving.any():
            return lo
        lo = np.where(moving, lo - step, lo)
        step = np.where(moving, 2.0 * step, step)
    raise NoConvergence(MAX_ITER, float(np.abs(g[moving]).max()))


def _rtsafe(fdf, t, lo, hi, ftol, xtol):
    """Safeguarded Newton per point (Numerical Recipes' rtsafe, sec. 9.4),
    iterating only the points not yet converged.

    fdf(idx, t) returns f (increasing through the root), df/dt and a mask
    of admissible iterates at the points idx.  f < 0 / f > 0 moves lo / hi
    to t; a step that leaves [lo, hi] or meets df <= 0 bisects instead.  A
    point converges when |f| <= ftol, |step| <= xtol*max(1, |t|) and the
    iterate is admissible; one that turns non-finite (an unbounded bracket)
    is dropped.  Returns the iterates and the mask of converged points.
    """
    t, lo, hi = t.copy(), lo.copy(), hi.copy()
    ftol = np.broadcast_to(ftol, t.shape)
    done = np.zeros(t.shape, dtype=bool)
    active = np.arange(t.size)
    for _ in range(MAX_ITER):
        if active.size == 0:
            break
        ta = t[active]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f, df, admissible = fdf(active, ta)
            a = np.where(f < 0, ta, lo[active])
            b = np.where(f > 0, ta, hi[active])
            newton = ta - f / df
            bad = ~np.isfinite(newton) | (newton < a) | (newton > b) | ~(df > 0)
            new = np.where(bad, 0.5 * (a + b), newton)
            conv = ((np.abs(f) <= ftol[active]) & admissible
                    & (np.abs(new - ta) <= xtol * np.maximum(1.0, np.abs(new))))
        t[active], lo[active], hi[active] = new, a, b
        done[active] = conv
        active = active[~conv & np.isfinite(new)]
    return t, done


def _tau_simultaneous(w, X0):
    """Solve Z0(tau) = X0 per point.  Zdot0 >= 1 for a unit timelike Zdot,
    so the root lies within |f0| of X0, where f0 = Z0(X0) - X0."""
    X0 = np.asarray(X0, dtype=float)
    x0 = X0.ravel()
    f0 = w.z(x0)[:, 0] - x0
    lo, hi = x0 - np.maximum(f0, 0.0), x0 - np.minimum(f0, 0.0)

    def fdf(idx, t):
        return w.z(t)[:, 0] - x0[idx], w.zdot(t)[:, 0], True

    tau, _ = _rtsafe(fdf, x0, lo, hi, np.inf, 1e-15)
    return tau.reshape(X0.shape)


def _newton(w, X, tau, lo, hi, scale):
    """_rtsafe on -g(tau) = -R.R, whose derivative is 2*xi, for X of shape
    (n, 4), both divided by s = max(scale, Euclidean |R|^2 at the iterate),
    which leaves the Newton step as it is.  A point converges when
    |g| <= DEFAULT_TOL*s and the step is at most DEFAULT_TOL*max(1, |tau|),
    at an iterate with R0 > 0 and xi > 0: the light cone of X meets the
    worldline once in its past, so that certifies the retarded root.  The
    rounding of R.R grows like (R0)^2, which far exceeds |X|^2 ahead of a
    fast charge, so s must follow R."""
    def fdf(idx, t):
        R = X[idx] - w.z(t)
        xi = inner(w.zdot(t), R)
        g = inner(R, R)
        # Euclidean |R|^2 = 2 R0^2 - R.R
        s = np.maximum(scale[idx], 2.0 * R[:, 0] * R[:, 0] - g)
        return -g / s, 2.0 * xi / s, (R[:, 0] > 0) & (xi > 0)

    return _rtsafe(fdf, tau, lo, hi, DEFAULT_TOL, DEFAULT_TOL)


def _solve_array(w, X, tau0=None):
    """tau_r for points X of shape (..., 4).

    Without tau0 every point is bracketed between a past point with g > 0
    and the simultaneous point.  With a per-point start tau0, Newton runs
    unbracketed from it; a point is kept only when it converges to the
    retarded root, and every other point is solved cold.
    """
    shape = X.shape[:-1]
    X = X.reshape(-1, 4)
    # max(1, Euclidean |X|^2); by components, about 3x faster than .sum(-1)
    scale = np.maximum(1.0, X[:, 0]**2 + X[:, 1]**2 + X[:, 2]**2 + X[:, 3]**2)
    if tau0 is not None:
        inf = np.full(X.shape[0], np.inf)
        tau, ok = _newton(w, X, np.broadcast_to(tau0, shape).ravel(), -inf, inf,
                          scale)
        if not ok.all():
            tau[~ok] = _solve_array(w, X[~ok])
        return tau.reshape(shape)

    hi = _tau_simultaneous(w, X[:, 0])
    spatial_dist = np.linalg.norm(X[:, 1:] - w.z(hi)[:, 1:], axis=-1)
    if np.any(spatial_dist < ON_WORLDLINE_DIST * np.sqrt(scale)):
        raise OnWorldline("observer point lies on the worldline")
    lo = _past_end(w, X, hi, 1.0)
    # lab-time guess X0 - |x - z(X0)|, exact at rest; clipped, since it can
    # overshoot into overflow territory for accelerated worldlines
    guess = X[:, 0] - np.linalg.norm(X[:, 1:] - w.z(X[:, 0])[:, 1:], axis=-1)
    tau, ok = _newton(w, X, np.clip(guess, lo, hi), lo, hi, scale)
    if not ok.all():
        g = np.abs(_g(w, X[~ok], tau[~ok]))
        raise NoConvergence(MAX_ITER, float(g.max()))
    return tau.reshape(shape)


def retarded_time(w, X):
    """Retarded proper time tau_r(X) for worldline w.

    Newton iteration on g(tau) = R.R using dg/dtau = -2*xi, with a
    bisection fallback whenever the Newton step leaves the bracket.
    """
    pts, scalar = _as_points(X)
    tau = _solve_array(w, pts)
    return float(tau) if scalar else tau


def retarded_time_bisection(w, X):
    """Independent bisection oracle for tau_r; no Newton steps involved.

    The lower bracket end is found by doubling steps down from the
    simultaneous point (R.R evaluated very deep in the past of a strongly
    accelerated worldline cancels catastrophically in floats, so the
    bracket should be no deeper than necessary).
    """
    pts, scalar = _as_points(X)
    hi = _tau_simultaneous(w, pts[..., 0])
    lo = _past_end(w, pts, hi, 1.0)
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        g = _g(w, pts, tau)
        lo = np.where(g > 0, tau, lo)
        hi = np.where(g <= 0, tau, hi)
        if np.all(hi - lo <= DEFAULT_TOL):
            break
    tau = 0.5 * (lo + hi)
    return float(tau) if scalar else tau


def kinematics_arrays(w, X, tau0=None):
    """Batched kinematics; returns a dict of arrays keyed by quantity.
    tau0, broadcast to the points, sets only where the retarded solve starts."""
    pts, _ = _as_points(X)
    tau = _solve_array(w, pts, tau0)
    R = pts - w.z(tau)
    zdot = w.zdot(tau)
    zddot = w.zddot(tau)
    xi = inner(zdot, R)
    K = R / xi[..., None]
    kappa = inner(zddot, K)
    return {
        "tau_r": tau,
        "R": R,
        "xi": xi,
        "K": K,
        "kappa": kappa,
        "zdot": zdot,
        "zddot": zddot,
        "residual": inner(R, R),
    }


def _neighbour_tau0(kin, mu, h):
    """Starts tau_r +- h K_mu + (h^2/2) d_mu d_mu tau_r for the solves at
    X +- h e_mu, where d_mu d_nu tau_r = [eta_mu_nu - zdot_mu K_nu - K_mu zdot_nu
    - (xi kappa - 1) K_mu K_nu]/xi (lowered indices); the solve certifies the root."""
    g = METRIC[mu]
    k, zd, xi = g * kin["K"][..., mu], g * kin["zdot"][..., mu], kin["xi"]
    curve = 0.5 * h * h * (g - 2.0 * zd * k - (xi * kin["kappa"] - 1.0) * k * k) / xi
    return kin["tau_r"] + h * k + curve, kin["tau_r"] - h * k + curve


def neighbours(X, kin, h):
    """For mu = 0..3, (mu, X + h e_mu, start, X - h e_mu, start): the
    central-difference neighbours of X (..., 4), solved by the caller from
    the starts of _neighbour_tau0; h is one step or one per point."""
    for mu in range(4):
        shift = np.zeros_like(X)
        shift[..., mu] = h
        tau_plus, tau_minus = _neighbour_tau0(kin, mu, h)
        yield mu, X + shift, tau_plus, X - shift, tau_minus


def grad_tau_check(w, X, h=1e-4):
    """Max componentwise gap between central differences of tau_r and K.

    The analytic gradient with respect to the coordinates X^mu is the
    lowered K vector; the finite-difference error is O(h^2).
    """
    pts, _ = _as_points(X)
    k = kinematics_arrays(w, pts)
    K_low = lower(k["K"])
    worst = 0.0
    for mu, Xp, tau_plus, Xm, tau_minus in neighbours(pts, k, h):
        fd = (_solve_array(w, Xp, tau_plus)
              - _solve_array(w, Xm, tau_minus)) / (2 * h)
        worst = max(worst, float(np.abs(fd - K_low[..., mu]).max()))
    return worst


def grad_xi(w, X):
    """Analytic gradient of the retarded distance.

    Returned contravariant, G = Zdot + (xi*kappa - 1) K, so that
    d(xi)/dX^mu equals the lowered components of G.  Never zero.
    """
    k = kinematics_arrays(w, X)
    return k["zdot"] + (k["xi"] * k["kappa"] - 1.0)[..., None] * k["K"]


def div_K_fd(w, X, h=1e-4):
    """Coordinate divergence sum_mu dK^mu/dX^mu by central differences."""
    pts, _ = _as_points(X)
    k = kinematics_arrays(w, pts)
    total = 0.0
    for mu, Xp, tau_plus, Xm, tau_minus in neighbours(pts, k, h):
        Kp = kinematics_arrays(w, Xp, tau_plus)["K"][..., mu]
        Km = kinematics_arrays(w, Xm, tau_minus)["K"][..., mu]
        total = total + (Kp - Km) / (2 * h)
    return total
