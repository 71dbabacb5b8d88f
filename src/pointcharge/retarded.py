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


def _rtsafe(fdf, t, lo, hi, ftol, xtol, floor=0.0):
    """Safeguarded Newton per point (Numerical Recipes' rtsafe, sec. 9.4),
    iterating only the points not yet converged.

    fdf(idx, t) returns f (increasing through the root), df/dt and a mask
    of admissible iterates at the points idx.  f < 0 / f > 0 moves lo / hi
    to t; a step that leaves [lo, hi] or meets df <= 0 bisects instead.  A
    point converges when |f| <= ftol, |step| <= xtol*max(1, |t|) or
    |f| <= floor (f at its rounding floor, where a step is noise), and the
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
            af = np.abs(f)
            conv = ((af <= ftol[active]) & admissible
                    & ((np.abs(new - ta) <= xtol * np.maximum(1.0, np.abs(new)))
                       | (af <= floor)))
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
    fast charge, so s must follow R; and |g| <= eps_mach*s is that rounding
    floor, where a point converges whatever its step (from gamma ~ 70 on,
    Newton's steps there can cycle above the step bound)."""
    def fdf(idx, t):
        R = X[idx] - w.z(t)
        xi = inner(w.zdot(t), R)
        g = inner(R, R)
        # Euclidean |R|^2 = 2 R0^2 - R.R
        s = np.maximum(scale[idx], 2.0 * R[:, 0] * R[:, 0] - g)
        return -g / s, 2.0 * xi / s, (R[:, 0] > 0) & (xi > 0)

    return _rtsafe(fdf, tau, lo, hi, DEFAULT_TOL, DEFAULT_TOL,
                   np.finfo(float).eps)


def _scale(X):
    """max(1, Euclidean |X|^2) for X of shape (n, 4); by components, about
    3x faster than .sum(-1)."""
    return np.maximum(1.0, X[:, 0]**2 + X[:, 1]**2 + X[:, 2]**2 + X[:, 3]**2)


def _cone_root(A, B, C):
    """The retarded root u = C/(B + sqrt(max(B^2 - AC, 0))) of
    C - 2 B u + A u^2 = 0, in a form that does not cancel."""
    return C / (B + np.sqrt(np.maximum(B * B - A * C, 0.0)))


def _solve_array(w, X):
    """tau_r for points X of shape (..., 4), solved cold: the warm loop from
    the retarded root of the light-cone condition with the worldline
    expanded to second order about the simultaneous eigentime tau_s (exact
    on inertial worldlines).  A point the loop cannot certify is bracketed
    between _past_end and tau_s and solved by _newton from its start,
    clipped.  Returns the certified root plus its last Newton step
    R.R/(2 xi), as _rtsafe returns its iterates."""
    shape = X.shape[:-1]
    X = X.reshape(-1, 4)
    scale = _scale(X)
    hi = _tau_simultaneous(w, X[:, 0])
    P = X - w.z(hi)
    if np.any(np.linalg.norm(P[:, 1:], axis=-1) < ON_WORLDLINE_DIST * np.sqrt(scale)):
        raise OnWorldline("observer point lies on the worldline")
    # _neighbour_tau0's expansion about tau_s, with P = X - z(tau_s) for
    # R +- h e_mu; where it has no root behind tau_s (strong acceleration,
    # far out) the start is not finite or lies ahead, and the loop drops it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tau0 = hi + _cone_root(1.0 - inner(w.zddot(hi), P),
                               inner(w.zdot(hi), P), inner(P, P))
    del P
    tau, R, xi, solved = _warm_loop(w, X, tau0, scale)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tau = np.where(solved, tau + 0.5 * inner(R, R) / xi, tau)
    del R, xi
    cold = ~solved
    if cold.any():
        # tau0 still holds the start of each point the loop left
        Xc, hc = X[cold], hi[cold]
        lo = _past_end(w, Xc, hc, 1.0)
        tc, ok = _newton(w, Xc, np.clip(tau0[cold], lo, hc), lo, hc, scale[cold])
        if not ok.all():
            raise NoConvergence(MAX_ITER, float(np.abs(_g(w, Xc[~ok], tc[~ok])).max()))
        tau[cold] = tc
    return tau.reshape(shape)


def _warm_loop(w, X, t, scale):
    """Newton on R.R, unbracketed, for points X of shape (n, 4) from starts
    t of shape (n,), with scale = _scale(X); returns (tau, R, xi, solved).

    Every iterate is tested as _newton tests it: R0 > 0, xi > 0 and either
    |R.R| <= eps_mach*s, the rounding floor of s = max(1, |X|^2, Euclidean
    |R|^2), or |R.R| <= DEFAULT_TOL*s with a step |R.R/(2 xi)| of at most
    DEFAULT_TOL*max(1, |tau|).  A point that passes returns the tau,
    R = X - z(tau) and xi = zdot.R of that very evaluation, so a start at
    the root costs one evaluation.  A point whose iterate leaves R0 > 0,
    xi > 0 (it heads for the advanced root) or turns non-finite, or that
    has not passed after MAX_ITER evaluations, is not solved: its tau is
    its start (t is written in place), and its R and xi are of no use.
    """
    floor = np.finfo(float).eps
    idx = None          # the points still iterating; None while all are
    for _ in range(MAX_ITER):
        Xa, sa = (X, scale) if idx is None else (X[idx], scale[idx])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            Ra = Xa - w.z(t)
            xa = inner(w.zdot(t), Ra)
            g = inner(Ra, Ra)
            # Euclidean |R|^2 = 2 R0^2 - R.R
            s = np.maximum(sa, 2.0 * Ra[:, 0] * Ra[:, 0] - g)
            step = 0.5 * g / xa
            new = t + step
            ahead = (Ra[:, 0] > 0) & (xa > 0)
            ag = np.abs(g)
            ok = ahead & ((ag <= floor * s) | (
                (ag <= DEFAULT_TOL * s)
                & (np.abs(step) <= DEFAULT_TOL * np.maximum(1.0, np.abs(new)))))
        go_on = ahead & ~ok & np.isfinite(new)
        if idx is None:
            tau, R, xi, solved = t, Ra, xa, ok
            idx = np.flatnonzero(go_on)
        else:
            done = idx[ok]
            tau[done], R[done], xi[done], solved[done] = t[ok], Ra[ok], xa[ok], True
            idx = idx[go_on]
        if idx.size == 0:
            break
        t = new[go_on]
    return tau, R, xi, solved


def _warm_solve(w, X, tau0):
    """(tau_r, R, xi) for points X of shape (..., 4) by _warm_loop from a
    per-point start tau0 (broadcast to the points); a point the loop
    cannot certify is solved cold by _solve_array."""
    shape = X.shape[:-1]
    X = X.reshape(-1, 4)
    t = np.array(np.broadcast_to(tau0, shape), dtype=float).ravel()
    tau, R, xi, solved = _warm_loop(w, X, t, _scale(X))
    cold = ~solved
    if cold.any():
        tau[cold] = _solve_array(w, X[cold])
        R[cold] = X[cold] - w.z(tau[cold])
        xi[cold] = inner(w.zdot(tau[cold]), R[cold])
    return tau.reshape(shape), R.reshape(shape + (4,)), xi.reshape(shape)


def retarded_time(w, X):
    """Retarded proper time tau_r(X) for worldline w.

    Newton iteration on g(tau) = R.R using dg/dtau = -2*xi from the
    light-cone start about the simultaneous eigentime (_solve_array); a
    point it cannot certify is bracketed, with a bisection fallback
    whenever the Newton step leaves the bracket.
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

    Without tau0 every point is solved cold (_solve_array).  With a
    per-point start tau0, broadcast to the points, each point is solved by
    _warm_solve from it, and only the points it cannot certify are solved
    cold; tau0 sets where the solve starts, not which root it accepts."""
    pts, _ = _as_points(X)
    if tau0 is None:
        tau = _solve_array(w, pts)
        R = pts - w.z(tau)
        zdot = w.zdot(tau)
        xi = inner(zdot, R)
    else:
        tau, R, xi = _warm_solve(w, pts, tau0)
        zdot = w.zdot(tau)
    zddot = w.zddot(tau)
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
    """Starts tau_r + u for the solves at X +- h e_mu: u is the retarded root
    of the light-cone condition at X +- h e_mu with the worldline expanded
    to second order about tau_r (Teitelboim, Villarroel & van Weert, Riv.
    Nuovo Cimento 3, 1980).  With P = R +- h e_mu,

        P.P - 2 u zdot.P + u^2 (1 - zddot.P) = 0,

    so u = _cone_root(A, B, C) with A = 1 - zddot.P, B = zdot.P and
    C = P.P.  The start is exact to rounding on inertial worldlines and
    misses the root by O(h^3) otherwise; the solve certifies the root.
    kin is the kinematics at X, as kinematics_arrays returns them:
    zdot.R = xi, zddot.R = xi kappa and R.R = residual."""
    R, zd, zdd = kin["R"], kin["zdot"], kin["zddot"]
    RR, zR, aR = kin["residual"], kin["xi"], kin["xi"] * kin["kappa"]
    starts = []
    for sign in (1.0, -1.0):
        # a.P = a.R + dh a^mu for any a, and P.P = R.R + dh (2 R^mu + sign h)
        dh = sign * METRIC[mu] * h
        A = 1.0 - aR - dh * zdd[..., mu]
        B = zR + dh * zd[..., mu]
        C = RR + dh * (2.0 * R[..., mu] + sign * h)
        starts.append(kin["tau_r"] + _cone_root(A, B, C))
    return starts[0], starts[1]


def neighbours(X, kin, h):
    """For mu = 0..3, (mu, X + h e_mu, start, X - h e_mu, start): the
    central-difference neighbours of X (..., 4), solved by the caller with
    _warm_solve from the starts of _neighbour_tau0; h is one step or one
    per point."""
    for mu in range(4):
        Xp, Xm = X.copy(), X.copy()
        Xp[..., mu] += h
        Xm[..., mu] -= h
        tau_plus, tau_minus = _neighbour_tau0(kin, mu, h)
        yield mu, Xp, tau_plus, Xm, tau_minus


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
        fd = (_warm_solve(w, Xp, tau_plus)[0]
              - _warm_solve(w, Xm, tau_minus)[0]) / (2 * h)
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
