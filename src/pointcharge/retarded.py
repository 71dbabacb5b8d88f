"""Retarded proper time and the kinematic quantities built on it.

For an observer point X and a worldline Z the retarded proper time tau_r
is the unique root of g(tau) = R.R with R = X - Z(tau) on the backward
light cone (R0 > 0).  Along the worldline, g > 0 before the retarded
crossing, negative between the retarded and advanced crossings, and
positive again afterwards, so any bracket [lo, hi] with g(lo) > 0,
g(hi) < 0 and hi at the simultaneous point Z0(hi) = X0, tau_at(X0),
isolates tau_r.  Every solve goes through _solve, and each of its passes
takes z and zdot from one jet.  It starts at the retarded root of the
osculating hyperbola (the uniformly accelerated worldline with the same
z, zdot and zddot) at the light-delayed eigentime, which is exact for
inertial and uniformly accelerated motion, and returns the stepped root
tau + R.R/(2 xi) of the evaluation that certified tau.

All solver routines are vectorized over observer points of shape (..., 4),
laid out once as the jets are (component-major) and gathered by component;
a single point of shape (4,) gives 0-d results, numpy scalars.
"""

import numpy as np

from .errors import BehindHorizon, NoConvergence, OnWorldline
from .minkowski import _component_major, _dot, _rows, inner

DEFAULT_TOL = 1e-12
MAX_ITER = 100

# spatial distance below this counts as "on the worldline"
ON_WORLDLINE_DIST = 1e-12


def _as_points(X):
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != 4:
        raise ValueError("observer points must have shape (..., 4)")
    return X


def _g(w, X, tau):
    # evaluations far down the worldline may overflow (e.g. cosh); the
    # resulting nan/inf is treated as "not bracketed yet" by the callers
    with np.errstate(over="ignore", invalid="ignore"):
        R = X - w.z(tau)
        return inner(R, R)


def _past_end(w, X, hi):
    """Lower bracket end: doubling strides, the first of length 1, down
    from hi until g > 0 (nan counts as not yet).  None exists behind the
    past horizon of an eternally accelerated worldline, whose past light
    cone no point of the worldline reaches: BehindHorizon."""
    lo = hi - 1.0
    step = np.ones_like(lo)
    for _ in range(MAX_ITER):
        g = _g(w, X, lo)
        moving = ~(g > 0)
        if not moving.any():
            return lo
        lo = np.where(moving, lo - step, lo)
        step = np.where(moving, 2.0 * step, step)
    raise BehindHorizon("observer point lies behind the worldline's past "
                        "horizon and has no retarded time")


def _rtsafe(fdf, t, lo, hi, ftol, xtol):
    """Safeguarded Newton per point (Numerical Recipes' rtsafe, sec. 9.4),
    iterating only the points not yet converged.

    fdf(idx, t) returns f (increasing through the root) and df/dt at the
    points idx.  f < 0 / f > 0 moves lo / hi to t; a step that leaves
    [lo, hi] or meets df <= 0 bisects instead.  A point converges when
    |f| <= ftol and |step| <= xtol*max(1, |t|), so an f that fdf rounds to
    0 converges where it is; one that turns non-finite (an unbounded
    bracket) is dropped.  Returns the iterates and the mask of converged
    points.
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
            f, df = fdf(active, ta)
            a = np.where(f < 0, ta, lo[active])
            b = np.where(f > 0, ta, hi[active])
            newton = ta - f / df
            bad = ~np.isfinite(newton) | (newton < a) | (newton > b) | ~(df > 0)
            new = np.where(bad, 0.5 * (a + b), newton)
            conv = ((np.abs(f) <= ftol[active])
                    & (np.abs(new - ta) <= xtol * np.maximum(1.0, np.abs(new))))
        t[active], lo[active], hi[active] = new, a, b
        done[active] = conv
        active = active[~conv & np.isfinite(new)]
    return t, done


def _scale(X):
    """max(1, Euclidean |X|^2) for X of shape (n, 4)."""
    return np.maximum(1.0, _dot(X, X))


def _floor(X, R, RE):
    """The rounding floor of R.R formed from R = X - z(tau), for X and R of
    shape (n, 4) and RE = Euclidean |R|^2: z_mu comes back within about
    eps_mach |z_mu| <= eps_mach (|X_mu| + |R_mu|), which moves R.R by up to
    2 eps_mach sum_mu |R_mu| (|X_mu| + |R_mu|); the floor is twice that.
    It follows R, so near the worldline it lies far below eps_mach max(1,
    |X|^2)."""
    return 4.0 * np.finfo(float).eps * (_dot(np.abs(R), np.abs(X)) + RE)


def _cone_root(A, B, C):
    """The retarded root u = C/(B + sqrt(max(B^2 - AC, 0))) of
    C - 2 B u + A u^2 = 0, in a form that does not cancel."""
    return C / (B + np.sqrt(np.maximum(B * B - A * C, 0.0)))


def _hyperbola_start(w, X, tau):
    """Start for points X of shape (n, 4): the retarded root of the light
    cone of X on the osculating hyperbola at tau (n,), the uniformly
    accelerated worldline with the z, zdot and zddot of one jet at tau and
    proper acceleration alpha = sqrt(-zddot.zddot).  Along it z(tau + d) =
    z + zdot sinh(alpha d)/alpha + zddot (cosh(alpha d) - 1)/alpha^2, so with
    P = X - z and sigma = (exp(alpha d) - 1)/alpha, exp(alpha d) R.R = 0 is

        C - 2 sigma (B - alpha C/2) + sigma^2 (A - alpha B) = 0,

    A = 1 - zddot.P, B = zdot.P, C = P.P, and d = log1p(alpha sigma)/alpha
    (d = sigma where alpha sigma = 0).  As alpha -> 0 it is the light-cone
    condition with the worldline expanded to second order about tau
    (Teitelboim, Villarroel & van Weert, Riv. Nuovo Cimento 3, 1980).  The
    start is exact to rounding on inertial and uniformly accelerated
    worldlines.  Where the hyperbola has no root behind (strong acceleration
    far out) the start is not finite or off, and the warm loop steps from it
    or drops the point.  Unlike
    the quadratic in exp(a tau) built from X.X (Fulton & Rohrlich 1960), P
    does not cancel near the worldline."""
    z, zd, zdd = w.jet(tau)
    P = np.subtract(X, z, out=z)
    B, C = inner(zd, P), inner(P, P)
    alpha = np.sqrt(np.maximum(-inner(zdd, zdd), 0.0))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sigma = _cone_root(1.0 - inner(zdd, P) - alpha * B, B - 0.5 * alpha * C, C)
        u = alpha * sigma
        return tau + np.where(u == 0.0, sigma, np.log1p(u) / alpha)


def _solve(w, X):
    """tau_r of points X (..., 4): the stepped root tau + R.R/(2 xi) of the
    evaluation that certified tau (R = X - z(tau), xi = zdot.R there).

    X is laid out component-major once.  z is evaluated alone at the
    simultaneous eigentime tau_s = w.tau_at(X0), for the on-worldline test
    and the lab distance d = |x - z(tau_s)| of the spatial parts, and
    _warm_loop runs from _hyperbola_start at the light-delayed eigentime
    tau_e = w.tau_at(X0 - d): three evaluations per point where that start
    is the root.  A point the loop cannot certify is bracketed between
    _past_end and tau_s and solved by _rtsafe on -R.R from its start,
    clipped; its root is stepped from one jet at the bracketed root."""
    shape = X.shape[:-1]
    X = _component_major(X)
    scale = _scale(X)
    hi = w.tau_at(X[:, 0])
    z = w.jet(hi, 0)[0]
    P = np.subtract(X, z, out=z)    # X - z(tau_s), in z's place
    d = np.sqrt(_dot(P[:, 1:], P[:, 1:]))
    if np.any(d < ON_WORLDLINE_DIST * np.sqrt(scale)):
        raise OnWorldline("observer point lies on the worldline")
    del z, P
    t = _hyperbola_start(w, X, w.tau_at(X[:, 0] - d))
    root, solved = _warm_loop(w, X, t, scale)
    cold = np.flatnonzero(~solved)
    if cold.size:
        Xc, sc, hc = _rows(X, cold), scale[cold], hi[cold]
        lo = _past_end(w, Xc, hc)

        def fdf(idx, t):
            # -R.R and its derivative 2 xi, both over s = max(scale,
            # Euclidean |R|^2 = 2 R0^2 - R.R), which leaves the step as it
            # is; R.R within its rounding floor counts as 0, since a step
            # there is noise.  Inside [lo, tau_s] R0 > 0, and a root there
            # has xi > 0
            z, zd = w.jet(t, 1)
            Xi = _rows(Xc, idx)
            Rt = np.subtract(Xi, z, out=z)
            g = inner(Rt, Rt)
            RE = 2.0 * Rt[:, 0] * Rt[:, 0] - g
            s = np.maximum(sc[idx], RE)
            g[np.abs(g) <= _floor(Xi, Rt, RE)] = 0.0
            return -g / s, 2.0 * inner(zd, Rt) / s

        tc, ok = _rtsafe(fdf, np.clip(root[cold], lo, hc), lo, hc, DEFAULT_TOL,
                         DEFAULT_TOL)
        if not ok.all():
            raise NoConvergence(MAX_ITER, float(np.abs(_g(w, Xc[~ok], tc[~ok])).max()))
        z, zd = w.jet(tc, 1)
        R = np.subtract(Xc, z, out=z)
        root[cold] = tc + 0.5 * inner(R, R) / inner(zd, R)
    return root.reshape(shape)


def _warm_loop(w, X, t, scale):
    """Newton on R.R, unbracketed, for points X of shape (n, 4),
    component-major, from starts t of shape (n,), with scale = _scale(X);
    returns (root, solved).

    Every iterate is tested: R0 > 0, xi > 0 and either |R.R| at or below
    its rounding floor (_floor, which follows R), or |R.R| <= DEFAULT_TOL*s,
    s = max(1, |X|^2, Euclidean |R|^2), with a step |R.R/(2 xi)| of at
    most DEFAULT_TOL*max(1, |tau|).  The light cone of X meets the
    worldline once in its past, so that certifies the retarded root.  The
    rounding of R.R grows like (R0)^2, which far exceeds |X|^2 ahead of a
    fast charge, and shrinks with |R| near the worldline, where R.R is far
    below DEFAULT_TOL*s at any iterate and only the step decides.  At the
    floor a point passes whatever its step (from gamma ~ 70 on, Newton's
    steps there can cycle above the step bound).  A point that passes
    returns the stepped root tau + R.R/(2 xi) of that very evaluation, so a
    start at the root costs one evaluation.  A point whose iterate leaves
    R0 > 0, xi > 0 (it heads for the advanced root) or turns non-finite, or
    that has not passed after MAX_ITER evaluations, is not solved: its root
    is its start (t is written in place).
    """
    idx = None          # the points still iterating; None while all are
    for _ in range(MAX_ITER):
        Xa, sa = (X, scale) if idx is None else (_rows(X, idx), scale[idx])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            z, zd = w.jet(t, 1)
            Ra = np.subtract(Xa, z, out=z)
            xa = inner(zd, Ra)
            g = inner(Ra, Ra)
            # Euclidean |R|^2 = 2 R0^2 - R.R
            RE = 2.0 * Ra[:, 0] * Ra[:, 0] - g
            step = 0.5 * g / xa
            new = t + step
            ahead = (Ra[:, 0] > 0) & (xa > 0)
            ag = np.abs(g)
            near = ahead & (ag <= DEFAULT_TOL * np.maximum(sa, RE))
            ok = near & (np.abs(step) <= DEFAULT_TOL * np.maximum(1.0, np.abs(new)))
            # the floor is at most 8 eps_mach s, so it decides only where
            # the step bound fails
            cycle = np.flatnonzero(near & ~ok)
            ok[cycle] = ag[cycle] <= _floor(_rows(Xa, cycle), _rows(Ra, cycle),
                                            RE[cycle])
        go_on = ahead & ~ok & np.isfinite(new)
        if idx is None:
            np.copyto(t, new, where=ok)
            root, solved = t, ok
            idx = np.flatnonzero(go_on)
        else:
            done = idx[ok]
            root[done], solved[done] = new[ok], True
            idx = idx[go_on]
        if idx.size == 0:
            break
        t = new[go_on]
        del z, zd, Ra   # freed before the next pass evaluates the jet
    return root, solved


def retarded_time_bisection(w, X):
    """Independent bisection oracle for tau_r; no Newton steps involved.

    The lower bracket end is found by doubling steps down from the
    simultaneous point (R.R evaluated very deep in the past of a strongly
    accelerated worldline cancels catastrophically in floats, so the
    bracket should be no deeper than necessary).  Its upper end is the
    simultaneous eigentime w.tau_at(X0).
    """
    pts = _as_points(X)
    X = _component_major(pts)
    hi = w.tau_at(X[:, 0])
    lo = _past_end(w, X, hi)
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        g = _g(w, X, tau)
        lo = np.where(g > 0, tau, lo)
        hi = np.where(g <= 0, tau, hi)
        if np.all(hi - lo <= DEFAULT_TOL):
            break
    tau = 0.5 * (lo + hi)
    return tau.reshape(pts.shape[:-1])[()]


def kinematics_arrays(w, X):
    """The retarded solve, with its kinematics: a dict of arrays keyed by
    quantity, each of the shape (...) or (..., 4) of the points X.

    tau_r is _solve's stepped root (the certified root plus its last Newton
    step R.R/(2 xi)), where R, zdot, zddot and xi are formed anew from one
    jet, over X laid out component-major once.  retarded_time_bisection is
    its independent oracle."""
    pts = _as_points(X)
    X = _component_major(pts)
    tau = _solve(w, X)
    z, zdot, zddot = w.jet(tau)
    R = np.subtract(X, z, out=z)
    xi = inner(zdot, R)
    K = R / xi[:, None]
    kin = {"tau_r": tau, "R": R, "xi": xi, "K": K, "kappa": inner(zddot, K),
           "zdot": zdot, "zddot": zddot, "residual": inner(R, R)}
    # [()] makes a single point's 0-d results numpy scalars
    shape = pts.shape[:-1]
    return {k: v.reshape(shape + v.shape[1:])[()] for k, v in kin.items()}
