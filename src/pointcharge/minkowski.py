"""Minkowski-space primitives: metric, inner product, worldline catalog.

Conventions: signature (+,-,-,-), geometric units c = 1; a four-vector
is an array whose last axis holds its contravariant components.
Worldlines are parametrized by eigentime, so zdot . zdot = 1 and
zdot . zddot = 0 identically.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

METRIC = np.array([1.0, -1.0, -1.0, -1.0])


def inner(a, b):
    """Lorentz inner product a0*b0 - a1*b1 - a2*b2 - a3*b3.

    Accepts arrays of shape (..., 4); broadcasts over leading axes.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # in place, left to right: the bits of the plain expression with three
    # temporaries fewer
    out = a[..., 0] * b[..., 0]
    out -= a[..., 1] * b[..., 1]
    out -= a[..., 2] * b[..., 2]
    out -= a[..., 3] * b[..., 3]
    return out


def _dot(a, b):
    """(a * b).sum(axis=-1) over a last axis of 3 or 4 components, by
    components left to right, as inner: numpy adds so short an axis in
    that order, so the bits are the same, without the product array and
    at about a third of the reduction's cost."""
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def _component_major(X):
    """Points X (..., 4) as the (n, 4) view of a (4, n) buffer, as _jet lays
    out z: one copy, none where X is laid out so already."""
    return np.ascontiguousarray(np.moveaxis(X, -1, 0).reshape(4, -1)).T


def _rows(A, idx):
    """A[idx] for (n, k) A and integer idx, gathered by component into a
    component-major result, several times faster than A[idx] on one."""
    return A.T.take(idx, axis=1).T


@dataclass(frozen=True)
class Worldline:
    """Eigentime-parametrized worldline, given in closed form by its jet and
    the inverse of its lab time, which a new worldline must both supply.

    jet(tau, order=2) maps eigentimes of shape S to (z, zdot,
    zddot)[:order + 1], each of shape S + (4,), forming only the
    derivatives asked for and each transcendental of tau once; tau_at(t)
    solves z0(tau) = t for 0-d or array t.  The catalog's jets are
    component-contiguous (_jet), and the retarded solve lays its points out
    so (_component_major, _rows).  z, zdot and zddot are read off the jet,
    so they agree with it bit for bit.
    """

    label: str
    jet: callable
    tau_at: callable
    z: callable = field(init=False)
    zdot: callable = field(init=False)
    zddot: callable = field(init=False)

    def __post_init__(self):
        jet = self.jet
        for k, name in enumerate(("z", "zdot", "zddot")):
            object.__setattr__(self, name, lambda tau, k=k: jet(tau, k)[k])


def _jet(tau, order, *rows):
    """(z, zdot, zddot)[:order + 1] at tau, the k-th of shape shape(tau) +
    (4,) with the leading components rows[k]() returns (arrays of tau's
    shape or scalars) and 0 for the rest; no later row is called.  Each is
    the (..., 4) view of a component-major buffer of shape (4,) +
    shape(tau), so every component [..., k] is contiguous."""
    jet = []
    for row in rows[:order + 1]:
        buf = np.empty((4,) + np.shape(tau))
        comps = row()
        for i, c in enumerate(comps):
            buf[i] = c
        buf[len(comps):] = 0.0
        jet.append(buf.transpose(*range(1, buf.ndim), 0))
    return tuple(jet)


def rest_worldline():
    def jet(tau, order=2):
        return _jet(tau, order, lambda: (tau,), lambda: (1.0,), lambda: ())

    return Worldline("rest", jet, lambda t: np.array(t, dtype=float))


def boost_worldline(v):
    """Constant velocity v along x1."""
    if not abs(v) < 1.0:
        raise ConfigError(f"boost speed must satisfy |v| < 1, got {v}")
    g = 1.0 / np.sqrt(1.0 - v * v)

    def jet(tau, order=2):
        return _jet(tau, order, lambda: (g * tau, g * v * tau),
                    lambda: (g, g * v), lambda: ())

    return Worldline("boost", jet, lambda t: t / g)


def hyperbolic_worldline(a):
    """Uniform proper acceleration a in the (x0, x1) plane."""
    if not (np.isfinite(a) and a != 0):
        raise ConfigError(f"hyperbolic worldline needs a finite a != 0, got {a}")

    def jet(tau, order=2):
        s, c = np.sinh(a * tau), np.cosh(a * tau)
        return _jet(tau, order, lambda: (s / a, c / a), lambda: (c, s),
                    lambda: (a * s, a * c))

    # z0 = sinh(a tau)/a, for either sign of a
    return Worldline("hyperbolic", jet, lambda t: np.arcsinh(a * t) / a)


def circular_worldline(r, omega):
    """Circular motion of radius r and lab angular frequency omega.

    Lab time is rescaled by gamma so that the parameter is eigentime.
    """
    v = r * omega
    if not abs(v) < 1.0:
        raise ConfigError(f"circular worldline needs |r*omega| < 1, got {v}")
    g = 1.0 / np.sqrt(1.0 - v * v)
    w = omega * g  # angular frequency in eigentime

    def jet(tau, order=2):
        c, s = np.cos(w * tau), np.sin(w * tau)
        return _jet(tau, order, lambda: (g * tau, r * c, r * s),
                    lambda: (g, -r * w * s, r * w * c),
                    lambda: (0.0, -r * w * w * c, -r * w * w * s))

    return Worldline("circular", jet, lambda t: t / g)


def catalog():
    """Default instances of the four catalog worldlines."""
    return [
        rest_worldline(),
        boost_worldline(0.6),
        hyperbolic_worldline(1.0),
        circular_worldline(1.0, 0.5),
    ]


def parse_worldline(spec):
    """Parse 'rest', 'boost(v)', 'hyperbolic(a)' or 'circular(r, omega)'."""
    spec = spec.strip()
    if spec == "rest":
        return rest_worldline()
    for name, maker, nargs in (
        ("boost", boost_worldline, 1),
        ("hyperbolic", hyperbolic_worldline, 1),
        ("circular", circular_worldline, 2),
    ):
        if spec.startswith(name + "(") and spec.endswith(")"):
            args = [s.strip() for s in spec[len(name) + 1 : -1].split(",")]
            if len(args) != nargs:
                raise ConfigError(f"{name} takes {nargs} argument(s), got {spec!r}")
            try:
                return maker(*(float(s) for s in args))
            except ValueError as exc:
                raise ConfigError(f"bad worldline spec {spec!r}: {exc}") from None
    raise ConfigError(f"unknown worldline spec {spec!r}")


@dataclass(frozen=True)
class WorldlineReport:
    max_norm_residual: float
    passed: bool
    failures: tuple


def validate_worldline(w, tau_grid):
    """Check eigentime normalization and orthogonality, each to 1e-10,
    future-direction, and tau_at(z0(tau)) = tau to 1e-10*max(1, |tau|)."""
    tol = 1e-10
    tau = np.asarray(tau_grid, dtype=float)
    if tau.size == 0:
        raise ValueError("tau_grid must be nonempty")
    z, zd, zdd = w.jet(tau)
    inverse_res = np.abs(w.tau_at(z[..., 0]) - tau) / np.maximum(1.0, np.abs(tau))
    norm_res = np.abs(inner(zd, zd) - 1.0)
    ortho_res = np.abs(inner(zd, zdd))
    zdot0 = zd[..., 0]
    failures = []
    if norm_res.max() > tol:
        failures.append(f"|Zdot.Zdot - 1| = {norm_res.max():.3e} at tau = {tau[norm_res.argmax()]:g}")
    if ortho_res.max() > tol:
        failures.append(f"|Zdot.Zddot| = {ortho_res.max():.3e} at tau = {tau[ortho_res.argmax()]:g}")
    if zdot0.min() <= 0:
        failures.append(f"Zdot0 = {zdot0.min():.3e} at tau = {tau[zdot0.argmin()]:g}")
    if inverse_res.max() > tol:
        failures.append(f"|tau_at(Z0) - tau|/max(1, |tau|) = {inverse_res.max():.3e} "
                        f"at tau = {tau[inverse_res.argmax()]:g}")
    return WorldlineReport(
        max_norm_residual=float(norm_res.max()),
        passed=not failures,
        failures=tuple(failures),
    )
