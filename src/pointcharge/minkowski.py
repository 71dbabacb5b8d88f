"""Minkowski-space primitives: metric, inner product, worldline catalog.

Conventions: signature (+,-,-,-), geometric units c = 1; a four-vector
is an array whose last axis holds its contravariant components.
Worldlines are parametrized by eigentime, so zdot . zdot = 1 and
zdot . zddot = 0 identically.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

METRIC = np.array([1.0, -1.0, -1.0, -1.0])


def inner(a, b):
    """Lorentz inner product a0*b0 - a1*b1 - a2*b2 - a3*b3.

    Accepts arrays of shape (..., 4); broadcasts over leading axes.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (a[..., 0] * b[..., 0] - a[..., 1] * b[..., 1]
            - a[..., 2] * b[..., 2] - a[..., 3] * b[..., 3])


def lower(a):
    """Lower the index: componentwise metric application g_{mu nu} a^nu."""
    return METRIC * np.asarray(a, dtype=float)


@dataclass(frozen=True)
class Worldline:
    """Eigentime-parametrized worldline with exact analytic derivatives.

    The evaluators map an array of eigentimes with shape S to position /
    velocity / acceleration arrays of shape S + (4,).
    """

    label: str
    z: callable
    zdot: callable
    zddot: callable


def _fill(tau, *comps):
    """One array of shape shape(tau) + (4,) from four components, each an
    array of tau's shape or a scalar."""
    out = np.empty(np.shape(tau) + (4,))
    for i, c in enumerate(comps):
        out[..., i] = c
    return out


def rest_worldline():
    return Worldline(
        label="rest",
        z=lambda tau: _fill(tau, tau, 0.0, 0.0, 0.0),
        zdot=lambda tau: _fill(tau, 1.0, 0.0, 0.0, 0.0),
        zddot=lambda tau: _fill(tau, 0.0, 0.0, 0.0, 0.0),
    )


def boost_worldline(v):
    """Constant velocity v along x1."""
    if not abs(v) < 1.0:
        raise ConfigError(f"boost speed must satisfy |v| < 1, got {v}")
    g = 1.0 / np.sqrt(1.0 - v * v)
    return Worldline(
        label="boost",
        z=lambda tau: _fill(tau, g * tau, g * v * tau, 0.0, 0.0),
        zdot=lambda tau: _fill(tau, g, g * v, 0.0, 0.0),
        zddot=lambda tau: _fill(tau, 0.0, 0.0, 0.0, 0.0),
    )


def hyperbolic_worldline(a):
    """Uniform proper acceleration a in the (x0, x1) plane."""
    if not (np.isfinite(a) and a != 0):
        raise ConfigError(f"hyperbolic worldline needs a finite a != 0, got {a}")
    return Worldline(
        label="hyperbolic",
        z=lambda tau: _fill(tau, np.sinh(a * tau) / a, np.cosh(a * tau) / a, 0.0, 0.0),
        zdot=lambda tau: _fill(tau, np.cosh(a * tau), np.sinh(a * tau), 0.0, 0.0),
        zddot=lambda tau: _fill(tau, a * np.sinh(a * tau), a * np.cosh(a * tau), 0.0, 0.0),
    )


def circular_worldline(r, omega):
    """Circular motion of radius r and lab angular frequency omega.

    Lab time is rescaled by gamma so that the parameter is eigentime.
    """
    v = r * omega
    if not abs(v) < 1.0:
        raise ConfigError(f"circular worldline needs |r*omega| < 1, got {v}")
    g = 1.0 / np.sqrt(1.0 - v * v)
    w = omega * g  # angular frequency in eigentime
    return Worldline(
        label="circular",
        z=lambda tau: _fill(tau, g * tau, r * np.cos(w * tau), r * np.sin(w * tau), 0.0),
        zdot=lambda tau: _fill(tau, g, -r * w * np.sin(w * tau), r * w * np.cos(w * tau), 0.0),
        zddot=lambda tau: _fill(tau, 0.0, -r * w * w * np.cos(w * tau),
                                -r * w * w * np.sin(w * tau), 0.0),
    )


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
    label: str
    max_norm_residual: float
    max_ortho_residual: float
    min_zdot0: float
    worst_norm_tau: float
    worst_ortho_tau: float
    passed: bool
    failures: tuple

    def __str__(self):
        status = "pass" if self.passed else "fail"
        lines = [
            f"worldline {self.label}: {status}",
            f"  max |Zdot.Zdot - 1| = {self.max_norm_residual:.3e} at tau = {self.worst_norm_tau:g}",
            f"  max |Zdot.Zddot|    = {self.max_ortho_residual:.3e} at tau = {self.worst_ortho_tau:g}",
            f"  min Zdot0           = {self.min_zdot0:.6g}",
        ]
        lines += [f"  violated: {f}" for f in self.failures]
        return "\n".join(lines)


def validate_worldline(w, tau_grid):
    """Check eigentime normalization and orthogonality, each to 1e-10, and
    future-direction."""
    tol = 1e-10
    tau = np.asarray(tau_grid, dtype=float)
    if tau.size == 0:
        raise ValueError("tau_grid must be nonempty")
    zd = w.zdot(tau)
    zdd = w.zddot(tau)
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
    return WorldlineReport(
        label=w.label,
        max_norm_residual=float(norm_res.max()),
        max_ortho_residual=float(ortho_res.max()),
        min_zdot0=float(zdot0.min()),
        worst_norm_tau=float(tau[norm_res.argmax()]),
        worst_ortho_tau=float(tau[ortho_res.argmax()]),
        passed=not failures,
        failures=tuple(failures),
    )
