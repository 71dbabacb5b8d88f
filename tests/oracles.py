"""Oracles that only the tests use, kept out of the package."""

from dataclasses import dataclass

import numpy as np

from pointcharge.errors import PointChargeError
from pointcharge.fields import _SHIFTS, _psi, static_rho
from pointcharge import minkowski
from pointcharge.minkowski import METRIC, Worldline, _dot
from pointcharge.regularization import bump, gauss_panels
from pointcharge.retarded import _as_points, kinematics_arrays


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def row_major_jet(tau, order, *rows):
    """minkowski._jet with each jet a zero-filled C-ordered array of shape
    shape(tau) + (4,), filled a component at a time: the reference for the
    values of the component-major jets."""
    jet = []
    for row in rows[:order + 1]:
        jet.append(np.zeros(np.shape(tau) + (4,)))
        for i, c in enumerate(row()):
            jet[-1][..., i] = c
    return tuple(jet)


def turned(w):
    """w with its spatial axes turned, so that no component of its
    velocity or acceleration vanishes and the order of a component sum
    shows in its bits.  Each turned component is a sum left to right,
    and the jet is built by minkowski._jet, so it has _jet's layout."""
    q, _ = np.linalg.qr(np.random.default_rng(2030).normal(size=(3, 3)))

    def turn(j):
        return (j[..., 0], *(j[..., 1] * q[i, 0] + j[..., 2] * q[i, 1]
                             + j[..., 3] * q[i, 2] for i in range(3)))

    def jet(tau, order=2):
        rows = [lambda j=j: turn(j) for j in w.jet(tau, order)]
        return minkowski._jet(tau, order, *rows)

    return Worldline(w.label, jet, w.tau_at)


def lower(a):
    """Lower the index: componentwise metric application g_{mu nu} a^nu."""
    return METRIC * np.asarray(a, dtype=float)


def bump_1d(center, radius, poly=None):
    """The 1D bump exp(-1/(1-y^2)), y = (t - center)/radius, times poly(y)
    inside its support (default 1): a scalar t gives a float."""

    def phi(t):
        y = (np.asarray(t, dtype=float) - center) / radius
        u = y * y
        out = bump(u)
        if poly is not None:
            mask = u < 1.0
            out[mask] *= poly(y[mask])
        return float(out) if np.ndim(t) == 0 else out

    return phi


def bump_1d_integral(radius):
    """int of bump_1d(center, radius) without a poly factor, as
    2 radius int_0^1 exp(-1/(1-s^2)) ds on 32 panels of 16 Gauss-Legendre
    nodes, the radial rule of association.integral_of."""
    s, half, w = gauss_panels(np.linspace(0.0, 1.0, 33), 16)
    return float(2.0 * radius * (bump(s * s) * half * w).sum())


def bump_3d_on_axis(r):
    """The unit 3D bump at the origin at the points r (0, 0, 1), with |x|^2
    summed over all three components by _dot."""
    x = np.asarray(r, dtype=float)[..., None] * np.array([0.0, 0.0, 1.0])
    return bump(_dot(x, x))


def charge_density_pairings(fam, eps_grid, e=1.0):
    """Claim (a)'s pairings 4 pi int rho_eps phi r^2 dr on its shell rule
    and its target e phi(0), with phi the unit 3D bump evaluated on the z
    axis (bump_3d_on_axis)."""
    s, half, w = gauss_panels(np.linspace(1.0, 2.0, 9), 8)
    s, ws = s.ravel(), (half * w).ravel()
    vals = []
    for eps in eps_grid:
        r = eps * s
        rho_phi = static_rho(fam, r, eps, e) * bump_3d_on_axis(r)
        vals.append(4.0 * np.pi * float((rho_phi * r * r * eps * ws).sum()))
    return vals, e * float(bump_3d_on_axis(0.0))


def psi_sup_values(w, fam, eps_grid, e=1.0):
    """sup over a shell sample of max-component |Psi_eps|, per eps.

    Sample points sit on 200 rays from the worldline point at eigentime 1,
    with radii covering the transition shell.
    """
    rng = np.random.default_rng(20260823)
    dirs = rng.normal(size=(200, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    out = []
    z = w.z(np.asarray(1.0))
    for eps in eps_grid:
        radii = np.linspace(0.3 * eps, 4.0 * eps, 80)
        pts = np.empty((dirs.shape[0], radii.size, 4))
        pts[..., 0] = z[0] + 1.5 * eps
        pts[..., 1:] = z[1:] + radii[None, :, None] * dirs[:, None, :]
        psi = _psi(fam, kinematics_arrays(w, pts), eps, e)
        out.append(float(np.abs(psi).max()))
    return np.array(out)


def _neighbour_kinematics(w, X, h):
    """kinematics_arrays at the 8 neighbours X +- h e_mu, as (..., 8) arrays
    ordered as fields._SHIFTS: +e_0..+e_3, then -e_0..-e_3."""
    pts = _as_points(X)
    return kinematics_arrays(w, pts[..., None, :] + h * _SHIFTS)


def grad_tau_check(w, X, h=1e-4):
    """Max componentwise gap between central differences of tau_r and K.

    The analytic gradient with respect to the coordinates X^mu is the
    lowered K vector; the finite-difference error is O(h^2).
    """
    K_low = lower(kinematics_arrays(w, X)["K"])
    tau = _neighbour_kinematics(w, X, h)["tau_r"]
    fd = (tau[..., :4] - tau[..., 4:]) / (2 * h)
    return float(np.abs(fd - K_low).max())


def grad_xi(w, X):
    """Analytic gradient of the retarded distance.

    Returned contravariant, G = Zdot + (xi*kappa - 1) K, so that
    d(xi)/dX^mu equals the lowered components of G.  Never zero.
    """
    k = kinematics_arrays(w, X)
    return k["zdot"] + (k["xi"] * k["kappa"] - 1.0)[..., None] * k["K"]


def div_K_fd(w, X, h=1e-4):
    """Coordinate divergence sum_mu dK^mu/dX^mu by central differences."""
    K = _neighbour_kinematics(w, X, h)["K"]
    total = 0.0
    for mu in range(4):
        total = total + (K[..., mu, mu] - K[..., 4 + mu, mu]) / (2 * h)
    return total


def static_phi(fam, r, eps, e=1.0):
    """Regularized Coulomb potential e*H_eps(r)/r (vectorized in r)."""
    r = np.asarray(r, dtype=float)
    return e * fam.H(r, eps) / r


def static_E_radial(fam, r, eps, e=1.0):
    """Radial component of E = -grad phi."""
    r = np.asarray(r, dtype=float)
    return e * (fam.H(r, eps) / (r * r) - fam.dH(r, eps) / r)


class DegenerateNet(PointChargeError):
    """A seminorm value vanished; the net is negligible at machine precision."""


@dataclass(frozen=True)
class GeneralizedNet:
    """eps-indexed net of payloads on a strictly decreasing grid in (0, 1]."""

    eps: np.ndarray
    payloads: tuple

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        if np.any(eps <= 0) or np.any(eps > 1):
            raise ValueError("eps grid must lie in (0, 1]")
        if np.any(np.diff(eps) >= 0):
            raise ValueError("eps grid must be strictly decreasing")
        object.__setattr__(self, "eps", eps)
        if len(self.payloads) != eps.size:
            raise ValueError("one payload per eps required")


def moderateness_slope(net: GeneralizedNet, seminorm):
    """Least-squares slope of log p(u_eps) against log eps.

    A slope of -N estimates the moderateness exponent of the net.
    """
    if net.eps.size < 4:
        raise ValueError("need at least 4 grid points for a slope estimate")
    p = np.array([float(seminorm(u)) for u in net.payloads])
    if np.any(p == 0.0):
        raise DegenerateNet("negligible at machine precision")
    slope, _ = np.polyfit(np.log(net.eps), np.log(p), 1)
    return float(slope)
