"""Generating function Phi, its d'Alembertian, and the rest-frame statics.

Phi_a(X) = (e/2) * R_a * H_eps(xi) evaluated at the retarded time.  Its
wave operator splits into the Lienard-Wiechert part Lambda_a = -e Zdot_a/xi
times H(xi), plus a shell-supported remainder

    Psi_a = e K_a * ((3 xi kappa - 2) H'(xi) + (xi kappa - 1/2) xi H''(xi)).

The H'' coefficient follows from (grad xi).(grad xi) = 2 xi kappa - 1
(grad xi = Zdot + (xi kappa - 1) K, with K null and K.Zdot = 1); the
finite-difference cross-check below converges to this coefficient and
not to the variant with (xi kappa - 1).

All components are stored contravariant; the d'Alembertian acts on the
coordinates as d0^2 - d1^2 - d2^2 - d3^2.
"""

import numpy as np

from .errors import SmoothnessRequired
from .minkowski import METRIC
from .retarded import _as_points, kinematics_arrays

def _phi(fam, R, xi, eps, e):
    return 0.5 * e * R * fam.H(xi, eps)[..., None]


def phi_arrays(w, fam, X, eps, e=1.0):
    """Batched Phi from kinematics_arrays at X of shape (..., 4)."""
    kin = kinematics_arrays(w, X)
    return _phi(fam, kin["R"], kin["xi"], eps, e)


def _psi(fam, kin, eps, e, per_xi=None):
    """Psi from the kinematics kin, under kinematics_arrays' keys; per_xi(f,
    eps) gives f(xi, eps) at kin's points (f(kin["xi"], eps) by default), so
    a grid with few xi values evaluates H' and H'' once per value."""
    xi, kappa = kin["xi"], kin["kappa"]
    per_xi = per_xi or (lambda f, eps: f(xi, eps))
    need_shell = bool(np.any((xi > eps) & (xi < 2.0 * eps)))
    if need_shell and not fam.smooth:
        raise SmoothnessRequired(
            "xi falls inside the transition shell; H'' of a piecewise family "
            "is not a function"
        )
    dH = per_xi(fam.dH, eps)
    d2H = per_xi(fam.d2H, eps) if need_shell else np.zeros_like(dH)
    coeff = e * ((3.0 * xi * kappa - 2.0) * dH + (xi * kappa - 0.5) * xi * d2H)
    return coeff[..., None] * kin["K"]


def box_phi_arrays(w, fam, X, eps, e=1.0, kin=None):
    """Batched analytic d'Alembertian; returns (Lambda, Psi, total)."""
    if kin is None:
        kin = kinematics_arrays(w, X)
    psi = _psi(fam, kin, eps, e)
    lam = -e * kin["zdot"] / kin["xi"][..., None]
    total = lam * fam.H(kin["xi"], eps)[..., None] + psi
    return lam, psi, total


def fd_steps(X, xi, eps):
    """Per-point step for the 9-point stencil: eps/40 inside the widened
    shell, 1e-3*|X| far away, and in between small enough that the stencil
    cannot reach back into the transition shell (the light-cone distance
    moves by at most a few step lengths across the stencil)."""
    X = np.asarray(X, dtype=float)
    scale = np.maximum(1.0, np.linalg.norm(X, axis=-1))
    return np.minimum(5e-4 * scale,
                      np.maximum(eps / 40.0, (xi - 2.0 * eps) / 20.0))


# the 8 central-difference shifts +e_mu then -e_mu, mu = 0..3
_SHIFTS = np.concatenate([np.eye(4), -np.eye(4)])


def box_phi_fd(w, fam, X, eps, h=None, e=1.0):
    """d'Alembertian of Phi by central second differences (oracle path).

    The 8 neighbours X +- h e_mu of every point form one (..., 8, 4) array,
    and Phi there is one phi_arrays call, so each neighbour is solved as
    kinematics_arrays solves any point: from the certified root plus its
    last Newton step, with R and xi formed at that stepped root.
    """
    pts = _as_points(X)
    kin = kinematics_arrays(w, pts)
    if h is None:
        h = fd_steps(pts, kin["xi"], eps)
    h = np.asarray(h, dtype=float) * np.ones(pts.shape[:-1])
    twice_center = 2.0 * _phi(fam, kin["R"], kin["xi"], eps, e)
    shifted = phi_arrays(w, fam, pts[..., None, :] + h[..., None, None] * _SHIFTS,
                         eps, e)
    hh = (h * h)[..., None]
    total = np.zeros_like(pts)
    for mu in range(4):
        plus, minus = shifted[..., mu, :], shifted[..., 4 + mu, :]
        total += METRIC[mu] * (plus - twice_center + minus) / hh
    return total


def static_rho(fam, r, eps, e=1.0):
    """Charge density from 4*pi*rho = div E = -e H''(r)/r."""
    r = np.asarray(r, dtype=float)
    return -e * fam.d2H(r, eps) / (4.0 * np.pi * r)
