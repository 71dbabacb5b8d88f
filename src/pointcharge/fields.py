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
from .minkowski import METRIC, inner
from .retarded import _as_points, _neighbour_tau0, _solve_array, kinematics_arrays

def _phi(fam, kin, eps, e):
    return 0.5 * e * kin["R"] * fam.H(kin["xi"], eps)[..., None]


def phi_arrays(w, fam, X, eps, e=1.0, tau0=None):
    """Batched Phi; X has shape (..., 4); tau0 as in kinematics_arrays.

    Forms only R and xi at the retarded time, the two quantities Phi reads.
    """
    pts, _ = _as_points(X)
    tau = _solve_array(w, pts, tau0)
    R = pts - w.z(tau)
    return _phi(fam, {"R": R, "xi": inner(w.zdot(tau), R)}, eps, e)


def box_phi_arrays(w, fam, X, eps, e=1.0, kin=None):
    """Batched analytic d'Alembertian; returns (Lambda, Psi, total)."""
    if kin is None:
        kin = kinematics_arrays(w, X)
    xi, kappa = kin["xi"], kin["kappa"]
    need_shell = bool(np.any((xi > eps) & (xi < 2.0 * eps)))
    if need_shell and not fam.smooth:
        raise SmoothnessRequired(
            "xi falls inside the transition shell; H'' of a piecewise family "
            "is not a function"
        )
    H = fam.H(xi, eps)
    dH = fam.dH(xi, eps)
    d2H = fam.d2H(xi, eps) if need_shell else np.zeros_like(dH)
    lam = -e * kin["zdot"] / xi[..., None]
    coeff = e * ((3.0 * xi * kappa - 2.0) * dH + (xi * kappa - 0.5) * xi * d2H)
    psi = coeff[..., None] * kin["K"]
    total = lam * H[..., None] + psi
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


def box_phi_fd(w, fam, X, eps, h=None, e=1.0, kin=None):
    """d'Alembertian of Phi by central second differences (oracle path).

    kin holds the kinematics at X (solved here if not given).  Neighbour
    X +- h e_mu starts its solve from the second-order Taylor expansion of
    tau_r about X; the accepted root passes the cold solve's tests.
    """
    pts, _ = _as_points(X)
    if kin is None:
        kin = kinematics_arrays(w, pts)
    if h is None:
        h = fd_steps(pts, kin["xi"], eps)
    h = np.asarray(h, dtype=float) * np.ones(pts.shape[:-1])
    center = _phi(fam, kin, eps, e)
    total = np.zeros_like(pts)
    for mu in range(4):
        shift = np.zeros_like(pts)
        shift[..., mu] = h
        tau_plus, tau_minus = _neighbour_tau0(kin, mu, h)
        plus = phi_arrays(w, fam, pts + shift, eps, e, tau_plus)
        minus = phi_arrays(w, fam, pts - shift, eps, e, tau_minus)
        total += METRIC[mu] * (plus - 2.0 * center + minus) / (h * h)[..., None]
    return total


def static_phi(fam, r, eps, e=1.0):
    """Regularized Coulomb potential e*H_eps(r)/r (vectorized in r)."""
    r = np.asarray(r, dtype=float)
    return e * fam.H(r, eps) / r


def static_E_radial(fam, r, eps, e=1.0):
    """Radial component of E = -grad phi."""
    r = np.asarray(r, dtype=float)
    return e * (fam.H(r, eps) / (r * r) - fam.dH(r, eps) / r)


def static_rho(fam, r, eps, e=1.0):
    """Charge density from 4*pi*rho = div E = -e H''(r)/r."""
    r = np.asarray(r, dtype=float)
    return -e * fam.d2H(r, eps) / (4.0 * np.pi * r)
