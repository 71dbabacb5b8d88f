"""Oracles that only the tests use, kept out of the package."""

import numpy as np

from pointcharge.fields import _psi
from pointcharge.retarded import kinematics_arrays


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
