import numpy as np
import pytest
from scipy.integrate import quad

from pointcharge.errors import SmoothnessRequired
from pointcharge.fields import (
    _phi,
    box_phi_arrays,
    box_phi_fd,
    fd_steps,
    phi_arrays,
    static_rho,
)
from pointcharge.minkowski import (
    boost_worldline,
    catalog,
    hyperbolic_worldline,
    rest_worldline,
)
from pointcharge.regularization import (
    Mollifier,
    boxcar_mollifier,
    bump_mollifier,
    make_family,
)
from pointcharge.retarded import kinematics_arrays
from oracles import same_bits, static_E_radial, static_phi

BUMP = make_family(bump_mollifier())
BOX = make_family(boxcar_mollifier())
RNG = np.random.default_rng(7)


def shell_points(w, eps, n, lo=1.1, hi=1.9, t_window=(0.5, 2.0), rng=RNG):
    """Points whose retarded distance xi lies in [lo*eps, hi*eps].

    Radii are iterated toward the target xi (xi ~ r up to the Doppler
    factor, which is bounded for the catalog worldlines), then filtered.
    """
    target = rng.uniform(lo * eps, hi * eps, size=4 * n)
    tau = rng.uniform(*t_window, size=4 * n)
    d = rng.normal(size=(4 * n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    z = w.z(tau)
    rad = target.copy()
    for _ in range(60):
        X = np.concatenate([(z[:, 0] + 1.3 * rad)[:, None],
                            z[:, 1:] + rad[:, None] * d], axis=1)
        xi = kinematics_arrays(w, X)["xi"]
        rad = rad * np.clip(np.sqrt(target / xi), 0.5, 2.0)
    keep = (xi >= lo * eps) & (xi <= hi * eps)
    pts = X[keep][:n]
    assert pts.shape[0] >= n // 2, "could not place enough shell points"
    return pts


def outside_points(w, eps, n, t_window=(0.5, 2.0)):
    tau = RNG.uniform(*t_window, size=n)
    d = RNG.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    r = RNG.uniform(8.0 * eps, 1.5, size=n)
    z = w.z(tau)
    return np.concatenate([(z[:, 0] + 1.3 * r)[:, None],
                           z[:, 1:] + r[:, None] * d], axis=1)


def test_phi_rest_frame_closed_form():
    # at rest, Phi = (e/2) * (r, x) * H(r)/r evaluated on the light cone
    w = rest_worldline()
    eps, e = 0.05, 2.0
    x = np.array([0.3, -0.2, 0.1])
    r = np.linalg.norm(x)
    X = np.concatenate([[3.0], x])
    phi = phi_arrays(w, BUMP, X, eps, e)
    H = BUMP.H(r, eps)
    # tolerance reflects the retarded-solver stopping rule, not roundoff
    assert phi.shape == (4,)
    assert phi[0] == pytest.approx(0.5 * e * r * H, rel=1e-9)
    assert np.allclose(phi[1:], 0.5 * e * x * H, rtol=1e-9)


def test_phi_scales_linearly_in_charge():
    w = catalog()[3]
    pts = outside_points(w, 0.05, 10)
    one = phi_arrays(w, BUMP, pts, 0.05, 1.0)
    three = phi_arrays(w, BUMP, pts, 0.05, 3.0)
    assert np.allclose(three, 3.0 * one, rtol=1e-13)


def test_box_phi_outside_shell_is_lienard_wiechert():
    # above the shell H = 1, H' = H'' = 0: box Phi = Lambda = -e Zdot/xi
    w = catalog()[1]
    eps = 0.05
    pts = outside_points(w, eps, 20)
    k = kinematics_arrays(w, pts)
    lam, psi, tot = box_phi_arrays(w, BUMP, pts, eps)
    assert np.all(psi == 0)
    expect = -w.zdot(k["tau_r"]) / k["xi"][:, None]
    assert np.allclose(tot, expect, rtol=1e-12)


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_analytic_box_phi_matches_fd_outside(w):
    eps = 0.05
    pts = outside_points(w, eps, 30)
    _, _, tot = box_phi_arrays(w, BUMP, pts, eps)
    fd = box_phi_fd(w, BUMP, pts, eps)
    rel = np.abs(fd - tot).max(axis=-1) / np.maximum(np.abs(tot).max(axis=-1), 1.0)
    assert rel.max() <= 1e-4


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_analytic_box_phi_matches_fd_in_shell(w):
    # criterion 3's step: the gap falls 4x per halving of h, and over
    # default_rng seeds 0-39 it broke the bound on 28 at eps/320 (worst
    # 4.9e-3, hyperbolic) and on none at eps/1280 (worst 3.0e-4); a local
    # generator makes the points independent of the tests run before
    eps = 0.05
    pts = shell_points(w, eps, 30, rng=np.random.default_rng(110))
    _, _, tot = box_phi_arrays(w, BUMP, pts, eps)
    fd = box_phi_fd(w, BUMP, pts, eps, h=eps / 1280.0)
    rel = np.abs(fd - tot).max(axis=-1) / np.maximum(np.abs(tot).max(axis=-1), 1.0)
    assert rel.max() <= 1e-3


def stencil(phi, pts, h):
    """Reference 9-point d'Alembertian of a callable phi(X) -> (..., 4)."""
    center = phi(pts)
    total = np.zeros_like(center)
    for mu, sign in enumerate((1.0, -1.0, -1.0, -1.0)):
        shift = np.zeros_like(pts)
        shift[:, mu] = h
        total += sign * (phi(pts + shift) - 2.0 * center
                         + phi(pts - shift)) / (h * h)[:, None]
    return total


def rel_gap(a, b):
    return (np.abs(a - b).max(axis=-1)
            / np.maximum(np.abs(b).max(axis=-1), 1.0)).max()


def test_stencil_matches_closed_form_stencil_at_rest():
    # at rest tau_r = X0 - |x|, R = (|x|, x) and xi = |x|
    w = rest_worldline()
    eps = 0.05
    pts = np.concatenate([shell_points(w, eps, 20), outside_points(w, eps, 20)])
    h = fd_steps(pts, kinematics_arrays(w, pts)["xi"], eps)

    def closed(X):
        r = np.linalg.norm(X[:, 1:], axis=-1)
        R = np.concatenate([r[:, None], X[:, 1:]], axis=1)
        return 0.5 * R * BUMP.H(r, eps)[:, None]

    assert rel_gap(box_phi_fd(w, BUMP, pts, eps), stencil(closed, pts, h)) <= 1e-6


def test_stencil_keeps_the_leading_shape():
    w = catalog()[1]
    eps = 0.05
    pts = outside_points(w, eps, 20)
    flat = box_phi_fd(w, BUMP, pts, eps, h=eps / 40.0)
    grid = box_phi_fd(w, BUMP, pts.reshape(2, 10, 4), eps, h=eps / 40.0)
    assert grid.shape == (2, 10, 4)
    assert np.array_equal(grid, flat.reshape(2, 10, 4))
    single = box_phi_fd(w, BUMP, pts[3], eps, h=eps / 40.0)
    assert single.shape == (4,) and np.array_equal(single, flat[3])


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_phi_arrays_matches_full_kinematics(w):
    # phi_arrays forms Phi from the R and xi of kinematics_arrays, as
    # box_phi_fd forms it at its centre
    eps, e = 0.05, 1.5
    pts = np.concatenate([shell_points(w, eps, 10), outside_points(w, eps, 10)])
    kin = kinematics_arrays(w, pts)
    assert np.array_equal(phi_arrays(w, BUMP, pts, eps, e),
                          _phi(BUMP, kin["R"], kin["xi"], eps, e))


@pytest.mark.parametrize("w", catalog() + [boost_worldline(0.999),
                                        hyperbolic_worldline(5.0)],
                         ids=["rest", "boost", "hyperbolic", "circular",
                              "boost0.999", "hyperbolic5"])
def test_results_do_not_depend_on_the_points_layout(w):
    # the solver lays its points out component-major itself, so a
    # row-major X, its component-major copy and (k, m, 4) reshapes of
    # both give every array the same bits; 48 points in the shell and 48
    # out to 1.5, about z(tau) for tau in [0, 0.3]
    eps, rng = 0.1, np.random.default_rng(2026)
    tau = rng.uniform(0.0, 0.3, 48)
    d = rng.normal(size=(48, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    r = rng.uniform(3.0 * eps, 1.5, 48)
    z = w.z(tau)
    far = np.concatenate([(z[:, 0] + 1.3 * r)[:, None],
                          z[:, 1:] + r[:, None] * d], axis=1)
    X = np.concatenate([shell_points(w, eps, 48, t_window=(0.0, 0.3), rng=rng),
                        far])
    n = len(X)
    cm = np.ascontiguousarray(X.T).T

    def results(X):
        kin = kinematics_arrays(w, X)
        return ([kin[k] for k in sorted(kin)]
                + [phi_arrays(w, BUMP, X, eps)]
                + list(box_phi_arrays(w, BUMP, X, eps))
                + [box_phi_fd(w, BUMP, X, eps)])

    ref = results(X)
    for Y in (cm, X.reshape(4, -1, 4), cm.reshape(4, -1, 4)):
        got = results(Y)
        assert all(same_bits(a.reshape((n,) + a.shape[Y.ndim - 1:]), b)
                   for a, b in zip(got, ref))


def test_second_derivative_coefficient_sign():
    # the H'' weight is (xi*kappa - 1/2)*xi; at rest (kappa = 0) the
    # remainder is e*K*(-2H' - xi H''/2), which the FD oracle resolves
    w = rest_worldline()
    eps = 0.05
    pts = shell_points(w, eps, 10)
    k = kinematics_arrays(w, pts)
    _, psi, _ = box_phi_arrays(w, BUMP, pts, eps)
    xi = k["xi"]
    coeff = -2.0 * BUMP.dH(xi, eps) - 0.5 * xi * BUMP.d2H(xi, eps)
    assert np.allclose(psi, coeff[:, None] * k["K"], rtol=1e-12)


def test_piecewise_family_refused_in_shell():
    w = rest_worldline()
    X = (3.0, 0.075, 0.0, 0.0)  # xi = 0.075 inside the shell for eps = 0.05
    with pytest.raises(SmoothnessRequired):
        box_phi_arrays(w, BOX, X, 0.05)
    # outside the shell the boxcar family is fine (H'' plateau is 0)
    lam, psi, tot = box_phi_arrays(w, BOX, (3.0, 0.5, 0.0, 0.0), 0.05)
    assert psi.shape == (4,) and np.all(psi == 0)


def test_mollifier_without_derivative_is_refused_in_shell():
    # smoothness is read off chi_prime, so no family can claim an H'' it
    # cannot evaluate
    fam = make_family(Mollifier(chi=boxcar_mollifier().chi, chi_prime=None))
    with pytest.raises(SmoothnessRequired):
        box_phi_arrays(rest_worldline(), fam, (3.0, 0.075, 0.0, 0.0), 0.05)


def test_static_coulomb_tail():
    eps, e = 0.1, 1.5
    r = np.linspace(0.25, 2.0, 40)
    assert np.allclose(static_phi(BUMP, r, eps, e), e / r, rtol=1e-12)
    assert np.allclose(static_E_radial(BUMP, r, eps, e), e / r ** 2, rtol=1e-12)
    # inside the core the potential vanishes
    assert np.all(static_phi(BUMP, np.linspace(0.01, 0.09, 9), eps, e) == 0)


def test_static_field_struct():
    r = np.array([0.3])
    assert static_phi(BUMP, r, 0.1, 1.0)[0] == pytest.approx(1.0 / 0.3)
    # outside the shell there is no charge; rho needs H'', which boxcar lacks
    assert static_rho(BUMP, r, 0.1, 1.0)[0] == 0.0
    with pytest.raises(SmoothnessRequired):
        static_rho(BOX, r, 0.1, 1.0)


def test_static_charge_normalization():
    # int rho over R^3 = e, by radial quadrature over the shell
    eps, e = 0.05, 2.0
    total, _ = quad(lambda r: 4 * np.pi * r ** 2 * static_rho(BUMP, r, eps, e),
                    eps, 2 * eps, epsabs=0.0, epsrel=1e-12, limit=200)
    assert total == pytest.approx(e, rel=1e-10)

