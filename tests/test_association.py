import numpy as np
import pytest
from scipy.integrate import quad

from pointcharge import association
from pointcharge.association import (
    association_suite,
    bump_test_function,
    claim_charge_density,
    claim_heaviside,
    integral_of,
    psi_sup_values,
    radial_nodes,
    weak_limit,
)
from pointcharge.errors import NoTrend
from pointcharge.minkowski import boost_worldline, rest_worldline
from pointcharge.regularization import (
    bump_mollifier,
    geometric_grid,
    make_family,
    moderateness_slope,
    GeneralizedNet,
)

BUMP = make_family(bump_mollifier())
GRID = geometric_grid()
SHORT = geometric_grid(0.1, 0.5, 4)


def test_bump_test_function_support():
    phi = bump_test_function(3, np.zeros(3), 1.0)
    assert phi(np.zeros(3)) == pytest.approx(np.exp(-1.0))
    assert phi(np.array([1.0, 0.0, 0.0])) == 0.0
    assert phi(np.array([2.0, 0.0, 0.0])) == 0.0
    pts = np.random.default_rng(0).uniform(-0.99, 0.99, size=(50, 3))
    inside = np.linalg.norm(pts, axis=1) < 1
    assert np.all(phi(pts)[inside] > 0)


def test_bump_test_function_validates():
    with pytest.raises(ValueError):
        bump_test_function(3, np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        bump_test_function(3, np.zeros(3), -1.0)


def test_integral_of_matches_quad():
    phi = bump_test_function(1, 0.3, 2.0)
    ref, _ = quad(lambda t: float(phi(t)), -1.7, 2.3, epsabs=1e-13)
    # single-panel Gauss on a bump (essential singularity at the support
    # edges) converges, but not to quadrature precision
    assert integral_of(phi) == pytest.approx(ref, rel=1e-6)


def tensor_stack_integral(phi, n_gauss=40):
    """The full tensor-grid sum: phi evaluated on every one of n^d nodes."""
    x, w = np.polynomial.legendre.leggauss(n_gauss)
    d = phi.dimension
    axes = [phi.center[i] + phi.radius * x for i in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    vals = phi(np.stack(grids, axis=-1) if d > 1 else grids[0])
    wgrid = np.ones_like(vals)
    for i in range(d):
        shape = [1] * d
        shape[i] = n_gauss
        wgrid = wgrid * (phi.radius * w).reshape(shape)
    return float((vals * wgrid).sum())


@pytest.mark.parametrize("phi", [
    bump_test_function(4, np.array([3.0, 0.0, 0.0, 0.0]), 1.0),
    bump_test_function(4, np.array([0.3, -0.2, 0.1, 0.5]), 0.7,
                       poly=lambda y: 1.0 + y[..., 0] * y[..., 1] ** 2),
    bump_test_function(1, 0.3, 2.0, poly=lambda y: 1.0 + y ** 3),
], ids=["bump4", "poly4", "poly1"])
def test_integral_of_is_the_tensor_stack_sum(phi):
    # phi is evaluated inside its support ball only; the sum is unchanged
    assert integral_of(phi) == tensor_stack_integral(phi)


def test_radial_nodes_resolve_the_shell():
    nodes, wts = radial_nodes(0.1, 0.0, 0.5)
    # panel width <= eps/8 means at least 40 panels over [0, 0.5]
    assert nodes.size >= 40 * 4
    assert wts.sum() == pytest.approx(0.5, rel=1e-12)


def test_weak_limit_extrapolates_power_law():
    grid = GRID
    vals = 2.0 + 3.0 * grid ** 2
    res = weak_limit(vals, grid, 2.0)
    assert res.passed
    assert res.limit == pytest.approx(2.0, abs=1e-9)
    assert res.order == pytest.approx(2.0, abs=1e-6)


def test_weak_limit_flags_no_trend():
    grid = GRID
    vals = np.array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
    with pytest.raises(NoTrend):
        weak_limit(vals, grid, 1.5)


def test_weak_limit_noise_floor():
    grid = GRID
    vals = 5.0 + 1e-14 * np.random.default_rng(1).normal(size=grid.size)
    res = weak_limit(vals, grid, 5.0)
    assert res.passed
    assert res.order == np.inf


@pytest.mark.parametrize("vals, scale", [
    (2.0 + 3.0 * GRID ** 2, np.inf),
    (np.full(GRID.size, np.nan), None),
])
def test_weak_limit_never_passes_non_finite(vals, scale):
    assert not weak_limit(vals, GRID, 2.0, scale=scale).passed


def test_charge_density_pairs_to_point_charge():
    phi3 = bump_test_function(3, np.zeros(3), 1.0)
    res = claim_charge_density(BUMP, phi3, GRID, e=2.0)
    assert res.passed
    assert res.target == pytest.approx(2.0 * np.exp(-1.0))
    assert res.order == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("start", [0.06, 0.09, 0.1, 0.1045, 0.12])
def test_charge_density_limit_does_not_depend_on_grid_start(start):
    # the panel count on [0, 3 eps] must not hinge on how 3eps/(eps/8) rounds
    phi3 = bump_test_function(3, np.zeros(3), 1.0)
    res = claim_charge_density(BUMP, phi3, geometric_grid(start, 0.5, 4))
    assert res.passed
    assert abs(res.limit - res.target) <= 1e-4


def test_heaviside_pairs_to_lebesgue():
    w = rest_worldline()
    phi4 = bump_test_function(4, np.array([3.0, 0.0, 0.0, 0.0]), 1.0)
    res = claim_heaviside(w, BUMP, phi4, SHORT)
    assert res.passed
    assert res.target == pytest.approx(integral_of(phi4))


def test_suite_subset_selection():
    w = rest_worldline()
    rep = association_suite(w, BUMP, SHORT, claims=("charge_density",))
    assert set(rep.results) == {"charge_density"}
    with pytest.raises(ValueError):
        association_suite(w, BUMP, SHORT, claims=("bogus",))


def test_suite_evaluates_phi_and_psi_once_per_grid(monkeypatch):
    phi_calls, psi_calls = [], []

    class CountingTestFunction(association.TestFunction):
        def __call__(self, x):
            phi_calls.append(np.shape(x))
            return super().__call__(x)

    w = rest_worldline()
    phi4 = CountingTestFunction(dimension=4, center=np.array([3.0, 0.0, 0.0, 0.0]),
                                radius=1.0)
    box_phi_arrays = association.box_phi_arrays

    def counting_box_phi(*args, **kwargs):
        psi_calls.append(1)
        return box_phi_arrays(*args, **kwargs)

    monkeypatch.setattr(association, "box_phi_arrays", counting_box_phi)
    rep = association_suite(w, BUMP, SHORT, phi4=phi4)
    assert rep.passed, str(rep)
    # one call from integral_of (on the nodes inside the ball), one per grid
    assert phi_calls.count((196608, 4)) == SHORT.size
    assert len(phi_calls) == SHORT.size + 1
    assert len(psi_calls) == SHORT.size


def test_full_suite_boost():
    rep = association_suite(boost_worldline(0.6), BUMP, SHORT)
    assert rep.passed, str(rep)
    assert set(rep.results) == {"heaviside", "psi_0", "psi_1", "psi_2",
                                "psi_3", "box_minus_lw"}


def test_psi_sup_diverges_like_inverse_eps():
    # sup |Psi| ~ H' ~ xi*H'' ~ 1/eps: nonzero as a net, vanishing weakly
    w = rest_worldline()
    vals = psi_sup_values(w, BUMP, GRID)
    net = GeneralizedNet(eps=GRID, payloads=tuple(vals))
    slope = moderateness_slope(net, abs)
    assert slope == pytest.approx(-1.0, abs=0.1)
    assert np.all(vals > 0)
