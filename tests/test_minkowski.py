import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointcharge.errors import ConfigError
from pointcharge.minkowski import (
    METRIC,
    boost_worldline,
    catalog,
    circular_worldline,
    hyperbolic_worldline,
    inner,
    parse_worldline,
    rest_worldline,
    validate_worldline,
)
from pointcharge import minkowski
from oracles import lower, row_major_jet, same_bits, turned

TAU_GRID = np.linspace(-5.0, 5.0, 401)

# the catalog and the fast or strongly accelerated worldlines the suite
# also runs on
WORLDLINES = catalog() + [
    hyperbolic_worldline(-1.0), hyperbolic_worldline(5.0),
    boost_worldline(0.9998979539769781), circular_worldline(1.0, 0.9),
]
WORLDLINE_IDS = ["rest", "boost", "hyperbolic", "circular", "hyperbolic-1",
                 "hyperbolic5", "boost-gamma70", "circular0.9"]


@pytest.mark.parametrize("turn", [False, True], ids=["", "turned"])
@pytest.mark.parametrize("w", WORLDLINES, ids=WORLDLINE_IDS)
def test_jets_are_component_contiguous_with_row_major_bits(w, turn, monkeypatch):
    # every component z[..., k] of a jet is contiguous, on 1-d, 2-d and
    # 0-d eigentimes and each order, and the values are those of
    # zero-filled row-major jets bit for bit
    if turn:
        w = turned(w)
    taus = [np.linspace(-2.0, 2.0, 101), np.linspace(-1.0, 3.0, 24).reshape(4, 6),
            np.asarray(0.7)]
    jets = [w.jet(tau, order) for tau in taus for order in (0, 1, 2)]
    assert [len(jet) for jet in jets] == [1, 2, 3] * len(taus)
    assert all(j[..., k].flags.c_contiguous for jet in jets for j in jet
               for k in range(4))
    monkeypatch.setattr(minkowski, "_jet", row_major_jet)
    ref = [w.jet(tau, order) for tau in taus for order in (0, 1, 2)]
    assert all(same_bits(a, b) for jet, rj in zip(jets, ref)
               for a, b in zip(jet, rj))


def test_metric_signature():
    assert np.array_equal(METRIC, [1.0, -1.0, -1.0, -1.0])


def test_inner_known_values():
    assert inner([1, 0, 0, 0], [1, 0, 0, 0]) == 1.0
    assert inner([0, 1, 0, 0], [0, 1, 0, 0]) == -1.0
    # a null vector
    assert inner([1, 1, 0, 0], [1, 1, 0, 0]) == 0.0


def test_lower_is_involutive():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(lower(lower(a)), a)
    assert np.array_equal(lower(a), [1.0, -2.0, -3.0, -4.0])


def test_inner_broadcasts():
    a = np.ones((5, 4))
    b = np.ones((4,))
    assert inner(a, b).shape == (5,)


def test_inner_on_single_vectors():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.full(4, 0.5)
    assert np.ndim(inner(a, a)) == 0
    assert inner(a, a) == pytest.approx(1 - 4 - 9 - 16)
    assert inner(a + b, b) == pytest.approx(inner(a, b) + inner(b, b))
    assert inner(2.0 * a, a - b) == pytest.approx(2.0 * (inner(a, a) - inner(a, b)))
    assert inner(a, (1.0, 0.0, 0.0, 0.0)) == 1.0


@pytest.mark.parametrize("w", catalog(), ids=lambda w: w.label)
def test_catalog_eigentime_normalized(w):
    rep = validate_worldline(w, TAU_GRID)
    assert rep.passed, str(rep)


def test_rest_worldline_is_time_axis():
    w = rest_worldline()
    z = w.z(TAU_GRID)
    assert np.array_equal(z[:, 0], TAU_GRID)
    assert np.all(z[:, 1:] == 0)


def test_boost_worldline_velocity():
    w = boost_worldline(0.6)
    gamma = 1.25
    z = w.z(np.asarray(2.0))
    assert z[0] == pytest.approx(gamma * 2.0)
    assert z[1] == pytest.approx(gamma * 0.6 * 2.0)
    # coordinate velocity dx/dt = v
    zd = w.zdot(np.asarray(2.0))
    assert zd[1] / zd[0] == pytest.approx(0.6)


def test_hyperbolic_worldline_invariant():
    # constant proper acceleration: Zddot.Zddot = -a^2
    w = hyperbolic_worldline(1.0)
    zdd = w.zddot(TAU_GRID)
    assert np.allclose(inner(zdd, zdd), -1.0, atol=1e-12)


def test_circular_worldline_radius():
    w = circular_worldline(1.0, 0.5)
    z = w.z(TAU_GRID)
    r = np.linalg.norm(z[:, 1:3], axis=-1)
    assert np.allclose(r, 1.0, atol=1e-12)


@given(v=st.floats(min_value=-0.95, max_value=0.95))
@settings(max_examples=30, deadline=None)
def test_boost_normalized_for_any_speed(v):
    rep = validate_worldline(boost_worldline(v), np.linspace(-2, 2, 41))
    assert rep.passed


@pytest.mark.parametrize("spec,label", [
    ("rest", "rest"),
    ("boost(0.6)", "boost"),
    ("hyperbolic(1.0)", "hyperbolic"),
    ("circular(1.0, 0.5)", "circular"),
])
def test_parse_worldline(spec, label):
    assert parse_worldline(spec).label == label


@pytest.mark.parametrize("spec", ["warp(9)", "boost()", "boost(a)", "circular(1)"])
def test_parse_worldline_rejects_bad_specs(spec):
    with pytest.raises(ConfigError):
        parse_worldline(spec)


def test_validate_catches_bad_parametrization():
    # coordinate-time parametrization of a moving charge is not eigentime
    from pointcharge.minkowski import Worldline, _jet

    bad = Worldline(
        label="coordinate-time",
        jet=lambda t, order=2: _jet(t, order, lambda: (t, 0.6 * t),
                                    lambda: (1.0, 0.6), lambda: ()),
        tau_at=lambda t: t,
    )
    rep = validate_worldline(bad, TAU_GRID)
    assert not rep.passed


def test_validate_catches_a_bad_lab_time_inverse():
    from pointcharge.minkowski import Worldline

    w = boost_worldline(0.6)
    bad = Worldline(label="boost", jet=w.jet, tau_at=lambda t: w.tau_at(t) + 1e-6)
    rep = validate_worldline(bad, TAU_GRID)
    assert not rep.passed
    assert len(rep.failures) == 1 and "tau_at" in rep.failures[0]


@pytest.mark.parametrize("w", WORLDLINES, ids=WORLDLINE_IDS)
@pytest.mark.parametrize("shape", [(), (7, 3)], ids=["0d", "7x3"])
def test_jet_matches_the_evaluators(w, shape):
    tau = np.random.default_rng(11).uniform(-3.0, 3.0, size=shape)
    for order in range(3):
        jet = w.jet(tau, order)
        assert len(jet) == order + 1
        for got, evaluator in zip(jet, (w.z, w.zdot, w.zddot)):
            assert got.shape == shape + (4,)
            assert np.array_equal(got, evaluator(tau))
    assert len(w.jet(tau)) == 3


@pytest.mark.parametrize("w", WORLDLINES, ids=WORLDLINE_IDS)
def test_tau_at_inverts_lab_time(w):
    tau = np.linspace(-5.0, 5.0, 1001)
    back = w.tau_at(w.z(tau)[..., 0])
    assert np.all(np.abs(back - tau) <= 1e-12 * np.maximum(1.0, np.abs(tau)))
    # a 0-d lab time gives a 0-d eigentime
    assert np.ndim(w.tau_at(np.asarray(2.0))) == 0
    assert float(w.tau_at(w.z(np.asarray(2.0))[0])) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("idx", [[], [3, 0, 3, 7], list(range(10))],
                         ids=["empty", "repeated", "all"])
def test_row_gather_has_the_bits_of_fancy_indexing(idx):
    # on a row-major and a component-major A, gathered component-major;
    # laying out points that are component-major already copies nothing
    A = np.random.default_rng(3).normal(size=(10, 4))
    idx = np.asarray(idx, dtype=np.intp)
    for B in (A, np.ascontiguousarray(A.T).T):
        got = minkowski._rows(B, idx)
        assert same_bits(got, B[idx]) and got.T.flags.c_contiguous
        laid = minkowski._component_major(B)
        assert same_bits(laid, A) and laid.T.flags.c_contiguous
    assert np.shares_memory(laid, B)
