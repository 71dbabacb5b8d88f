"""Re-measure the reference figures that perfbench/README.md quotes.

    python3 perfbench/reference.py solver    # cold solve vs bisection, 1e5 points
    python3 perfbench/reference.py renorm    # mass_renormalize per call
    python3 perfbench/reference.py suite6    # 6-eps association suite (~90 s)

Run from the root of a checkout, one section per process (suite6 reports
the peak RSS of its own process).  Prints one JSON object.
"""

import json
import resource
import sys
import time

import numpy as np

import run

modules = dict(zip(run.MODULES, run.import_program()))
from spans import Tracer   # noqa: E402

POINTS = 100_000
SUBSET = 20_000


def _points(label, rng):
    X = np.empty((POINTS, 4))
    X[:, 0] = rng.uniform(2.5, 6.0, POINTS)
    X[:, 1:] = rng.uniform(-4.0, 4.0, (POINTS, 3))
    if label == "hyperbolic":
        X[:, 1] = np.abs(X[:, 1]) + 1.0
    return X


def _main_loop_iterates(calls):
    """The tau iterates of the safeguarded Newton loop, read off the
    worldline calls (each iteration evaluates z(tau) twice, then zdot(tau)),
    followed by the returned tau (the last z call)."""
    taus = []
    for (f1, a1), (f2, a2), (f3, a3) in zip(calls, calls[1:], calls[2:]):
        if (f1, f2, f3) == ("z", "z", "zdot") and a1 is a2 is a3:
            taus.append(a1)
    return taus + [next(t for f, t in reversed(calls) if f == "z")]


def solver():
    """us per point for the cold solve and the bisection oracle at 1e5
    points, and, on a 2e4-point subset, worldline evaluations per point and
    the loop's iteration profile."""
    rng = np.random.default_rng(20260823)
    retarded, minkowski = modules["retarded"], modules["minkowski"]
    out = {}
    for i, label in enumerate(w.label for w in minkowski.catalog()):
        X = _points(label, rng)
        row = {}
        for name, fn in (("cold", retarded.kinematics_arrays),
                         ("bisection", retarded.retarded_time_bisection)):
            w = minkowski.catalog()[i]
            best = min(_timed(fn, w, X) for _ in range(3))
            row[f"{name}_us_per_point"] = 1e6 * best / POINTS
            calls = []
            for attr in ("z", "zdot"):
                f = getattr(w, attr)
                object.__setattr__(w, attr, lambda t, f=f, attr=attr:
                                   calls.append((attr, t)) or f(t))
            sub = X[:SUBSET]
            fn(w, sub)
            row[f"{name}_z_evals_per_point"] = sum(
                np.size(t) for f, t in calls if f == "z") / SUBSET
            if name == "cold":
                row.update(_iteration_profile(minkowski.catalog()[i], sub,
                                              _main_loop_iterates(calls)))
        out[label] = row
    return out


def _iteration_profile(w, X, taus):
    """Loop iterations, the iteration by which the median point has reached
    its final tau, and the mean number of steps per point that were not the
    Newton step (a bisection midpoint replaced it)."""
    final = taus[-1]
    tol = 1e-12 * np.maximum(1.0, np.abs(final))
    settled = np.full(final.shape, len(taus) - 1)
    for k in range(len(taus) - 1, -1, -1):
        settled = np.where(np.abs(taus[k] - final) <= tol, k, settled)
    bisections = np.zeros(final.shape)
    for t0, t1 in zip(taus, taus[1:]):
        z, zd = w.z(t0), w.zdot(t0)
        R = X - z
        g = R[:, 0] ** 2 - (R[:, 1:] ** 2).sum(axis=-1)
        xi = zd[:, 0] * R[:, 0] - (zd[:, 1:] * R[:, 1:]).sum(axis=-1)
        miss = np.abs(t1 - (t0 + g / (2.0 * xi)))
        bisections += miss > np.maximum(0.25 * np.abs(t1 - t0),
                                        4e-16 * np.maximum(1.0, np.abs(t0)))
    return {"loop_iterations": len(taus) - 1,
            "median_point_settled_by": float(np.median(settled)),
            "mean_non_newton_steps": float(bisections.mean())}


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def renorm():
    se, rg = modules["selfenergy"], modules["regularization"]
    out = {}
    for mol in ("bump", "boxcar"):
        fam = rg.make_family(rg.parse_mollifier(mol))
        per_call = min(_timed(se.mass_renormalize, fam, 1.0, 1.0, 10.0)
                       for _ in range(5))
        out[f"{mol}_mass_renormalize_ms"] = 1e3 * per_call
    return out


def suite6():
    """The default config's 6-eps suite on rest, with per-claim times."""
    tr = Tracer()
    tr.install(list(modules.values()))
    cfg = modules["cli"].load_config(None)
    tr.mark("rounds")
    t0 = time.perf_counter()
    rep = modules["association"].association_suite(cfg.w, cfg.fam, cfg.grid)
    total = time.perf_counter() - t0
    m = tr.layer_metrics(1)
    return {"passed": rep.passed, "suite_s": total,
            "claim_box_minus_lw_s": m["association.claim_box_minus_lw_s"],
            "slice_grid_s": m["association.slice_grid_s"],
            "nodes": m["association.nodes"],
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


if __name__ == "__main__":
    section = sys.argv[1] if len(sys.argv) > 1 else "solver"
    print(json.dumps({section: {"solver": solver, "renorm": renorm,
                                "suite6": suite6}[section]()}, indent=1))
