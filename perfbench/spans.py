"""Spans around the calls into pointcharge's public functions, from outside.

`Tracer.install` replaces every public function of the pointcharge modules
with a wrapper wherever a module holds a reference to it, so that
`association.kinematics_arrays` and `retarded.inner` are traced as
`retarded.kinematics_arrays` and `minkowski.inner`.  The Worldline and
HeavisideFamily objects that traced factories return get their `z`,
`zdot`, `zddot`, `H`, `dH` and `d2H` callables wrapped too.  Private
helpers are not wrapped, so their time counts toward the public span
that calls them.

A span is (name, start, end, parent, n), where n is the work it was
handed: observer points for the retarded solves and Phi, eigentimes for
the worldline evaluators, nodes for `slice_grid`.  Spans stay in memory
and are written out by `save` when the benchmark ends.
"""

import functools
import time
import types
from array import array

import numpy as np


def _n_points(X):
    size = getattr(X, "size", None)
    return 1 if size is None else size // 4


# work measured per span, keyed by span name
POINTS = {
    "retarded.retarded_time": 1, "retarded.retarded_time_bisection": 1,
    "retarded.kinematics_arrays": 1, "fields.phi_arrays": 2,
}
SOLVES = ("retarded.retarded_time", "retarded.retarded_time_bisection",
          "retarded.kinematics_arrays")
EVALUATORS = ("minkowski.z", "minkowski.zdot", "minkowski.zddot")
H_CALLS = ("regularization.H", "regularization.dH", "regularization.d2H")
PAIRING = ("distalg.numeric_pairing", "distalg.pair_expr")
# factories whose Worldline / HeavisideFamily results get instrumented
FACTORIES = ("minkowski.catalog", "minkowski.parse_worldline",
             "minkowski.rest_worldline", "minkowski.boost_worldline",
             "minkowski.hyperbolic_worldline", "minkowski.circular_worldline",
             "regularization.make_family")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.sid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.n = array("q")
        self._stack = []
        self._patched = []
        self.marks = {}

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def mark(self, label):
        """Remember the span index where a phase begins; the spans before
        the "rounds" mark are the set-up."""
        self.marks[label] = len(self.sid)

    def wrap(self, name, fn, measure=None, post=None):
        sid = self._name_id(name)
        stack, spans = self._stack, (self.sid, self.start, self.end,
                                     self.parent, self.n)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans[0])
            spans[0].append(sid)
            spans[1].append(clock())
            spans[2].append(0.0)
            spans[3].append(stack[-1] if stack else -1)
            spans[4].append(measure(args, kwargs) if measure else 1)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if post is not None:
                    post(idx, out)
                return out
            finally:
                spans[2][idx] = clock()
                stack.pop()

        traced.__traced__ = fn
        return traced

    # -- installing the wrappers ------------------------------------------

    def install(self, package_modules):
        """Wrap the public functions of `package_modules` wherever one of
        them holds a reference to them."""
        from pointcharge.minkowski import Worldline
        from pointcharge.regularization import HeavisideFamily

        self._types = (Worldline, HeavisideFamily)
        wrappers = {}
        for mod in package_modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[fn] = self.wrap(name, fn, self._measure(name),
                                         self._post(name))
        for ns in package_modules:
            for attr, val in list(vars(ns).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patched.append((ns, attr, val))
                    setattr(ns, attr, wrappers[val])

    def uninstall(self):
        for ns, attr, val in reversed(self._patched):
            setattr(ns, attr, val)
        self._patched.clear()

    def _measure(self, name):
        pos = POINTS.get(name)
        if pos is None:
            return None
        return lambda args, kwargs: _n_points(
            args[pos] if len(args) > pos else kwargs.get("X"))

    def _post(self, name):
        if name == "association.slice_grid":
            def nodes(idx, grid):
                self.n[idx] = len(grid.points)
            return nodes
        if name in FACTORIES:
            return lambda idx, out: self.instrument(out)
        return None

    def instrument(self, obj):
        """Wrap the callables of a Worldline / HeavisideFamily (or a list of
        them) in place; other objects pass through."""
        if isinstance(obj, (list, tuple)):
            for item in obj:
                self.instrument(item)
            return
        if not isinstance(obj, self._types) or getattr(obj, "_traced", False):
            return
        if hasattr(obj, "zdot"):
            size = lambda args, kwargs: int(np.size(args[0]))
            for attr in ("z", "zdot", "zddot"):
                object.__setattr__(obj, attr, self.wrap(
                    f"minkowski.{attr}", getattr(obj, attr), size))
        else:
            for attr in ("H", "dH", "d2H"):
                object.__setattr__(obj, attr, self.wrap(
                    f"regularization.{attr}", getattr(obj, attr)))
        object.__setattr__(obj, "_traced", True)

    # -- results ------------------------------------------------------------

    def arrays(self):
        sid = np.frombuffer(self.sid, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        n = np.frombuffer(self.n, dtype=np.int64).copy()
        return sid, start, end, parent, n

    def save(self, path):
        sid, start, end, parent, n = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), sid=sid,
                            start=start, end=end, parent=parent, n=n)

    def layer_metrics(self, rounds):
        """Per-layer metrics: setup figures from the spans before the first
        round, everything else per round."""
        sid, start, end, parent, n = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        names = np.array(self.names)
        name = names[sid]
        first = self.marks["rounds"]
        in_rounds = np.arange(sid.size) >= first
        setup = ~in_rounds

        def sel(*names_, phase=in_rounds):
            return phase & np.isin(name, names_)

        def layer(prefix):
            return in_rounds & np.char.startswith(name.astype(str), prefix)

        algebra = tuple(nm for nm in self.names
                        if nm.startswith("distalg.") and nm not in PAIRING)
        outer = self._outermost(sid, parent,
                                {"pairing": PAIRING, "algebra": algebra})

        def outer_time(group, *names_):
            return float(dur[sel(*names_) & outer[group]].sum())

        points = float(n[sel(*SOLVES)].sum())
        solve_time = float(dur[sel(*SOLVES)].sum())
        parent_name = np.where(has_parent, names[sid[np.maximum(parent, 0)]], "")
        z_in_solve = sel("minkowski.z") & np.isin(parent_name, SOLVES)
        m = {
            "retarded.points": points,
            "retarded.self_s": float(self_t[layer("retarded.")].sum()),
            "retarded.us_per_point": 1e6 * solve_time / points if points else 0.0,
            "retarded.z_evals_per_point":
                float(n[z_in_solve].sum()) / points if points else 0.0,
            "minkowski.eval_s": float(dur[sel(*EVALUATORS)].sum()),
            "minkowski.eval_points": float(n[sel(*EVALUATORS)].sum()),
            "minkowski.inner_s": float(dur[sel("minkowski.inner")].sum()),
            "regularization.h_s": float(dur[sel(*H_CALLS)].sum()),
            "regularization.h_calls": float(np.count_nonzero(sel(*H_CALLS))),
            "regularization.make_family_s":
                float(dur[sel("regularization.make_family", phase=setup)].sum()),
            "fields.phi_s": float(self_t[sel("fields.phi_arrays", "fields.phi_alpha",
                                             "fields.box_phi_fd")].sum()),
            "fields.phi_points": float(n[sel("fields.phi_arrays")].sum()),
            "fields.box_phi_s": float(self_t[sel("fields.box_phi_arrays",
                                                 "fields.box_phi_analytic")].sum()),
            "association.slice_grid_s":
                float(dur[sel("association.slice_grid")].sum()),
            "association.nodes": float(n[sel("association.slice_grid")].sum()),
            "association.claim_box_minus_lw_s":
                float(dur[sel("association.claim_box_minus_lw")].sum()),
            "association.claim_psi_s": float(dur[sel("association.claim_psi")].sum()),
            "association.claim_heaviside_s":
                float(dur[sel("association.claim_heaviside")].sum()),
            "association.claim_charge_density_s":
                float(dur[sel("association.claim_charge_density")].sum()),
            "selfenergy.u_s":
                float(dur[sel("selfenergy.u_ele", "selfenergy.u_mag")].sum()),
            "selfenergy.sup_dh_s": float(dur[sel("selfenergy.sup_dh")].sum()),
            "selfenergy.mass_renormalize_s":
                float(dur[sel("selfenergy.mass_renormalize")].sum()),
            "distalg.pairing_s": outer_time("pairing", *PAIRING),
            "distalg.algebra_s": outer_time("algebra", *algebra),
            "cli.load_config_s":
                float(dur[sel("cli.load_config", phase=setup)].sum()),
            "cli.self_s": float(self_t[layer("cli.")].sum()),
        }
        per_setup = ("regularization.make_family_s", "cli.load_config_s")
        return {k: (v if k in per_setup or k.endswith("_per_point") else v / rounds)
                for k, v in m.items()}

    def _outermost(self, sid, parent, groups):
        """For each named group of span names, a mask of the spans that
        have no ancestor in that group."""
        bit = {g: 1 << i for i, g in enumerate(groups)}
        name_bits = [0] * len(self.names)
        for g, members in groups.items():
            for nm in members:
                if nm in self._ids:
                    name_bits[self._ids[nm]] |= bit[g]
        anc = [0] * sid.size
        sid_l, parent_l = sid.tolist(), parent.tolist()
        for i, p in enumerate(parent_l):
            if p >= 0:
                anc[i] = anc[p] | name_bits[sid_l[p]]
        anc = np.array(anc, dtype=np.int64)
        return {g: (anc & b) == 0 for g, b in bit.items()}
