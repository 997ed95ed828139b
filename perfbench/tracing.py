"""Span tracing of graphflow's layers, installed from outside the library.

``Tracer.install`` replaces every binding of each timed function in every
``graphflow`` module (``nonlocal_divergence``, for instance, is bound in
graph, dynamics, transport, diagnostics and the package itself) with a
wrapper that records a span, and ``uninstall`` puts the originals back.  It
refuses to run if any binding is left unwrapped.  Spans are kept in memory as
(op, parent, name, start, end) and written out by the caller when the run
ends.  A layer's self time is its span duration minus the time its child
spans cover.
"""

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.optimize

# span name -> (module, attribute) of each timed module-level function
FUNCTIONS = {
    "graph.build_graph": ("graphflow.graph", "build_graph"),
    "graph.nonlocal_divergence": ("graphflow.graph", "nonlocal_divergence"),
    "graph.nonlocal_gradient": ("graphflow.graph", "nonlocal_gradient"),
    "kernels.potentials": ("graphflow.kernels", "potentials"),
    "kernels.energy": ("graphflow.kernels", "energy"),
    "dynamics.integrate": ("graphflow.dynamics", "integrate"),
    "dynamics.upwind_flux": ("graphflow.dynamics", "upwind_flux"),
    "dynamics.rhs": ("graphflow.dynamics", "rhs"),
    "transport.transport_cost": ("graphflow.transport", "transport_cost"),
    "transport.action": ("graphflow.transport", "action"),
    "transport.dual_action": ("graphflow.transport", "dual_action"),
    "diagnostics.de_giorgi": ("graphflow.diagnostics", "de_giorgi"),
    "diagnostics.dissipation": ("graphflow.diagnostics", "dissipation"),
    "diagnostics.w1_distance": ("graphflow.diagnostics", "w1_distance"),
    "config.parse_config": ("graphflow.config", "parse_config"),
    "config.project_initial": ("graphflow.config", "project_initial"),
    "config.run_refinement_study": ("graphflow.config", "run_refinement_study"),
    "cli.main_cli": ("graphflow.cli", "main_cli"),
}
# span name -> (module, class, method) of each timed method
METHODS = {
    "kernels.on_graph": ("graphflow.kernels", "KernelSet", "on_graph"),
    "mobility": ("graphflow.mobility", "Mobility", "__call__"),
}
# The transport solver's ``optimize.minimize`` call is the optimizer span and
# the objective handed to it the objective span.
OPTIMIZER, OBJECTIVE = "transport.optimizer", "transport.objective"

LAYERS = ("graph", "kernels", "mobility", "dynamics", "transport", "diagnostics", "config",
          "cli")

# Per-layer metrics that do not come from a span of their own (``.calls`` and
# ``.self_s`` do) -> the span whose occurrence shows that their layer ran.
DERIVED_FROM = {
    "dynamics.accepted_steps": "dynamics.integrate",
    "dynamics.rejected_steps": "dynamics.integrate",
    "dynamics.rhs_per_step": "dynamics.integrate",
    "dynamics.trajectory_mb": "dynamics.integrate",
    "transport.iterations": "transport.transport_cost",
    "transport.evals_per_iteration": "transport.transport_cost",
    "diagnostics.w1_lp_mb": "diagnostics.w1_distance",
    "config.project_lp_mb": "config.project_initial",
    "cli.bytes_written": "cli.main_cli",
    "op.unaccounted_s": "op",
    "trace.overhead_s": "op",
}


class UnwrappedBinding(RuntimeError):
    pass


class _TracedOptimize:
    """Stands in for ``scipy.optimize`` inside ``graphflow.transport``, which
    uses only its ``minimize``."""

    def __init__(self, tracer):
        self._tracer = tracer
        self.minimize = tracer.wrap(OPTIMIZER, self._minimize)

    def _minimize(self, fun, x0, *args, **kwargs):
        return scipy.optimize.minimize(self._tracer.wrap(OBJECTIVE, fun), x0, *args, **kwargs)


def _nbytes(obj):
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


class Tracer:
    """In-memory spans and counters for the ops of one traced run."""

    def __init__(self):
        self.spans = []  # [op, parent, name, start, end]
        self.stack = []
        self.op = -1
        self.ops = 0
        self.calls = defaultdict(int)  # spans opened so far, by name
        self.counters = defaultdict(float)  # summed over traced ops
        self.peaks = defaultdict(float)  # largest computed size in the run
        self.bindings = defaultdict(list)  # span name -> "module.attr" wrapped
        self._patches = []
        self._hooks = {
            "dynamics.integrate": (self._before_integrate, self._after_integrate),
            "transport.transport_cost": (None, self._after_transport),
            "diagnostics.w1_distance": (self._before_w1, None),
            "config.project_initial": (None, self._after_projection),
        }

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn):
        before, after = self._hooks.get(name, (None, None))
        spans, stack, calls = self.spans, self.stack, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [self.op, stack[-1] if stack else -1, name, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            calls[name] += 1
            state = before(args) if before else None
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            if after:
                after(args, result, state)
            return result

        return traced

    def run_op(self, fn, *args):
        """Run one op under a root span named ``op``."""
        self.op = self.ops
        self.ops += 1
        return self.wrap("op", fn)(*args)

    # -- counters and computed sizes -------------------------------------------

    def _before_integrate(self, args):
        return self.calls["dynamics.upwind_flux"]

    def _after_integrate(self, args, trajectory, flux_calls_before):
        self.counters["dynamics.accepted_steps"] += trajectory.stats["accepted_steps"]
        self.counters["dynamics.rejected_steps"] += trajectory.stats["rejected_steps"]
        self.counters["dynamics.flux_evals"] += (
            self.calls["dynamics.upwind_flux"] - flux_calls_before)
        self._peak("dynamics.trajectory_mb", _nbytes(trajectory))

    def _after_transport(self, args, result, state):
        self.counters["transport.iterations"] += result[2].iterations

    def _before_w1(self, args):
        # w1_distance(positions_a, masses_a, positions_b, masses_b): the LP's
        # dense equality matrix is (na + nb) x (na * nb) over positive masses
        na, nb = (int(np.count_nonzero(np.asarray(m) > 0)) for m in (args[1], args[3]))
        self._peak("diagnostics.w1_lp_mb", (na + nb) * na * nb * 8)

    def _after_projection(self, args, result, state):
        # project_initial(positions, masses, base, method): the transport LP's
        # dense equality matrix is atoms x (atoms * vertices)
        if result[1]["method"] == "transport":
            atoms = np.asarray(args[1]).size
            self._peak("config.project_lp_mb", atoms * atoms * args[2].n_vertices * 8)

    def _peak(self, name, nbytes):
        self.peaks[name] = max(self.peaks[name], nbytes / 1e6)

    # -- installing the wrappers ---------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "graphflow" or name.startswith("graphflow.")}
        self.bindings.clear()
        wrapped = {}  # id(original) -> (original, span name, wrapper)
        for name, (module, attr) in FUNCTIONS.items():
            fn = getattr(modules[module], attr)
            wrapped[id(fn)] = (fn, name, self.wrap(name, fn))
        for mod_name, module in sorted(modules.items()):
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[2])
                    self.bindings[hit[1]].append(f"{mod_name}.{attr}")
        for name, (module, cls, attr) in METHODS.items():
            klass = getattr(modules[module], cls)
            self._patch(klass, attr, self.wrap(name, vars(klass)[attr]))
            self.bindings[name].append(f"{module}.{cls}.{attr}")
        if "optimize" in vars(modules["graphflow.transport"]):
            self._patch(modules["graphflow.transport"], "optimize", _TracedOptimize(self))
            self.bindings[OPTIMIZER].append("graphflow.transport.optimize.minimize")
        self._verify(modules, [hit[0] for hit in wrapped.values()])

    def _verify(self, modules, originals):
        """Fail if any graphflow module still binds an unwrapped timed function."""
        originals = originals + [scipy.optimize, scipy.optimize.minimize]
        for mod_name, module in modules.items():
            for attr, value in vars(module).items():
                if any(value is fn for fn in originals):
                    self.uninstall()
                    raise UnwrappedBinding(f"{mod_name}.{attr} is not wrapped")

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------------

    def span_totals(self):
        """Calls and self seconds by span name over all traced ops."""
        durations = [s[4] - s[3] for s in self.spans]
        covered = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[1] >= 0:
                covered[span[1]] += durations[i]
        totals = defaultdict(lambda: [0, 0.0])
        for i, span in enumerate(self.spans):
            totals[span[2]][0] += 1
            totals[span[2]][1] += durations[i] - covered[i]
        return dict(totals)

    def per_layer(self, names, overhead_s):
        """The named per-layer metrics, per traced op (computed sizes: run maxima),
        and the names among them whose layer never ran, which read 0."""
        ops = max(self.ops, 1)
        totals = self.span_totals()
        steps = self.counters["dynamics.accepted_steps"]
        iterations = self.counters["transport.iterations"]
        values = {
            "dynamics.accepted_steps": steps / ops,
            "dynamics.rejected_steps": self.counters["dynamics.rejected_steps"] / ops,
            "dynamics.rhs_per_step": self.counters["dynamics.flux_evals"] / steps if steps else 0.0,
            "transport.iterations": iterations / ops,
            "transport.evals_per_iteration":
                totals.get(OBJECTIVE, (0,))[0] / iterations if iterations else 0.0,
            "cli.bytes_written": self.counters["cli.bytes_written"] / ops,
            "op.unaccounted_s": totals.get("op", (0, 0.0))[1] / ops,
            "trace.overhead_s": overhead_s,
        }
        for name in ("dynamics.trajectory_mb", "diagnostics.w1_lp_mb", "config.project_lp_mb"):
            values[name] = self.peaks[name]
        for span, (calls, self_s) in totals.items():
            values[f"{span}.calls"] = calls / ops
            values[f"{span}.self_s"] = self_s / ops
        not_run = [m for m in names if DERIVED_FROM.get(m, m.rpartition(".")[0]) not in totals]
        return {m: values.get(m, 0.0) if m in not_run else values[m] for m in names}, not_run

    def layer_table(self):
        """Lines giving each layer's self time as a share of op wall time."""
        totals = self.span_totals()
        ops = max(self.ops, 1)
        wall = sum(s[4] - s[3] for s in self.spans if s[2] == "op")
        lines = [f"layer shares of traced op wall time ({self.ops} ops, "
                 f"{wall / ops:.4g} s per op)"]
        for layer in LAYERS + ("op",):
            names = [n for n in totals if n == layer or n.startswith(layer + ".")]
            self_s = sum(totals[n][1] for n in names)
            calls = sum(totals[n][0] for n in names)
            label = "unaccounted" if layer == "op" else layer
            share = self_s / wall if wall else math.nan
            lines.append(f"  {label:<12} {share:7.1%}  {self_s / ops:10.4g} s/op"
                         f"  {calls / ops:12.1f} spans/op")
        steps = self.counters["dynamics.accepted_steps"]
        iterations = self.counters["transport.iterations"]
        if steps:
            flux_evals = self.counters["dynamics.flux_evals"]
            lines.append(f"  dynamics.rhs_per_step {flux_evals / steps:.3f}"
                         f" flux-law evaluations per accepted step")
        if iterations:
            evals = totals.get(OBJECTIVE, (0,))[0]
            lines.append(f"  transport.evals_per_iteration {evals / iterations:.3f}"
                         f" objective evaluations per optimizer iteration")
        for name, value in sorted(self.peaks.items()):
            if value:
                lines.append(f"  {name} {value:.3f} MB (computed from array sizes, "
                             "not measured)")
        return lines

    def columns(self):
        """Spans as columns, for writing out once the run ends."""
        keys = ("op", "parent", "name", "start", "end")
        return {key: [s[i] for s in self.spans] for i, key in enumerate(keys)}
