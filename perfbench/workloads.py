"""The three benchmark workloads: inputs from a seed, one op, and its output check.

Every workload object offers

* ``cases(seed, work_dir)``: the list of op inputs a run cycles through, a
  pure function of the seed (files go to ``work_dir``);
* ``op(case)``: one operation, returning its outputs as a flat dict;
* ``check(case, out)``: a list of failed output checks (empty when correct);
* ``fingerprint(out)``: the numbers that tracing must leave bit-identical;
* ``round_size``: the number of ops that visit every kind of input once.
  A run ends on a round boundary, so each run times the same mix of inputs.

Transport costs are checked against reference values recorded from the
library (``references.json``, written by ``make_references.py``).  So that
every op has a reference whatever the seed, metric-small solves a fixed
catalogue of instances in seeded orders, and refine-ladder translates one
problem by a seeded shift, which leaves its transport costs unchanged.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from graphflow import cli, config, dynamics, transport
from graphflow.scenarios import random_geometric_setup

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

MASS_DRIFT_TOL = 1e-12  # species mass drift of an integrated trajectory
G_T_TOL = 1e-3  # |De Giorgi residual|
# transport costs against their references; translating the points or
# relabelling the vertices moves them by up to 2e-7 relative
T_RTOL = 1e-5
T_ATOL = 1e-9


def _rng(*key):
    return np.random.default_rng([abs(int(k)) for k in key])


def _near(value, reference):
    return abs(value - reference) <= T_ATOL + T_RTOL * abs(reference)


def _with_references(cases):
    """Attach each catalogue instance's recorded reference (None if missing)."""
    refs = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, encoding="utf-8") as handle:
            refs = json.load(handle)
    for case in cases:
        case["ref"] = refs.get(case["key"])
    return cases


def _trajectory_checks(stats, cap, guard_tol):
    problems = []
    if not stats["mass_drift"] <= MASS_DRIFT_TOL:
        problems.append(f"mass drift {stats['mass_drift']:.3e}")
    if not stats["min_density"] >= -guard_tol:
        problems.append(f"min density {stats['min_density']:.3e}")
    if not stats["max_density"] <= cap + guard_tol:
        problems.append(f"max density {stats['max_density']:.6g} above cap {cap}")
    return problems


def _rgg_states(rng, weights, count, bounded):
    """``count`` seeded density pairs of unit species mass on one vertex set."""
    states = []
    for _ in range(count):
        rho = rng.uniform(0.1, 1.0, size=(2, weights.size))
        rho /= (rho @ weights)[:, None]
        if bounded:
            # keep volume-filling densities well inside the cap of 1
            rho = 0.5 * rho + 0.5 / weights.sum()
            rho /= (rho @ weights)[:, None]
        states.append(rho)
    return states


# ---------------------------------------------------------------------------
# flow-large: simulate + diagnose through the CLI on a dense 256-vertex graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowLarge:
    n: int = 256
    max_dt: float = 1 / 64
    horizon = 1.0
    name = "flow-large"
    round_size = 2

    def _config(self, rng, mobility, out_dir):
        points = rng.uniform(0.0, 1.0, size=(self.n, 2))
        weights = rng.uniform(1.5, 2.5, size=self.n) / self.n
        rho = _rgg_states(rng, weights, 1, mobility == "volume_filling")[0]
        return {
            "p": 2.0,
            "graph": {
                "points": points.tolist(),
                "weights": weights.tolist(),
                "eta_preset": {"name": "gaussian", "params": {"sigma": math.sqrt(1 / 8)}},
            },
            "kernels": {
                "K11": {"preset": "distance"},
                "K22": {"preset": "distance"},
                "K12": {"expression": "0.5*d"},
                "K21": {"expression": "0.5*d"},
                "beta": [1.0, 1.0],
            },
            "mobility": {"preset": mobility},
            "initial_state": {"rho1": rho[0].tolist(), "rho2": rho[1].tolist()},
            "time_horizon": self.horizon,
            "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10, "max_dt": self.max_dt},
            "output_dir": out_dir,
        }

    def cases(self, seed, work_dir):
        """Two configs, linear and volume_filling mobility, alternated by the ops."""
        rng = _rng(1, seed)
        out = []
        for mobility in ("linear", "volume_filling"):
            case_dir = os.path.join(work_dir, f"{self.name}-{mobility}")
            os.makedirs(case_dir, exist_ok=True)
            path = os.path.join(case_dir, "config.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(self._config(rng, mobility, case_dir), handle)
            out.append({"config": path, "dir": case_dir, "mobility": mobility})
        return out

    def op(self, case):
        d = case["dir"]
        with contextlib.redirect_stdout(io.StringIO()):  # one "wrote ..." line per command
            sim = cli.main_cli(["simulate", "--config", case["config"], "--out", d])
            diag = -1
            if sim == 0:
                diag = cli.main_cli(["diagnose", "--config", case["config"], "--out", d,
                                     "--trajectory", os.path.join(d, "trajectory.csv")])
        out = {"exit_simulate": sim, "exit_diagnose": diag, "bytes_written": 0}
        if diag != 0:
            return out
        names = ("trajectory.csv", "summary.json", "de_giorgi.json", "diagnostics.csv")
        out["bytes_written"] = sum(os.path.getsize(os.path.join(d, f)) for f in names)
        with open(os.path.join(d, "summary.json"), encoding="utf-8") as handle:
            summary = json.load(handle)
        with open(os.path.join(d, "de_giorgi.json"), encoding="utf-8") as handle:
            report = json.load(handle)
        out.update(summary["stats"])
        out["g_t"] = report["g_t"]
        out["energy_end"] = report["energy_end"]
        return out

    def check(self, case, out):
        if out["exit_simulate"] != 0 or out["exit_diagnose"] != 0:
            return [f"exit codes simulate={out['exit_simulate']} diagnose={out['exit_diagnose']}"]
        cap = 1.0 if case["mobility"] == "volume_filling" else math.inf
        problems = _trajectory_checks(out, cap, dynamics.GUARD_TOL)
        if not abs(out["g_t"]) <= G_T_TOL:
            problems.append(f"|G_T| = {abs(out['g_t']):.3e}")
        return problems

    def fingerprint(self, out):
        keys = ("exit_simulate", "exit_diagnose", "g_t", "energy_end", "accepted_steps",
                "rejected_steps", "mass_drift", "bytes_written")
        return tuple(out.get(k) for k in keys)


# ---------------------------------------------------------------------------
# metric-small: transport cost + geodesic profile between seeded endpoints
# ---------------------------------------------------------------------------

_PS = (1.5, 2.0, 3.0)
_MOBILITIES = ("linear", "volume_filling")


@dataclass(frozen=True)
class MetricSmall:
    sizes: tuple = (6, 8)
    steps: int = 16
    rounds = 4
    name = "metric-small"

    @property
    def combos(self):
        return tuple((n, m, p) for n in self.sizes for m in _MOBILITIES for p in _PS)

    @property
    def round_size(self):
        return len(self.combos)

    def instance(self, combo):
        """A seeded RGG and two endpoint states on it, one per (n, mobility, p).

        The endpoints are pair 1 of the generator, not pair 0: with pair 0 the
        twelve solve times fall into a fast and a slow cluster of six, so the
        median op sat in the gap between them and moved 21% (IQR over median)
        across ten seeds.
        """
        n, mobility, p = combo
        pair = 1
        graph, kernels, mob, exps, start = random_geometric_setup(
            seed=1000 * n + pair, n=n, p=p, mobility_name=mobility)
        end = _rgg_states(_rng(3, n, pair), graph.weights, 1, mob.bounded)[0]
        return {"key": f"{self.name}/n{n}/{mobility}/p{p}/pair{pair}", "graph": graph,
                "beta": kernels.beta, "mobility": mob, "exponents": exps,
                "start": start.rho, "end": end}

    def catalogue(self):
        return [self.instance(combo) for combo in self.combos]

    def cases(self, seed, work_dir):
        """Rounds over the catalogue, each in an order drawn from the seed.

        The instances themselves stay fixed: the L-BFGS iteration count is
        chaotic under round-off (relabelling the vertices of one instance moves
        it by up to 2x) and differs several-fold between endpoint pairs, so
        seeded instances would spread a run's median latency by about 20%.
        """
        rng = _rng(3, seed)
        catalogue = _with_references(self.catalogue())
        return [catalogue[c] for _ in range(self.rounds) for c in rng.permutation(len(catalogue))]

    def op(self, case):
        g, m, e, beta = case["graph"], case["mobility"], case["exponents"], case["beta"]
        t_value, path, cert = transport.transport_cost(
            g, case["start"], case["end"], self.steps, m, beta, e)
        profile = transport.geodesic_profile(g, path, m, beta, e)
        return {"T": t_value, "converged": cert.converged, "iterations": cert.iterations,
                "constraint_residual": cert.constraint_residual,
                "optimality_residual": cert.optimality_residual,
                "objective": cert.objective, "profile_sum": float(np.sum(profile))}

    def check(self, case, out):
        problems = [] if out["converged"] else ["certificate not converged"]
        ref = case["ref"]
        if ref is None or "T" not in ref:
            problems.append(f"no reference for {case['key']}: {ref}")
        elif not _near(out["T"], ref["T"]):
            problems.append(f"T = {out['T']!r}, reference {ref['T']!r}")
        return problems

    def fingerprint(self, out):
        keys = ("T", "iterations", "constraint_residual", "optimality_residual", "objective",
                "profile_sum")
        return tuple(out[k] for k in keys)


# ---------------------------------------------------------------------------
# refine-ladder: a refinement study with the transport diagnostic per level
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefineLadder:
    ladder: tuple = (8, 16, 32, 64)
    atoms: int = 512
    steps = 8
    sigma = 0.5
    name = "refine-ladder"
    round_size = 1

    def instance(self, mean):
        """A refinement study of the Gaussian target N(mean, sigma^2)."""
        cfg = config.parse_config({
            "p": 2.0,
            "graph": {"points": [[0.0], [1.0]], "weights": [1.0, 1.0],
                      "eta_preset": {"name": "gaussian", "params": {"sigma": 1.0}}},
            "kernels": {"K11": {"preset": "distance"}, "K22": {"preset": "distance"},
                        "K12": {"preset": "zero"}, "K21": {"preset": "zero"},
                        "beta": [1.0, 1.0]},
            "mobility": {"preset": "linear"},
            "time_horizon": 0.5,
            "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10, "max_dt": 0.01},
        })
        plan = config.RefinementPlan(
            "gaussian", {"mean": mean, "sigma": self.sigma}, ladder=self.ladder,
            initial_atoms=self.atoms, total_mass=2.0, transport_steps=self.steps)
        return {"key": f"{self.name}/{'-'.join(map(str, self.ladder))}/atoms{self.atoms}"
                       f"/sigma{self.sigma}", "plan": plan, "config": cfg}

    def catalogue(self):
        return [self.instance(0.0)]

    def cases(self, seed, work_dir):
        """One study per op, each with a mean drawn from the seed.

        A mean shift translates every vertex and atom, which leaves the
        transport costs and W1 gaps unchanged up to round-off, so one
        reference serves every op.  Sigma stays fixed: it sets the op's cost
        (about 25% per 0.05), which a run of two or three ops cannot average.
        """
        means = _rng(4, seed).uniform(-1.0, 1.0, size=8)
        return _with_references([self.instance(float(m)) for m in means])

    def op(self, case):
        report = config.run_refinement_study(case["plan"], case["config"])
        return {
            "failed": [lv.error for lv in report.levels if lv.failed],
            "g_t": [lv.g_t for lv in report.levels],
            "masses": [m for lv in report.levels for m in lv.final_masses],
            "T": [lv.transport_start_to_final for lv in report.levels],
            "w1_gaps": list(report.w1_gaps),
        }

    def check(self, case, out):
        problems = [f"failed level: {err}" for err in out["failed"]]
        problems += [f"|G_T| = {abs(g):.3e}" for g in out["g_t"] if not abs(g) <= G_T_TOL]
        problems += [f"species mass {m!r}" for m in out["masses"]
                     if not abs(m - 1.0) <= MASS_DRIFT_TOL]
        ref = case["ref"]
        if ref is None or "T" not in ref:
            return problems + [f"no reference for {case['key']}: {ref}"]
        for name in ("T", "w1_gaps"):
            if len(out[name]) != len(ref[name]) or not all(
                    _near(a, b) for a, b in zip(out[name], ref[name])):
                problems.append(f"{name} = {out[name]!r}, reference {ref[name]!r}")
        return problems

    def fingerprint(self, out):
        return tuple(map(tuple, (out["g_t"], out["T"], out["w1_gaps"], out["masses"])))


WORKLOADS = {
    "flow-large": {"full": FlowLarge(), "smoke": FlowLarge(n=12, max_dt=1 / 8)},
    "metric-small": {"full": MetricSmall(), "smoke": MetricSmall(sizes=(3,), steps=8)},
    "refine-ladder": {"full": RefineLadder(),
                      "smoke": RefineLadder(ladder=(4, 8), atoms=16)},
}
