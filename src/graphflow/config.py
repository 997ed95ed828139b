"""Run configuration parsing, initial-data projection, and refinement studies.

Configurations are JSON documents.  Parsing fills every default and returns
both the constructed objects and the fully resolved dictionary, which is
echoed verbatim into run summaries so that reruns are reproducible;
``parse_config(emit_config(cfg))`` reproduces the same resolved form.
"""

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import diagnostics, dynamics, kernels as kernels_mod, mobility as mobility_mod
from .errors import MassMismatch, SchemaError, SemanticError
from .graph import Exponents, build_graph

_DEFAULTS = {
    "seed": 0,
    "p": 2.0,
    "time_horizon": 1.0,
    "output_dir": "out",
    "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10, "max_dt": None, "dt_initial": None},
    "solver": {"steps": 32},
    "mobility": {"preset": "linear", "params": {}},
}


def _require(mapping, key, path, kind=None):
    if key not in mapping:
        raise SchemaError(f"{path}.{key}", "missing required field")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{path}.{key}", f"expected {kind}, got {type(value).__name__}")
    return value


def _is_integer(value):
    """Whether ``value`` is an integer; JSON true and false are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _positive_or_null(integ, key):
    """integrator.<key> as a positive float, or None when null or absent."""
    value = integ.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise SemanticError(f"integrator.{key} must be a positive number or null, got {value!r}")
    return float(value)


def _preset_number(params, key, default, path, positive=False):
    """params[key] (or the default) as a float: a finite real, not a boolean,
    and above zero when ``positive``."""
    value = params.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or (positive and not value > 0)):
        raise SchemaError(f"{path}.params.{key}",
                          f"must be a finite {'positive ' if positive else ''}number, got {value!r}")
    return float(value)


def _eta_from_preset(spec, path):
    name = _require(spec, "name", path, str)
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError(f"{path}.params", "expected an object")
    if name == "constant":
        value = _preset_number(params, "value", 1.0, path)
        return lambda xs, ys: np.full(np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1]), value)
    if name == "gaussian":
        sigma = _preset_number(params, "sigma", 1.0, path, positive=True)
        return lambda xs, ys: np.exp(-np.sum((xs - ys) ** 2, axis=-1) / (2.0 * sigma**2))
    if name == "cutoff":
        radius = _preset_number(params, "radius", 1.0, path, positive=True)
        return lambda xs, ys: (np.linalg.norm(xs - ys, axis=-1) <= radius).astype(float)
    raise SchemaError(f"{path}.name", f"unknown eta preset {name!r}")


def _build_graph_section(section, path="graph"):
    points = _require(section, "points", path, list)
    weights = _require(section, "weights", path, list)
    if "eta_matrix" in section:
        return build_graph(points, weights, np.asarray(section["eta_matrix"], dtype=float))
    if "eta_preset" in section:
        return build_graph(points, weights, _eta_from_preset(section["eta_preset"], f"{path}.eta_preset"))
    raise SchemaError(path, "needs either eta_matrix or eta_preset")


def _kernel_from_spec(spec, path):
    if "preset" in spec:
        name = spec["preset"]
        if name not in kernels_mod.KERNEL_PRESETS:
            raise SchemaError(f"{path}.preset", f"unknown kernel preset {name!r}")
        params = spec.get("params", {})
        try:
            return kernels_mod.KERNEL_PRESETS[name](**params)
        except TypeError as exc:
            raise SchemaError(f"{path}.params", str(exc))
    if "expression" in spec:
        try:
            return kernels_mod.kernel_from_expression(spec["expression"])
        except ValueError as exc:
            raise SchemaError(f"{path}.expression", str(exc))
    raise SchemaError(path, "needs preset or expression")


def _build_kernels_section(section, dimension, path="kernels"):
    beta = section.get("beta", [1.0, 1.0])
    if not isinstance(beta, list) or len(beta) != 2 or any(
        isinstance(b, bool) or not isinstance(b, (int, float)) or not 0 < b < math.inf
        for b in beta
    ):
        raise SemanticError(f"{path}.beta must be two finite positive numbers, got {beta}")
    fns = {}
    for name in ("K11", "K12", "K21", "K22"):
        spec = section.get(name, {"preset": "zero"})
        if not isinstance(spec, dict):
            raise SchemaError(f"{path}.{name}", "expected an object")
        fns[name] = _kernel_from_spec(spec, f"{path}.{name}")
    return kernels_mod.build_kernel_set(
        fns["K11"], fns["K12"], fns["K21"], fns["K22"], beta=tuple(beta),
        dimension=dimension, validate=True,
    )


def _build_mobility_section(section, path="mobility"):
    if "preset" in section:
        name = section["preset"]
        if name not in mobility_mod.PRESETS:
            raise SchemaError(f"{path}.preset", f"unknown mobility preset {name!r}")
        params = section.get("params", {})
        try:
            return mobility_mod.PRESETS[name](**params)
        except TypeError as exc:
            raise SchemaError(f"{path}.params", str(exc))
    if "expression" in section:
        r_cap = section.get("R", math.inf)
        s_cap = section.get("S", math.inf)
        try:
            return mobility_mod.from_expression(section["expression"], R=r_cap, S=s_cap)
        except ValueError as exc:
            raise SchemaError(f"{path}.expression", str(exc))
    raise SchemaError(path, "needs preset or expression")


@dataclass
class RunConfig:
    system: kernels_mod.System
    initial_state: object  # SpeciesPairState or None when given as a recipe
    time_horizon: float
    integrator: dynamics.IntegratorOptions
    solver_steps: int
    output_dir: str
    seed: int
    resolved: dict = field(repr=False)


def _parse_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from None


def parse_config(source):
    """Parse and validate a JSON run configuration (text or dict)."""
    raw = source if isinstance(source, dict) else _parse_json(source)
    if not isinstance(raw, dict):
        raise SchemaError("$", "top level must be an object")

    resolved = json.loads(json.dumps(raw))  # deep copy, JSON-normalized
    for key, value in _DEFAULTS.items():
        if isinstance(value, dict):
            merged = dict(value)
            merged.update(resolved.get(key, {}))
            resolved[key] = merged
        else:
            resolved.setdefault(key, value)

    p = resolved["p"]
    if not isinstance(p, (int, float)) or not (1.0 < p < math.inf):
        raise SemanticError(f"p must lie in (1, inf), got {p}")
    if "q" in resolved:
        resolved.pop("q")  # conjugate exponent is always derived, never read
    exponents = Exponents(float(p))

    graph = _build_graph_section(_require(resolved, "graph", "$", dict))
    kernels = _build_kernels_section(
        _require(resolved, "kernels", "$", dict), graph.base.dimension
    )
    mobility = _build_mobility_section(resolved["mobility"])

    t_final = resolved["time_horizon"]
    if isinstance(t_final, bool) or not isinstance(t_final, (int, float)) or not (
            0 < t_final < math.inf):
        raise SemanticError(f"time_horizon must be a positive finite number, got {t_final!r}")
    if not _is_integer(resolved["seed"]):
        raise SemanticError(f"seed must be an integer, got {resolved['seed']!r}")

    integ = resolved["integrator"]
    max_dt = _positive_or_null(integ, "max_dt")
    try:
        integrator = dynamics.IntegratorOptions(
            rel_tol=integ["rel_tol"],
            abs_tol=integ["abs_tol"],
            max_dt=np.inf if max_dt is None else max_dt,
            dt_initial=_positive_or_null(integ, "dt_initial"),
        )
    except ValueError as exc:  # e.g. a negative tolerance or an infinite first step
        raise SemanticError(f"integrator.{exc}") from exc
    sol = resolved["solver"]
    for key in sol:
        if key not in _DEFAULTS["solver"]:
            raise SchemaError(f"solver.{key}", "unknown key")
    if not _is_integer(sol["steps"]) or sol["steps"] < 1:
        raise SemanticError(f"solver.steps must be an integer of at least 1, got {sol['steps']!r}")

    state = None
    if "initial_state" in resolved:
        state = _build_initial_state(resolved["initial_state"], graph)

    return RunConfig(
        system=kernels_mod.System(graph, kernels, mobility, exponents),
        initial_state=state,
        time_horizon=float(t_final),
        integrator=integrator,
        solver_steps=sol["steps"],
        output_dir=str(resolved["output_dir"]),
        seed=resolved["seed"],
        resolved=resolved,
    )


def emit_config(config):
    """Serialize the resolved configuration; parse(emit(c)) reproduces it."""
    resolved = config.resolved if isinstance(config, RunConfig) else config
    return json.dumps(resolved, indent=2, sort_keys=True)


def parse_state(source, graph):
    raw = _parse_json(source) if isinstance(source, str) else source
    return _build_initial_state(raw, graph)


def _build_initial_state(section, graph, path="initial_state"):
    if not isinstance(section, dict):
        raise SchemaError(path, "expected an object")
    if "rho1" in section or "rho2" in section:
        rho1 = np.asarray(_require(section, "rho1", path, list), dtype=float)
        rho2 = np.asarray(_require(section, "rho2", path, list), dtype=float)
        if rho1.shape != (graph.n_vertices,) or rho2.shape != (graph.n_vertices,):
            raise SchemaError(path, f"densities must have length {graph.n_vertices}")
        if np.min(rho1) < 0 or np.min(rho2) < 0:
            raise SemanticError("initial densities must be nonnegative")
        state = dynamics.SpeciesPairState.from_densities(rho1, rho2)
        masses = state.masses(graph)
        if np.max(np.abs(masses - 1.0)) > 1e-8:
            raise SemanticError(f"initial species masses {masses} are not 1")
        # exact unit mass after round-off
        state.rho /= masses[:, None]
        return state
    if "atoms1" in section and "atoms2" in section:
        _check_projection(section, path)
        densities = []
        for name in ("atoms1", "atoms2"):
            atoms = _require(section, name, path, dict)
            positions = np.asarray(_require(atoms, "positions", f"{path}.{name}", list), dtype=float)
            masses = np.asarray(_require(atoms, "masses", f"{path}.{name}", list), dtype=float)
            rho, _ = project_initial(positions, masses, graph.base)
            densities.append(rho)
        return dynamics.SpeciesPairState.from_densities(*densities)
    raise SchemaError(path, "needs rho1/rho2 or atoms1/atoms2")


# ---------------------------------------------------------------------------
# initial-data projection
# ---------------------------------------------------------------------------

# Names accepted for the "projection" key.  All of them denote the one optimal
# map that ``project_initial`` computes; "transport" and "auto" stay accepted so
# that existing configurations keep parsing.
PROJECTIONS = ("auto", "nearest", "transport")


def _check_projection(section, path):
    name = section.get("projection", "nearest")
    if name not in PROJECTIONS:
        raise SchemaError(f"{path}.projection",
                          f"unknown projection {name!r}; expected one of {list(PROJECTIONS)}")


def project_initial(positions, masses, base):
    """Project an atomic measure onto the vertices of the base measure.

    Each atom goes to its closest vertex, ties broken toward the lower vertex
    index.  This is an optimal plan of the transport problem with the vertex
    marginal free (minimal total |x - y| times mass moved), which separates
    per atom.  Returns (densities w.r.t. mu, info dict); mass is renormalized
    to exactly match the input, drift logged.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    masses = np.asarray(masses, dtype=float).ravel()
    if positions.shape[0] == 1 and masses.size > 1:
        positions = positions.T
    if positions.shape[0] != masses.size:
        raise MassMismatch(f"{positions.shape[0]} atoms vs {masses.size} masses")
    if np.any(masses < 0):
        raise MassMismatch("atom masses must be nonnegative")
    total = float(np.sum(masses))
    if total <= 0:
        raise MassMismatch("total input mass must be positive")

    dist = np.linalg.norm(positions[:, None, :] - base.points[None, :, :], axis=-1)
    assign = np.argmin(dist, axis=1)  # argmin already favors lower indices on ties
    vertex_mass = np.bincount(assign, weights=masses, minlength=base.n_vertices)
    moved = float(np.sum(dist[np.arange(masses.size), assign] * masses))

    got = float(np.sum(vertex_mass))
    drift = got - total
    if got > 0:
        vertex_mass = vertex_mass * (total / got)
    rho = vertex_mass / base.weights
    info = {"method": "nearest", "mass_drift": drift, "w1_moved": moved}
    return rho, info


# ---------------------------------------------------------------------------
# refinement studies
# ---------------------------------------------------------------------------

_DENSITIES = {
    # mean + sigma * Phi^-1(u); scipy.stats.norm.ppf computes the same
    # expression, but importing scipy.stats costs about half a second
    "gaussian": lambda params: (
        lambda u: params.get("mean", 0.0) + params.get("sigma", 1.0) * ndtri(u)
    ),
    "uniform": lambda params: (
        lambda u: params.get("low", 0.0) + (params.get("high", 1.0) - params.get("low", 0.0)) * u
    ),
}


# (name, default, whether it must be positive) of each density parameter
_DENSITY_PARAMS = {
    "gaussian": (("mean", 0.0, False), ("sigma", 1.0, True)),
    "uniform": (("low", 0.0, False), ("high", 1.0, False)),
}


@dataclass(frozen=True)
class RefinementPlan:
    """Quantile-sampling recipe for the base measure plus a vertex-count ladder."""

    density_name: str
    density_params: dict
    ladder: tuple
    total_mass: float = 2.0
    initial_atoms: int = 64
    transport_diagnostic: bool = True
    transport_steps: int = 8

    def __post_init__(self):
        if self.density_name not in _DENSITIES:
            raise SchemaError("plan.density", f"unknown density {self.density_name!r}")
        ladder = list(self.ladder)
        if not all(_is_integer(n) and n >= 1 for n in ladder):
            raise SchemaError("plan.ladder", f"vertex counts must be integers >= 1, got {ladder}")
        if ladder != sorted(set(ladder)) or len(ladder) == 0:
            raise SchemaError("plan.ladder", "must be strictly increasing and nonempty")
        if not isinstance(self.density_params, dict):
            raise SchemaError("plan.density.params", "expected an object")
        for key, default, positive in _DENSITY_PARAMS[self.density_name]:
            _preset_number(self.density_params, key, default, "plan.density", positive)
        for key in ("initial_atoms", "transport_steps"):
            value = getattr(self, key)
            if not _is_integer(value) or value < 1:
                raise SchemaError(f"plan.{key}", f"must be an integer of at least 1, got {value!r}")
        mass = self.total_mass
        if isinstance(mass, bool) or not isinstance(mass, numbers.Real) or not 0 < mass < math.inf:
            raise SchemaError("plan.total_mass", f"must be a finite number > 0, got {mass!r}")
        if not isinstance(self.transport_diagnostic, bool):
            raise SchemaError("plan.transport_diagnostic",
                              f"must be true or false, got {self.transport_diagnostic!r}")

    def quantile(self, u):
        return _DENSITIES[self.density_name](self.density_params)(np.asarray(u))

    def sample_base(self, n):
        """n quantile midpoints of the target density, equal weights."""
        u = (np.arange(n) + 0.5) / n
        points = self.quantile(u).reshape(n, 1)
        weights = np.full(n, self.total_mass / n)
        return points, weights


def parse_plan(source):
    raw = _parse_json(source) if isinstance(source, str) else source
    if not isinstance(raw, dict):
        raise SchemaError("plan", "expected an object")
    density = _require(raw, "density", "plan", dict)
    _check_projection(raw, "plan")
    return RefinementPlan(
        density_name=_require(density, "name", "plan.density", str),
        density_params=density.get("params", {}),
        ladder=tuple(_require(raw, "ladder", "plan", list)),
        total_mass=raw.get("total_mass", 2.0),
        initial_atoms=raw.get("initial_atoms", 64),
        transport_diagnostic=raw.get("transport_diagnostic", True),
        transport_steps=raw.get("transport_steps", 8),
    )


@dataclass
class StudyLevel:
    n_vertices: int
    failed: bool = False
    error: str = ""
    g_t: float = math.nan
    energy_start: float = math.nan
    energy_end: float = math.nan
    w1_gap_from_previous: float = math.nan
    final_masses: tuple = ()
    energy_series: tuple = ()  # (t, energy) pairs along the level's trajectory
    # joint W1 / T^(1/p) report between the level's initial and final states;
    # the continuum comparison constant is unknown, so these are not asserted
    w1_start_to_final: float = math.nan
    transport_start_to_final: float = math.nan


@dataclass
class StudyReport:
    levels: list
    w1_gaps: list  # consecutive gaps between final states

    def as_dict(self):
        return {
            "levels": [vars(level) for level in self.levels],
            "w1_gaps": self.w1_gaps,
        }


def run_refinement_study(plan, config, max_workers=1):
    """Integrate the same data on a ladder of vertex counts and compare endpoints.

    Each level samples the plan's target density, projects the initial atoms,
    integrates to the configured horizon, and reports the De Giorgi residual;
    the study then lists W1 distances between consecutive final states.
    Failed levels are marked and skipped in the gap list.
    """
    from concurrent.futures import ThreadPoolExecutor

    atoms_u = (np.arange(plan.initial_atoms) + 0.5) / plan.initial_atoms
    atom_positions = plan.quantile(atoms_u).reshape(-1, 1)
    atom_masses = np.full(plan.initial_atoms, 1.0 / plan.initial_atoms)
    mobility, exponents = config.system.mobility, config.system.exponents

    def run_level(n):
        level = StudyLevel(n_vertices=n)
        try:
            points, weights = plan.sample_base(n)
            # ladder graphs have their own vertex counts, so eta must come from
            # a preset; an explicit matrix in the config only fits its own graph
            eta_spec = config.resolved["graph"].get("eta_preset", {"name": "constant"})
            graph = build_graph(points, weights, _eta_from_preset(eta_spec, "graph.eta_preset"))
            kernels = _build_kernels_section(config.resolved["kernels"], graph.base.dimension)
            system = kernels_mod.System(graph, kernels, mobility, exponents)
            rho, _ = project_initial(atom_positions, atom_masses, graph.base)
            state = dynamics.SpeciesPairState.from_densities(rho, rho.copy())
            trajectory = dynamics.integrate(system, state, config.time_horizon, config.integrator)
            report = diagnostics.de_giorgi(system, trajectory)
            level.g_t = report.g_t
            level.energy_start = report.energy_start
            level.energy_end = report.energy_end
            level.final_masses = tuple((trajectory.states[-1] @ graph.weights).tolist())
            level.energy_series = tuple(
                (float(t), float(e)) for t, e in zip(trajectory.times, trajectory.energies)
            )
            level.w1_start_to_final = diagnostics.w1_between_states(
                trajectory.states[0], trajectory.states[-1], graph
            )
            if plan.transport_diagnostic:
                from .transport import transport_cost

                t_value, _, _ = transport_cost(
                    graph, trajectory.states[0], trajectory.states[-1],
                    plan.transport_steps, mobility, kernels.beta, exponents,
                )
                level.transport_start_to_final = t_value ** (1.0 / exponents.p)
            return level, graph, trajectory.states[-1]
        except Exception as exc:  # levels fail independently
            level.failed = True
            level.error = f"{type(exc).__name__}: {exc}"
            return level, None, None

    results = []
    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(run_level, plan.ladder))
    else:
        results = [run_level(n) for n in plan.ladder]

    levels = [r[0] for r in results]
    gaps = []
    previous = None
    for level, graph, final in results:
        if level.failed:
            previous = None
            continue
        if previous is not None:
            gap = diagnostics.w1_between_states(previous[1], final, previous[0], graph)
            level.w1_gap_from_previous = gap
            gaps.append(gap)
        previous = (graph, final)
    return StudyReport(levels=levels, w1_gaps=gaps)
