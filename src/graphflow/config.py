"""Run configuration parsing, initial-data projection, and refinement studies.

Configurations are JSON documents.  Parsing fills every default and returns
both the constructed objects and the fully resolved dictionary, which is
echoed verbatim into run summaries so that reruns are reproducible: parsing
the resolved form again reproduces it.
"""

import inspect
import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics, dynamics, kernels as kernels_mod, mobility as mobility_mod
from .errors import (MassMismatch, NotConcave, NotPositive, NotUpwindAdmissible, SchemaError,
                     SemanticError)
from .graph import Exponents, build_graph, pair_distance

# defaults of the top-level scalars and of the sections with fixed keys; a
# section that is given is merged over its defaults and may hold no other key
_DEFAULTS = {
    "p": 2.0,
    "time_horizon": 1.0,
    "output_dir": "out",
    "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10, "max_dt": None, "dt_initial": None},
    "solver": {"steps": 32},
}

# preset parameters that are length scales or caps, so must lie above zero
_SCALES = frozenset({"sigma", "radius", "cap", "ell_a", "ell_r"})


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


def _preset_number(value, key, path):
    """Preset parameter ``key`` as a float: a finite real, not a boolean, and
    above zero for the scales in ``_SCALES``."""
    positive = key in _SCALES
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or (positive and not value > 0)):
        raise SchemaError(f"{path}.params.{key}",
                          f"must be a finite {'positive ' if positive else ''}number, got {value!r}")
    return float(value)


def _preset(presets, spec, path, key):
    """The preset that ``spec[key]`` names in ``presets``, built from ``spec["params"]``.

    ``presets`` maps each name to a factory whose keyword arguments are the
    preset's parameters, with their defaults.  ``spec`` holds no key but
    ``key`` and ``params``; every given parameter must be one of the
    factory's and pass :func:`_preset_number`.
    """
    _check_keys(spec, (key, "params"), path)
    name = _require(spec, key, path, str)
    if name not in presets:
        raise SchemaError(f"{path}.{key}",
                          f"unknown preset {name!r}; expected one of {sorted(presets)}")
    params = spec.get("params", {})
    _check_keys(params, inspect.signature(presets[name]).parameters, f"{path}.params")
    return presets[name](**{param: _preset_number(value, param, path)
                            for param, value in params.items()})


def _constant_eta(value=1.0):
    return lambda xs, ys: np.full(np.broadcast_shapes(xs.shape[:-1], ys.shape[:-1]), value)


def _gaussian_eta(sigma=1.0):
    def eta(xs, ys):
        with np.errstate(over="ignore"):  # a square beyond the float range gives exp(-inf) = 0
            return np.exp(-np.sum((xs - ys) ** 2, axis=-1) / (2.0 * sigma**2))
    return eta


def _cutoff_eta(radius=1.0):
    return lambda xs, ys: (pair_distance(xs, ys) <= radius).astype(float)


ETA_PRESETS = {"constant": _constant_eta, "gaussian": _gaussian_eta, "cutoff": _cutoff_eta}


def _finite_array(section, key, path):
    """section[key], a JSON array of finite numbers, as a float array; a
    string is not a number, also when it spells one."""
    try:
        values = np.asarray(_require(section, key, path, list))
    except ValueError:  # ragged nesting
        values = np.array(None)
    if values.dtype.kind not in "if" or not np.all(np.isfinite(values)):
        raise SchemaError(f"{path}.{key}", "expected an array of finite numbers")
    return values.astype(float, copy=False)


def _build_graph_section(section):
    _check_keys(section, ("points", "weights", "eta_matrix", "eta_preset"), "graph")
    if ("eta_matrix" in section) == ("eta_preset" in section):
        raise SchemaError("graph", "needs exactly one of eta_matrix or eta_preset")
    points = _finite_array(section, "points", "graph")
    weights = _finite_array(section, "weights", "graph")
    if "eta_matrix" in section:
        return build_graph(points, weights, _finite_array(section, "eta_matrix", "graph"))
    spec = _require(section, "eta_preset", "graph", dict)
    return build_graph(points, weights, _preset(ETA_PRESETS, spec, "graph.eta_preset", "name"))


def _check_keys(section, allowed, path):
    """Reject a ``section`` that is not an object or holds a key outside ``allowed``."""
    if not isinstance(section, dict):
        raise SchemaError(path, "expected an object")
    for key in section:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown key")


def _preset_or_expression(spec, path, presets, from_expression, thresholds=()):
    """The function that the section ``spec`` names by exactly one of
    ``preset``, with ``params``, or ``expression``, with ``thresholds``."""
    if not isinstance(spec, dict):
        raise SchemaError(path, "expected an object")
    if ("preset" in spec) == ("expression" in spec):
        raise SchemaError(path, "needs exactly one of preset or expression")
    if "preset" in spec:
        return _preset(presets, spec, path, "preset")
    _check_keys(spec, ("expression", *thresholds), path)
    caps = {key: _threshold(spec, key, path) for key in thresholds}
    try:
        return from_expression(_require(spec, "expression", path, str), **caps)
    except ValueError as exc:
        raise SchemaError(f"{path}.expression", str(exc))


def _threshold(section, key, path):
    """A mobility threshold: a positive number, not a boolean; absent or
    infinite means unbounded."""
    value = section.get(key, math.inf)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value > 0:
        raise SchemaError(f"{path}.{key}", f"must be a positive number, got {value!r}")
    return float(value)


def _build_kernels_section(section, dimension):
    _check_keys(section, ("K11", "K12", "K21", "K22", "beta"), "kernels")
    fns = [_preset_or_expression(section.get(name, {"preset": "zero"}), f"kernels.{name}",
                                 kernels_mod.KERNEL_PRESETS, kernels_mod.kernel_from_expression)
           for name in ("K11", "K12", "K21", "K22")]
    given = {"beta": section["beta"]} if "beta" in section else {}
    try:  # the kernel set checks beta and the kernels; its messages start with the field
        return kernels_mod.build_kernel_set(*fns, dimension=dimension, **given)
    except SemanticError as exc:
        raise SemanticError(f"kernels.{exc}") from None


@dataclass
class RunConfig:
    system: kernels_mod.System
    initial_state: object  # SpeciesPairState or None when given as a recipe
    time_horizon: float
    integrator: dynamics.IntegratorOptions
    solver_steps: int
    output_dir: str
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
    _check_keys(raw, (*_DEFAULTS, "graph", "kernels", "mobility", "initial_state"), "$")

    resolved = json.loads(json.dumps(raw))  # deep copy, JSON-normalized
    for key, default in _DEFAULTS.items():
        if not isinstance(default, dict):
            resolved.setdefault(key, default)
            continue
        section = resolved.get(key, {})
        _check_keys(section, default, key)
        resolved[key] = {**default, **section}

    try:
        exponents = Exponents(resolved["p"])
    except ValueError as exc:  # the message starts with p, the key's path
        raise SemanticError(str(exc)) from None

    graph = _build_graph_section(_require(resolved, "graph", "$", dict))
    kernels = _build_kernels_section(
        _require(resolved, "kernels", "$", dict), graph.base.dimension
    )
    section = resolved.setdefault("mobility", {"preset": "linear"})
    if isinstance(section, dict) and "preset" in section:
        section.setdefault("params", {})  # echoed like every other default
    mobility = _preset_or_expression(section, "mobility", mobility_mod.PRESETS,
                                     mobility_mod.from_expression, thresholds=("R", "S"))
    try:
        with np.errstate(all="ignore"):  # a NaN value fails the check without a warning
            mobility_mod.validate_mobility(mobility)
    except (NotUpwindAdmissible, NotPositive, NotConcave) as exc:
        raise SchemaError("mobility", str(exc)) from None

    t_final = resolved["time_horizon"]
    if isinstance(t_final, bool) or not isinstance(t_final, (int, float)) or not (
            0 < t_final < math.inf):
        raise SemanticError(f"time_horizon must be a positive finite number, got {t_final!r}")

    integ = resolved["integrator"]
    try:  # null leaves a step size unset; the options check every value
        integrator = dynamics.IntegratorOptions(
            rel_tol=integ["rel_tol"],
            abs_tol=integ["abs_tol"],
            max_dt=np.inf if integ["max_dt"] is None else integ["max_dt"],
            dt_initial=integ["dt_initial"],
        )
    except ValueError as exc:  # e.g. a negative tolerance or an infinite first step
        raise SemanticError(f"integrator.{exc}") from exc
    sol = resolved["solver"]
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
        resolved=resolved,
    )


def parse_state(source, graph, path):
    """The state that ``source``, JSON text or a dict like a config's
    ``initial_state``, gives on ``graph``; its errors name ``path``."""
    raw = _parse_json(source) if isinstance(source, str) else source
    return _build_initial_state(raw, graph, path)


def _build_initial_state(section, graph, path="initial_state"):
    if not isinstance(section, dict):
        raise SchemaError(path, "expected an object")
    densities = "rho1" in section or "rho2" in section
    if densities == ("atoms1" in section or "atoms2" in section):
        raise SchemaError(path, "needs exactly one of rho1/rho2 or atoms1/atoms2")
    pair = ("rho1", "rho2") if densities else ("atoms1", "atoms2")
    _check_keys(section, (*pair, "projection"), path)
    _check_projection(section, path)
    if densities:
        rhos = [_finite_array(section, name, path) for name in pair]
        if any(rho.shape != (graph.n_vertices,) for rho in rhos):
            raise SchemaError(path, f"densities must have length {graph.n_vertices}")
        if min(np.min(rho) for rho in rhos) < 0:
            raise SemanticError(f"initial densities must be nonnegative in {path}")
    else:
        rhos = []
        for name in pair:
            atoms = _require(section, name, path, dict)
            _check_keys(atoms, ("positions", "masses"), f"{path}.{name}")
            rho, _ = project_initial(_finite_array(atoms, "positions", f"{path}.{name}"),
                                     _finite_array(atoms, "masses", f"{path}.{name}"), graph.base)
            rhos.append(rho)
    state = dynamics.SpeciesPairState.from_densities(*rhos)  # one mass rule for both
    masses = state.masses(graph)
    if np.max(np.abs(masses - 1.0)) > 1e-8:
        raise SemanticError(f"initial species masses {masses} are not 1 in {path}")
    # exact unit mass after round-off
    state.rho /= masses[:, None]
    return state


# ---------------------------------------------------------------------------
# initial-data projection
# ---------------------------------------------------------------------------

# The one name of the "projection" key: the nearest-vertex map, an optimal
# plan, that ``project_initial`` computes.
PROJECTIONS = ("nearest",)


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

    dist = pair_distance(positions[:, None, :], base.points[None, :, :])
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

def _gaussian_density(mean=0.0, sigma=1.0):
    # mean + sigma * Phi^-1(u); scipy.stats.norm.ppf computes the same
    # expression, but importing scipy.stats costs about half a second, and
    # scipy.special is imported here so that only refinement studies load it
    from scipy.special import ndtri

    return lambda u: mean + sigma * ndtri(u)


def _uniform_density(low=0.0, high=1.0):
    return lambda u: low + (high - low) * np.asarray(u)


# quantile functions of the target densities, built from their parameters
DENSITY_PRESETS = {"gaussian": _gaussian_density, "uniform": _uniform_density}


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
    quantile: object = field(init=False, repr=False, compare=False)  # u -> x, from the density

    def __post_init__(self):
        density = {"name": self.density_name, "params": self.density_params}
        object.__setattr__(self, "quantile", _preset(DENSITY_PRESETS, density, "plan.density", "name"))
        ladder = list(self.ladder)
        if not all(_is_integer(n) and n >= 1 for n in ladder):
            raise SchemaError("plan.ladder", f"vertex counts must be integers >= 1, got {ladder}")
        if ladder != sorted(set(ladder)) or len(ladder) == 0:
            raise SchemaError("plan.ladder", "must be strictly increasing and nonempty")
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

    def sample_base(self, n):
        """n quantile midpoints of the target density, equal weights."""
        u = (np.arange(n) + 0.5) / n
        points = self.quantile(u).reshape(n, 1)
        weights = np.full(n, self.total_mass / n)
        return points, weights


def parse_plan(source):
    raw = _parse_json(source) if isinstance(source, str) else source
    options = ("total_mass", "initial_atoms", "transport_diagnostic", "transport_steps")
    _check_keys(raw, ("density", "ladder", "projection", *options), "plan")
    density = _require(raw, "density", "plan", dict)
    _check_keys(density, ("name", "params"), "plan.density")
    _check_projection(raw, "plan")
    return RefinementPlan(  # an option the plan leaves out keeps the field's default
        density_name=_require(density, "name", "plan.density", str),
        density_params=density.get("params", {}),
        ladder=tuple(_require(raw, "ladder", "plan", list)),
        **{key: raw[key] for key in options if key in raw},
    )


@dataclass
class StudyLevel:
    n_vertices: int
    failed: bool = False
    error: str = ""
    g_t: float = math.nan
    w1_gap_from_previous: float = math.nan
    final_masses: tuple = ()
    energy_series: tuple = ()  # (t, energy) pairs along the level's trajectory, ends included
    # joint W1 / T^(1/p) report between the level's initial and final states;
    # the continuum comparison constant is unknown, so these are not asserted
    w1_start_to_final: float = math.nan
    transport_start_to_final: float = math.nan


@dataclass
class StudyReport:
    levels: list

    @property
    def w1_gaps(self):
        """Each later level's W1 gap to its predecessor; a failed level breaks the chain."""
        return [level.w1_gap_from_previous
                for previous, level in zip(self.levels, self.levels[1:])
                if not (previous.failed or level.failed)]


def _ladder_eta(section):
    """The eta preset of a refinement study's graphs, which have their own vertex
    counts: the graph section's, or the constant of its eta_matrix off the diagonal."""
    if "eta_preset" in section:
        return section["eta_preset"]
    eta = np.asarray(section["eta_matrix"], dtype=float)  # symmetric, as the graph checked
    values = np.unique(eta[np.triu_indices(len(eta), 1)]).tolist()
    if len(values) > 1:
        raise SchemaError("graph.eta_matrix", "a refinement study needs eta constant off the "
                          f"diagonal, got values from {values[0]!r} to {values[-1]!r}")
    return {"name": "constant", "params": {"value": values[0]} if values else {}}


def run_refinement_study(plan, config):
    """Integrate the same data on a ladder of vertex counts and compare endpoints.

    Each level samples the plan's target density, projects the initial atoms,
    integrates to the configured horizon, and reports the De Giorgi residual;
    the study then lists W1 distances between consecutive final states.
    Failed levels are marked and skipped in the gap list.
    """
    atom_positions, _ = plan.sample_base(plan.initial_atoms)  # the atoms at the quantile midpoints
    atom_masses = np.full(plan.initial_atoms, 1.0 / plan.initial_atoms)
    eta = _preset(ETA_PRESETS, _ladder_eta(config.resolved["graph"]), "graph.eta_preset", "name")

    def run_level(n):
        level = StudyLevel(n_vertices=n)
        try:
            graph = build_graph(*plan.sample_base(n), eta)
            system = replace(config.system, graph=graph)  # the config's kernels, on this graph
            rho, _ = project_initial(atom_positions, atom_masses, graph.base)
            state = dynamics.SpeciesPairState.from_densities(rho, rho.copy())
            trajectory = dynamics.integrate(system, state, config.time_horizon, config.integrator)
            report = diagnostics.de_giorgi(system, trajectory)
            level.g_t = report.g_t
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
                    plan.transport_steps, system.mobility, system.kernels.beta, system.exponents,
                )
                level.transport_start_to_final = t_value ** (1.0 / system.exponents.p)
            return level, graph, trajectory.states[-1]
        except Exception as exc:  # levels fail independently
            level.failed = True
            level.error = f"{type(exc).__name__}: {exc}"
            return level, None, None

    results = [run_level(n) for n in plan.ladder]
    for (previous, graph_a, final_a), (level, graph_b, final_b) in zip(results, results[1:]):
        if not (previous.failed or level.failed):
            level.w1_gap_from_previous = diagnostics.w1_between_states(final_a, final_b,
                                                                       graph_a, graph_b)
    return StudyReport(levels=[level for level, _, _ in results])
