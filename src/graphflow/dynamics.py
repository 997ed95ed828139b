"""Upwind gradient-flow flux, ODE right-hand side, and adaptive integration.

For each species with descent velocity w = -beta * (nonlocal gradient of the
energy's variational derivative), the flux on the edge (l, k) is

    j(l, k) = m(rho_l, rho_k) (w_+)^(q-1) - m(rho_k, rho_l) (w_-)^(q-1),

i.e. the mobility is evaluated at the source vertex of the flow and enters
to the first power.  This is the unique flux for which the Finsler pairing
identity l_rho(j)[.] = -dE[.] and the exact dissipation balance
dE/dt = -D(rho) hold for every exponent p; the resulting trajectories are
curves of maximal slope (zeros of the De Giorgi functional).  The flux is
antisymmetric, so it is a (2, links) array of its values on the edges
(lo, hi), one flux-law evaluation per link, with the mobility of the state
clipped into its box from :func:`~graphflow.mobility.link_mobility`, as the
action, the dual action and the De Giorgi terms take it.

The flow is that of a :class:`~graphflow.kernels.System`, which binds the
graph, kernels, mobility and exponents; the flux, the right-hand side and
the integrator take it as their first argument.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import StepSizeUnderflow, ThresholdExceeded
from .graph import nonlocal_divergence
from .kernels import descent_velocities, energy, potentials
from .mobility import check_slack, flux_law, link_mobility

GUARD_TOL = 1e-12  # simplex guard on accepted integrator steps
DT_MIN = 1e-14  # integrator steps below this (or 1e-10 t_final) raise StepSizeUnderflow


@dataclass
class SpeciesPairState:
    """Per-vertex densities of the two species with respect to mu."""

    rho: np.ndarray  # (2, n)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if rho.ndim != 2 or rho.shape[0] != 2:
            raise ValueError(f"state must have shape (2, n), got {rho.shape}")
        self.rho = rho

    @classmethod
    def from_densities(cls, rho1, rho2):
        return cls(np.stack([np.asarray(rho1, dtype=float), np.asarray(rho2, dtype=float)]))

    @property
    def rho1(self):
        return self.rho[0]

    @property
    def rho2(self):
        return self.rho[1]

    def masses(self, graph):
        return self.rho @ graph.weights

    def validate(self, graph, mobility=None, masses=(1.0, 1.0), tol=1e-9):
        if self.rho.shape[1] != graph.n_vertices:
            raise ValueError(
                f"state has {self.rho.shape[1]} vertices, graph has {graph.n_vertices}"
            )
        if np.min(self.rho) < -tol:
            raise ThresholdExceeded(f"negative density {np.min(self.rho):.3e}")
        got = self.masses(graph)
        drift = np.abs(got - np.asarray(masses, dtype=float))
        if np.max(drift) > max(tol, 1e-9):
            raise ValueError(f"species masses {got} differ from target {masses}")
        if mobility is not None and mobility.bounded:
            cap = mobility.threshold_cap
            if np.max(self.rho) > cap + tol:
                raise ThresholdExceeded(
                    f"density {np.max(self.rho):.6g} exceeds mobility threshold {cap}"
                )
        return self


def upwind_flux(system, rho_pair):
    """Gradient-flow flux pair (2, links): its values on the edges (lo, hi).

    Raises ThresholdExceeded beyond the slack of :func:`check_slack`; within
    it the mobility is that of the state clipped into the box.
    """
    graph, mobility = system.graph, system.mobility
    check_slack(rho_pair, mobility)
    scaled = descent_velocities(graph, potentials(system, rho_pair))
    scaled *= system.kernels.beta[:, None]
    fwd, bwd, _ = link_mobility(graph, rho_pair, mobility)
    return flux_law(scaled, fwd, bwd, system.exponents)


def rhs(system, rho_pair):
    """Density time derivative -div(j) per species; conserves mass exactly.

    The flux is evaluated once per link and its divergence taken by
    :func:`~graphflow.graph.nonlocal_divergence`, one species row at a time.
    """
    rate = nonlocal_divergence(system.graph, upwind_flux(system, rho_pair))
    return np.negative(rate, out=rate)


@dataclass
class IntegratorOptions:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_dt: float = np.inf
    dt_initial: float = None

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
                    0.0 <= value < np.inf):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if self.rel_tol == 0.0 and self.abs_tol == 0.0:
            raise ValueError("rel_tol and abs_tol must not both be 0")
        # only None means "unset": a zero first step must not fall back to the default
        if self.dt_initial is not None and not 0.0 < self.dt_initial < np.inf:
            raise ValueError(f"dt_initial must be None or finite and > 0, got {self.dt_initial!r}")
        if not self.max_dt > 0.0:
            raise ValueError(f"max_dt must be > 0 (inf allowed), got {self.max_dt!r}")


@dataclass
class Trajectory:
    """Accepted states of one integration run.

    ``node_fluxes`` is an optional input for hand-built curves (e.g.
    non-gradient perturbations): ``node_fluxes[k]`` is the flux at
    ``states[k]``.  :func:`integrate` leaves it unset, and diagnostics then
    evaluate the gradient-flow flux law at each state.  The diagnostics
    compute each state's energy from its potentials and never read
    ``energies``, so a curve read back from its states may leave it None.
    """

    times: np.ndarray  # (m+1,)
    states: np.ndarray  # (m+1, 2, n)
    energies: np.ndarray  # (m+1,), or None
    stats: dict = field(default_factory=dict)
    node_fluxes: np.ndarray = None  # (m+1, 2, links)

    @property
    def dts(self):
        return np.diff(self.times)

    @property
    def n_steps(self):
        return len(self.times) - 1


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def integrate(system, state0, t_final, options=None):
    """Adaptive Dormand-Prince 5(4) integration on the invariant simplex.

    A step is rejected (and dt halved) when any density would leave
    [-GUARD_TOL, threshold + GUARD_TOL]; accepted states are clamped into the
    box and renormalized in mass, with both amounts accumulated in the run
    statistics.  Evaluation failures at wild trial states count as rejections.
    The last stage of an accepted step, the rate at its 5th-order state, is
    the first stage of the next (first same as last), so a step costs six
    ``rhs`` evaluations: the accepted state differs from the 5th-order one
    only by the clamp, at most GUARD_TOL, and the renormalization, at
    round-off, and every rate conserves mass exactly.
    ``t_final`` must be finite and > 0.  A step that the controller shrinks
    below max(DT_MIN, 1e-10 t_final), or more than 60 rejections in a row,
    raise :class:`StepSizeUnderflow`.
    """
    if not 0.0 < t_final < np.inf:
        raise ValueError(f"t_final must be finite and > 0, got {t_final!r}")
    graph, mobility = system.graph, system.mobility
    options = options or IntegratorOptions()
    state0 = state0 if isinstance(state0, SpeciesPairState) else SpeciesPairState(state0)
    masses0 = state0.masses(graph)
    state0.validate(graph, mobility, masses=masses0)
    cap = mobility.threshold_cap

    y = state0.rho.copy()
    t = 0.0
    dt = options.dt_initial
    if dt is None:
        dt = min(options.max_dt, max(t_final / 100.0, 1e-6), t_final)

    times = [0.0]
    states = [y.copy()]
    energies = [energy(system, y)]
    min_density = float(np.min(y))
    max_density = float(np.max(y))
    clamp_total = 0.0
    renorm_total = 0.0
    accepted = rejected = 0

    k1 = rhs(system, y)
    rejects_in_a_row = 0
    # a run whose steps fall below this would not reach t_final in 1e10 of them
    dt_floor = max(DT_MIN, 1e-10 * t_final)
    while t < t_final - 1e-14:
        dt = min(dt, options.max_dt)
        if dt < dt_floor or rejects_in_a_row > 60:
            raise StepSizeUnderflow(
                f"dt underflow at t={t:.6g}", state=SpeciesPairState(y.copy()), time=t
            )
        dt = min(dt, t_final - t)
        stages = [k1]
        try:
            for row in range(1, 7):
                trial = y + dt * sum(
                    a * k for a, k in zip(_DP_A[row], stages)
                )
                if row < 6:
                    stages.append(rhs(system, trial))
                else:
                    y5 = trial  # row 6 coefficients equal the 5th-order weights
                    stages.append(rhs(system, y5))
        except (ThresholdExceeded, FloatingPointError):
            dt *= 0.5
            rejected += 1
            rejects_in_a_row += 1
            continue

        err_vec = dt * sum((b5 - b4) * k for b5, b4, k in zip(_DP_B5, _DP_B4, stages))
        scale = options.abs_tol + options.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))

        wild = not (np.all(np.isfinite(y5)) and np.isfinite(err))
        lo = float(np.min(y5)) if not wild else 0.0
        hi = float(np.max(y5)) if not wild else 0.0
        guard_bad = wild or lo < -GUARD_TOL or (np.isfinite(cap) and hi > cap + GUARD_TOL)
        if err > 1.0 or guard_bad:
            rejected += 1
            rejects_in_a_row += 1
            dt = 0.5 * dt if guard_bad else dt * min(1.0, max(0.2, 0.9 * err ** (-0.2)))
            continue
        rejects_in_a_row = 0

        min_density = min(min_density, lo)
        max_density = max(max_density, hi)
        y_new = np.clip(y5, 0.0, cap if np.isfinite(cap) else None)
        clamp_total += float(np.sum(np.abs(y_new - y5) * graph.weights[None, :]))
        new_masses = y_new @ graph.weights
        factors = masses0 / new_masses
        renorm_total += float(np.sum(np.abs(factors - 1.0) * masses0))
        y_new = y_new * factors[:, None]

        t += dt
        y = y_new
        times.append(t)
        states.append(y.copy())
        energies.append(energy(system, y))
        accepted += 1
        k1 = stages[6]  # first same as last: the rate at y5, which y equals up to the guard
        dt = dt * min(5.0, max(0.2, 0.9 * err ** (-0.2))) if err > 0 else dt * 5.0

    final_masses = y @ graph.weights
    stats = {
        "accepted_steps": accepted,
        "rejected_steps": rejected,
        "min_density": min_density,
        "max_density": max_density,
        "clamped_mass": clamp_total,
        "renormalized_mass": renorm_total,
        "mass_drift": float(np.max(np.abs(final_masses - masses0))),
        "target_masses": masses0.tolist(),
    }
    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        energies=np.asarray(energies),
        stats=stats,
    )
