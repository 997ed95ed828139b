"""Interaction kernels and the cross-interaction energy with its potentials.

The energy of a density pair is

    E(rho) = 1/2 sum_{i,k} sum_{l,h} K^(ik)(x_l, x_h) rho^(i)_l rho^(k)_h mu_l mu_h

with symmetric kernels K(x, y) = K(y, x).  The gradient-flow structure
requires the cross kernels to be positive multiples of each other; the
constructor accepts K12 = c * K21 and stores the symmetrized cross kernel
(K12 + K21)/2, which leaves the energy and both variational derivatives
unchanged for every choice of the species weights beta.

A :class:`System` binds a graph, its kernels, a mobility and the exponents:
the gradient-flow structure that the flow and the diagnostics act on.  It
holds the kernel matrices on the graph's vertices, built on first use.
Functions that need the kernels take the system first; functions
that need only the graph take the graph first.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SemanticError
from .expressions import compile_expression
from .graph import Exponents, FiniteGraph, _is_real, pair_distance

_SYMMETRY_TOL = 1e-9
# the kernel checks and the growth estimate sample [-_BOX, _BOX]^d, seeded alike on every run
_BOX = 2.0
_SEED = 0
_GROWTH_SAMPLES = 400


def _pairwise(fn, xs, ys):
    """Evaluate a kernel callable on all point pairs: (n, d) x (m, d) -> (n, m)."""
    return np.asarray(fn(xs[:, None, :], ys[None, :, :]), dtype=float)


@dataclass(frozen=True)
class KernelSet:
    """Self-interaction kernels k11, k22, the symmetrized cross kernel k12, and
    the species weights beta, a float array of two finite positive reals.

    The kernels are callables on broadcast point arrays returning the kernel
    value; :func:`build_kernel_set` makes a validated set.
    """

    k11: object
    k12: object
    k22: object
    beta: np.ndarray

    def __post_init__(self):
        beta = self.beta
        if not (isinstance(beta, np.ndarray) and beta.shape == (2,)
                and np.all((beta > 0) & (beta < np.inf))):
            raise SemanticError(f"beta must be two finite positive reals, got {beta}")

    def on_graph(self, graph):
        """The kernel matrices K11, K12, K22 on the graph's vertices, (3, n, n);
        K21 equals K12."""
        xs = graph.points
        return np.stack([_pairwise(fn, xs, xs) for fn in (self.k11, self.k12, self.k22)])


@dataclass(frozen=True)
class System:
    """A graph, its kernels, a mobility and the exponents, bound together."""

    graph: FiniteGraph
    kernels: KernelSet
    mobility: object
    exponents: Exponents

    @cached_property
    def matrices(self):
        """The kernel matrices K11, K12, K22 on the graph's vertices, (3, n, n),
        built on first use, so a system that is never evaluated skips the n²
        kernel values."""
        return self.kernels.on_graph(self.graph)


def _check_symmetry(fn, name, rng, dim):
    xs = rng.uniform(-_BOX, _BOX, size=(24, dim))
    ys = rng.uniform(-_BOX, _BOX, size=(24, dim))
    a = np.asarray(fn(xs, ys), dtype=float)
    b = np.asarray(fn(ys, xs), dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))))
    gap = float(np.max(np.abs(a - b)))
    if gap > _SYMMETRY_TOL * scale:
        raise SemanticError(f"{name} violates K(x,y)=K(y,x) by {gap:.3e}")


def _cross_ratio(k12, k21, rng, dim):
    """Return c > 0 with K12 = c * K21 on samples, or raise SemanticError."""
    xs = rng.uniform(-_BOX, _BOX, size=(64, dim))
    ys = rng.uniform(-_BOX, _BOX, size=(64, dim))
    a = np.asarray(k12(xs, ys), dtype=float).ravel()
    b = np.asarray(k21(xs, ys), dtype=float).ravel()
    scale_a = float(np.max(np.abs(a)))
    scale_b = float(np.max(np.abs(b)))
    if scale_a < 1e-14 and scale_b < 1e-14:
        return 1.0
    if scale_a < 1e-14 or scale_b < 1e-14:
        raise SemanticError("K12 is not a positive multiple of K21: one of them vanishes")
    mask = np.abs(b) > 1e-10 * scale_b
    ratios = a[mask] / b[mask]
    c = float(np.median(ratios))
    if c <= 0 or np.max(np.abs(a - c * b)) > 1e-8 * max(scale_a, 1.0):
        raise SemanticError("K12 is not a positive multiple of K21 (K12 != c*K21)")
    return c


def build_kernel_set(k11, k12, k21, k22, beta=(1.0, 1.0), dimension=1):
    """Validate kernels and return the canonical :class:`KernelSet`.

    ``beta`` is a list, tuple or 1-D array of two real numbers, none a
    boolean; :class:`KernelSet` then requires both finite and positive.
    Symmetry K(x,y) = K(y,x) and the cross-proportionality K12 = c * K21 are
    always checked on seeded samples; the cross kernels are then replaced by their
    average (K12 + K21)/2, which preserves the energy exactly.
    """
    pair = list(beta) if isinstance(beta, np.ndarray) and beta.ndim == 1 else beta
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_real, pair))):
        raise SemanticError(f"beta must be two real numbers, not booleans, got {beta!r}")
    rng = np.random.default_rng(_SEED)
    for fn, name in ((k11, "K11"), (k12, "K12"), (k21, "K21"), (k22, "K22")):
        _check_symmetry(fn, name, rng, dimension)
    _cross_ratio(k12, k21, rng, dimension)

    def cross(xs, ys, _a=k12, _b=k21):
        return 0.5 * (np.asarray(_a(xs, ys), dtype=float) + np.asarray(_b(xs, ys), dtype=float))

    return KernelSet(k11=k11, k12=cross, k22=k22, beta=np.asarray(beta, dtype=float).ravel())


def estimate_growth_constant(kernels, dimension, exponents):
    """Sampled lower estimate of L_K in |K(z) - K(z')| <= L_K (|z-z'| v |z-z'|^p)."""
    rng = np.random.default_rng(_SEED)
    p = exponents.p
    worst = 0.0
    # the cross kernel stands for K12 and K21, so it is sampled twice
    for fn in (kernels.k11, kernels.k12, kernels.k12, kernels.k22):
        z0 = rng.uniform(-_BOX, _BOX, size=(_GROWTH_SAMPLES, 2 * dimension))
        z1 = rng.uniform(-_BOX, _BOX, size=(_GROWTH_SAMPLES, 2 * dimension))
        x0, y0 = z0[:, :dimension], z0[:, dimension:]
        x1, y1 = z1[:, :dimension], z1[:, dimension:]
        num = np.abs(
            np.asarray(fn(x0, y0), dtype=float) - np.asarray(fn(x1, y1), dtype=float)
        )
        dist = np.linalg.norm(z0 - z1, axis=1)
        den = np.maximum(dist, dist**p)
        good = den > 1e-9
        if np.any(good):
            worst = max(worst, float(np.max(num[good] / den[good])))
    return worst


# ---------------------------------------------------------------------------
# kernel presets
# ---------------------------------------------------------------------------

def kernel_from_expression(text):
    """Kernel from an expression in the edge length variable ``d`` = |x - y|.

    An overflow inside the formula gives inf without a warning: the square
    of a distance of 1e200 is inf, and ``exp(-d^2)`` there is exactly 0.
    The presets below are such formulas, with their parameters written in
    as numbers, so a non-finite parameter raises ExpressionError, a
    ValueError; a configuration refuses one before.
    """
    fn = compile_expression(text, ("d",))

    def kernel(xs, ys):
        with np.errstate(over="ignore"):
            return fn(pair_distance(xs, ys))
    return kernel


def distance():
    """K(x, y) = |x - y| (attractive for clustered mass)."""
    return kernel_from_expression("d")


def quadratic():
    """K(x, y) = |x - y|^2; legal under p-growth for p >= 2."""
    return kernel_from_expression("d^2")


def gaussian_well(sigma=1.0):
    """K(x, y) = -exp(-|x-y|^2 / sigma^2), a smooth attractive well."""
    return kernel_from_expression(f"-exp(-d^2/{float(sigma) ** 2!r})")


def morse_like(attract=1.0, ell_a=1.0, repulse=0.5, ell_r=0.5):
    """a exp(-|x-y|/l_a) - r exp(-|x-y|/l_r): short-range repulsion, long-range attraction."""
    attract, ell_a, repulse, ell_r = map(float, (attract, ell_a, repulse, ell_r))
    return kernel_from_expression(
        f"{attract!r}*exp(-d/{ell_a!r})-{repulse!r}*exp(-d/{ell_r!r})")


def zero():
    """K(x, y) = 0."""
    return kernel_from_expression("0")


KERNEL_PRESETS = {
    "distance": distance,
    "quadratic": quadratic,
    "gaussian_well": gaussian_well,
    "morse_like": morse_like,
    "zero": zero,
}


# ---------------------------------------------------------------------------
# energy and its variational derivatives on a graph
# ---------------------------------------------------------------------------

def potentials(system, rho_pair):
    """Variational derivatives (K^(i1) * rho1 + K^(i2) * rho2) per species, (2, n)."""
    k11, k12, k22 = system.matrices
    masses = np.asarray(rho_pair, dtype=float) * system.graph.weights[None, :]
    return np.stack([k11 @ masses[0] + k12 @ masses[1], k12 @ masses[0] + k22 @ masses[1]])


def energy(system, rho_pair):
    """Cross-interaction energy of the density pair."""
    rho_pair = np.asarray(rho_pair, dtype=float)
    return energy_from_potentials(system.graph, potentials(system, rho_pair), rho_pair)


def energy_from_potentials(graph, phi, rho_pair):
    """The energy of ``rho_pair`` given its potentials ``phi``: half their pairing with its masses."""
    masses = rho_pair * graph.weights[None, :]
    return 0.5 * float(np.sum(phi * masses))
