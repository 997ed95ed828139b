"""Concave mobility functions, their recession limits, and the flux cost density.

A mobility ``m(r, s)`` weights how easily mass leaves a vertex with density
``r`` toward a vertex with density ``s``; upwind admissibility means
``m(0, s) = 0`` so empty vertices emit nothing.  The convex cost density

    alpha(j, r, s) = (j_+)^p / m(r, s)^(p-1)

uses the conventions 0/0 = 0 and a/0 = +inf for a != 0 and is +inf outside
the threshold box [0, R] x [0, S].  Infinity is a value here, never an error;
NaN is always a bug.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonConvergent,
    NotApplicable,
    NotConcave,
    NotPositive,
    NotUpwindAdmissible,
    ThresholdExceeded,
)
from .expressions import compile_expression
from .graph import link_ends

_RECESSION_LAMBDAS = (2.0**10, 2.0**12, 2.0**14, 2.0**16)
_RECESSION_RTOL = 1e-6
STATE_TOL = 1e-8  # slack accepted on raw states before ThresholdExceeded
# the sampled checks: a _GRID x _GRID grid, cut at _BOX; a recession under _SUBLINEAR_TOL is 0
_GRID = 16
_BOX = 4.0
_SUBLINEAR_TOL = 1e-6


@dataclass(frozen=True)
class Mobility:
    """A concave mobility with thresholds and an optional closed-form recession.

    ``fn`` must be vectorized over numpy arrays.  ``R`` and ``S`` are the
    right-open thresholds of the domain [0, R) x [0, S); at finite thresholds
    the function is evaluated by its boundary limit value.  Every preset and
    :func:`from_expression` make ``fn`` a compiled formula, whose ``jet``
    gives the value with its exact gradient and Hessian, as the transport
    solver needs them; a bare callable has none.
    """

    name: str
    fn: object
    R: float = np.inf
    S: float = np.inf
    recession_fn: object = None

    def __call__(self, r, s):
        return np.asarray(self.fn(np.asarray(r, dtype=float), np.asarray(s, dtype=float)), dtype=float)

    @property
    def threshold_cap(self):
        """Largest density value admissible in either slot."""
        return min(self.R, self.S)

    @property
    def bounded(self):
        return bool(np.isfinite(self.threshold_cap))


@dataclass(frozen=True)
class MobilityClass:
    """Support-condition flags; at least one true means condition (A) holds."""

    uniformly_sublinear: bool
    bounded_thresholds: bool
    vanishing_iff_source_zero: bool

    @property
    def condition_a(self):
        return self.uniformly_sublinear or self.bounded_thresholds or self.vanishing_iff_source_zero


@dataclass(frozen=True)
class MobilityValidation:
    mobility_name: str
    flags: MobilityClass
    max_concavity_violation: float
    min_interior_value: float


def _formula(text):
    return compile_expression(text, ("r", "s"))


def linear():
    """m(r, s) = r, the Benamou-Brenier mobility; 1-homogeneous."""
    fn = _formula("r")
    return Mobility("linear", fn, recession_fn=fn)


def volume_filling(cap=1.0):
    """m(r, s) = r (cap - s)/cap on [0, inf) x [0, cap): inflow saturates at cap."""
    cap = float(cap)
    if not 0 < cap < np.inf:
        raise ValueError("volume_filling cap must be positive and finite")
    return Mobility("volume_filling", _formula(f"r*({cap!r}-s)/{cap!r}"), R=np.inf, S=cap)


def saturating():
    """m(r, s) = r/(1+r): uniformly sublinear growth, recession identically zero."""
    return Mobility("saturating", _formula("r/(1.0+r)"), recession_fn=_formula("0"))


def geometric():
    """m(r, s) = sqrt(rs): vanishes when the destination is empty.

    Violates every clause of condition (A); kept as a negative test case.
    """
    fn = _formula("sqrt(r*s)")
    return Mobility("geometric", fn, recession_fn=fn)


PRESETS = {
    "linear": linear,
    "volume_filling": volume_filling,
    "saturating": saturating,
    "geometric": geometric,
}


def from_expression(text, R=np.inf, S=np.inf):
    """Build a mobility from an expression in the variables ``r`` and ``s``."""
    return Mobility(f"expr:{text}", _formula(text), R=float(R), S=float(S))


def positive_part(x):
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def alpha_density(j, r, s, mobility, exponents):
    """Upwind cost density (j_+)^p / m(r,s)^(p-1) as an extended real.

    Total on R^3 with values in [0, inf]: outside [0, R] x [0, S] the value
    is inf; 0/0 = 0 and a/0 = inf for a > 0.  Inputs broadcast.  The
    mobility is evaluated on the whole array, with the arguments clipped
    into the box (clipping leaves every point inside unchanged), and
    :func:`cost_density` applies the conventions.
    """
    j, r, s = (np.asarray(x, dtype=float) for x in (j, r, s))
    scalar = j.ndim == r.ndim == s.ndim == 0
    # a scalar is evaluated as a one-element array, by the same array loops
    j, r, s = np.broadcast_arrays(np.atleast_1d(j), r, s)
    outside = (r < 0) | (s < 0) | (r > mobility.R) | (s > mobility.S)
    m = mobility(np.clip(r, 0.0, mobility.R), np.clip(s, 0.0, mobility.S))
    out = cost_density(j, m, exponents, outside)
    return float(out[0]) if scalar else out


def check_slack(rho_pair, mobility):
    """Raise ThresholdExceeded when a state leaves [0, cap] by more than STATE_TOL."""
    lo, hi = float(np.min(rho_pair)), float(np.max(rho_pair))
    cap = mobility.threshold_cap
    if lo < -STATE_TOL or hi > cap + STATE_TOL:
        raise ThresholdExceeded(
            f"state outside [0, {cap}] by more than {STATE_TOL}: min={lo:.3e} max={hi:.3e}"
        )


def link_mobility(graph, rho_pair, mobility):
    """``fwd`` = m(rho_lo, rho_hi) and ``bwd`` = m(rho_hi, rho_lo) at every
    link of a species pair (2, n), or of one pair per interval (K, 2, n), at
    the state clipped into the box [0, cap], cap = min(R, S), and the
    (2, links) or (K, 2, links) mask of the links with an end outside it,
    None when every state lies in the box.  The mask is the union of the
    masks :func:`alpha_density` forms for the two orientations of a link.
    """
    rho = np.asarray(rho_pair, dtype=float)
    cap = mobility.threshold_cap
    outside = None
    if not (rho.min(initial=np.inf) >= 0 and rho.max(initial=-np.inf) <= cap):
        outside = np.logical_or(*link_ends(graph, (rho < 0) | (rho > cap)))
        rho = np.clip(rho, 0.0, cap)
    r_lo, r_hi = link_ends(graph, rho)
    return mobility(r_lo, r_hi), mobility(r_hi, r_lo), outside


def cost_density(j, m, exponents, outside=None):
    """The cost density (j_+)^p / m^(p-1) of fluxes ``j`` at mobility values
    ``m`` of their shape, with the conventions of :func:`alpha_density`.

    An undefined mobility value (NaN) carries no cost, a/0 = inf for a > 0
    (m <= 0 counts as 0), 0/0 = 0, and the value is inf wherever the mask
    ``outside`` (or None) holds.  The convention masks are written into the
    ratio's buffer only when one can change a value: with every m > 0 and no
    NaN in the ratio, 0/m^(p-1) is already 0 and no other case occurs.
    """
    p = exponents.p
    out = positive_part(j)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out **= p
        out /= m if p == 2.0 else m ** (p - 1.0)
    if not (m.min(initial=np.inf) > 0 and not np.isnan(out.max(initial=-np.inf))):
        np.copyto(out, 0.0, where=~(m > 0))
        np.copyto(out, np.inf, where=m <= 0)
        np.copyto(out, 0.0, where=~(j > 0))  # j_+ = 0, or j is NaN
    if outside is not None:
        np.copyto(out, np.inf, where=outside)
    return out


def dual_density(v, fwd, bwd, exponents):
    """Velocity-form cost density m_up |v|^q of velocities ``v``, with m_up
    the mobility in the direction each points: ``fwd`` = m(r, s) where
    v > 0, else ``bwd`` = m(s, r).

    The value is 0 where v = 0 or m_up is not positive: a vanishing
    mobility carries neither flux nor cost, and an undefined one (NaN)
    carries no cost, as in :func:`cost_density`.  That mask is written only
    when it can change a value: with every m_up > 0 and no NaN in the
    product, 0 |v|^q is already 0.
    """
    vals = np.abs(v)
    vals **= exponents.q
    m_up = np.where(v > 0, fwd, bwd)
    vals *= m_up
    if not (m_up.min(initial=np.inf) > 0 and not np.isnan(vals.max(initial=-np.inf))):
        np.copyto(vals, 0.0, where=~(np.abs(v) > 0) | ~(m_up > 0))
    return vals


def flux_law(w, fwd, bwd, exponents):
    """Upwind flux m(r,s) (w_+)^(q-1) - m(s,r) (w_-)^(q-1), elementwise.

    ``w`` is the edge velocity, and ``fwd`` = m(r, s) and ``bwd`` = m(s, r)
    the mobility at the densities r, s at the source and destination of
    each edge, for one species or a stacked pair; inputs broadcast.  This is
    the Legendre dual of :func:`alpha_density`: the flux whose action equals
    its pairing with w.  The parts are formed in place, the power only when
    q - 1 != 1, and the difference goes into the buffer of the positive part
    whenever that has the broadcast shape.
    """
    qm1 = exponents.q - 1.0
    w = np.asarray(w, dtype=float)
    up = positive_part(w)
    down = np.negative(w)
    down = np.maximum(down, 0.0, out=down if w.ndim else None)
    if qm1 != 1.0:
        up **= qm1
        down **= qm1
    in_place = w.ndim > 0 and w.shape == np.broadcast_shapes(w.shape, np.shape(fwd),
                                                              np.shape(bwd))
    buffers = (up, down) if in_place else (None, None)
    out = np.multiply(up, fwd, out=buffers[0])
    return np.subtract(out, np.multiply(down, bwd, out=buffers[1]), out=buffers[0])


def velocity_law(j, fwd, bwd, exponents):
    """Inverse of :func:`flux_law`: the velocity (j/fwd)^(p-1) where j > 0,
    -(-j/bwd)^(p-1) where j < 0, and 0 where the upwind mobility vanishes."""
    pm1 = exponents.p - 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        up = (j / fwd) ** pm1
        down = -((-j / bwd) ** pm1)
    return np.where((j > 0) & (fwd > 0), up, np.where((j < 0) & (bwd > 0), down, 0.0))


def _aitken(x0, x1, x2):
    """Aitken's delta-squared limit of three terms, elementwise; exact for
    x_k = a + b c^k, and the last term where the differences do not change."""
    d1, d2 = x1 - x0, x2 - x1
    bend = d2 - d1
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(bend != 0, x2 - d2 * d2 / bend, x2)


def recession(mobility):
    """Large-density limit m_inf(r, s) = lim m(lr, ls)/l, for R = S = inf only.

    Uses the closed form when provided, otherwise Aitken's delta-squared
    extrapolation of m(lr, ls)/l over lambda in {2^10, 2^12, 2^14, 2^16},
    exact for any power-law tail c lambda^-a: the estimates from the first
    and the last three samples must agree to 1e-6 relative (NonConvergent
    otherwise).  The result is positively 1-homogeneous by construction.
    """
    if mobility.bounded:
        raise NotApplicable(
            f"recession undefined for bounded thresholds (R={mobility.R}, S={mobility.S})"
        )
    if mobility.recession_fn is not None:
        rec = mobility.recession_fn
        return Mobility(f"{mobility.name}_recession", rec, recession_fn=rec)

    def numeric(r, s):
        r = np.asarray(r, dtype=float)
        s = np.asarray(s, dtype=float)
        v = [mobility(l * r, l * s) / l for l in _RECESSION_LAMBDAS]
        e1, e2 = _aitken(*v[:3]), _aitken(*v[1:])
        gap = np.max(np.abs(e1 - e2))
        scale = max(1.0, float(np.max(np.abs(e2))))
        if not gap <= _RECESSION_RTOL * scale:
            raise NonConvergent(
                f"recession extrapolations disagree by {gap:.3e} for {mobility.name}"
            )
        return e2

    return Mobility(f"{mobility.name}_recession", numeric, recession_fn=numeric)


def is_uniformly_sublinear(mobility):
    """True when the (numeric or closed-form) recession vanishes on samples."""
    if mobility.bounded:
        return False
    rec = recession(mobility)
    grid = np.linspace(0.0, _BOX, _GRID)
    r, s = np.meshgrid(grid, grid)
    return bool(np.max(np.abs(rec(r.ravel(), s.ravel()))) <= _SUBLINEAR_TOL)


def validate_mobility(mobility):
    """Sampled admissibility / positivity / concavity checks plus class flags.

    Concavity is checked by midpoint inequalities along each variable
    separately on a grid over [0, R) x [0, S) (truncated at ``_BOX`` for
    infinite thresholds).  This is a best-effort sampler, not a proof.

    Raises
    ------
    NotUpwindAdmissible, NotPositive, NotConcave
        With the witnessing sample in the message; a NaN value of ``m``
        fails the admissibility or positivity check.
    """
    r_hi = min(mobility.R, _BOX) * (1.0 - 1e-9)
    s_hi = min(mobility.S, _BOX) * (1.0 - 1e-9)
    r_grid = np.linspace(0.0, r_hi, _GRID)
    s_grid = np.linspace(0.0, s_hi, _GRID)

    at_zero = mobility(np.zeros_like(s_grid), s_grid)
    worst = int(np.argmax(np.abs(at_zero)))
    if not np.max(np.abs(at_zero)) <= 1e-12:  # NaN fails too
        raise NotUpwindAdmissible(
            f"m(0, {s_grid[worst]:.6g}) = {at_zero[worst]:.3e} != 0 for {mobility.name}"
        )

    rr, ss = np.meshgrid(r_grid[1:], s_grid[1:], indexing="ij")
    interior = mobility(rr.ravel(), ss.ravel())
    min_interior = float(np.min(interior))
    if not min_interior > 0:
        idx = int(np.argmin(interior))
        raise NotPositive(
            f"m({rr.ravel()[idx]:.6g}, {ss.ravel()[idx]:.6g}) = {interior[idx]:.3e} <= 0"
        )

    max_violation = 0.0
    witness = None
    # midpoint concavity along r at each fixed s (step 1), then along s at each
    # fixed r (step -1, which swaps the arguments)
    for grid, other, step in ((r_grid, s_grid, 1), (s_grid, r_grid, -1)):
        a, b, fixed = (x.ravel() for x in np.meshgrid(grid, grid, other, indexing="ij"))

        def along(x):
            return mobility(*(x, fixed)[::step])

        gap = 0.5 * (along(a) + along(b)) - along(0.5 * (a + b))
        k = int(np.argmax(gap))
        if gap[k] > max_violation:
            max_violation = float(gap[k])
            witness = (a[k], fixed[k])[::step] + (b[k], fixed[k])[::step]
    if max_violation > 1e-10:
        raise NotConcave(
            f"midpoint concavity violated by {max_violation:.3e} between "
            f"({witness[0]:.6g}, {witness[1]:.6g}) and ({witness[2]:.6g}, {witness[3]:.6g})"
        )

    # m(r, s) = 0 iff r = 0: already know m(0, s) = 0; check m > 0 for r > 0
    # including the s = 0 boundary, where e.g. the geometric mean vanishes.
    edge_vals = mobility(r_grid[1:], np.zeros(_GRID - 1))
    vanishing_iff_source_zero = bool(np.all(edge_vals > 0)) and min_interior > 0

    try:
        sublinear = is_uniformly_sublinear(mobility)
    except (NotApplicable, NonConvergent):
        sublinear = False

    flags = MobilityClass(
        uniformly_sublinear=sublinear,
        bounded_thresholds=mobility.bounded,
        vanishing_iff_source_zero=vanishing_iff_source_zero,
    )
    return MobilityValidation(
        mobility_name=mobility.name,
        flags=flags,
        max_concavity_violation=max_violation,
        min_interior_value=min_interior,
    )
