import json

import numpy as np
import pytest

from graphflow.errors import (
    NonConvergent,
    NotApplicable,
    NotConcave,
    NotPositive,
    NotUpwindAdmissible,
)
from graphflow.expressions import ExpressionError, compile_expression
from graphflow.graph import Exponents
from graphflow.mobility import (
    PRESETS,
    Mobility,
    alpha_density,
    cost_density,
    dual_density,
    flux_law,
    from_expression,
    geometric,
    is_uniformly_sublinear,
    linear,
    recession,
    saturating,
    validate_mobility,
    volume_filling,
)

from oracles import masked_alpha_density

P2 = Exponents(2.0)


def test_alpha_density_basic_values():
    m = linear()
    assert alpha_density(1.0, 1.0, 2.0, m, P2) == 1.0  # 1^2 / 1
    assert alpha_density(-3.0, 1.0, 1.0, m, P2) == 0.0  # positive part only
    assert alpha_density(1.0, 0.0, 1.0, m, P2) == np.inf  # a/0 convention
    assert alpha_density(0.0, 0.0, 0.0, m, P2) == 0.0  # 0/0 convention


def test_alpha_density_outside_box_is_infinite():
    m = volume_filling(1.0)
    assert alpha_density(0.0, 0.5, 1.5, m, P2) == np.inf
    assert alpha_density(0.1, -0.1, 0.5, m, P2) == np.inf
    # at the threshold itself the boundary limit of m is 0, so a/0 applies
    assert alpha_density(0.1, 0.5, 1.0, m, P2) == np.inf
    assert not np.any(np.isnan(alpha_density(np.linspace(-2, 2, 11), 0.3, 0.9, m, P2)))
    # a mobility with positive boundary limit stays finite at its threshold
    half = Mobility("half", lambda r, s: r * (2.0 - s) / 2.0, S=1.0)
    assert alpha_density(0.1, 0.5, 1.0, half, P2) == pytest.approx(0.01 / 0.25)


def test_alpha_density_convex_in_flux():
    rng = np.random.default_rng(0)
    m = linear()
    for _ in range(200):
        r, s = rng.uniform(0.01, 2.0, size=2)
        a, b = rng.normal(size=2)
        mid = alpha_density(0.5 * (a + b), r, s, m, P2)
        avg = 0.5 * (alpha_density(a, r, s, m, P2) + alpha_density(b, r, s, m, P2))
        assert mid <= avg + 1e-10


def test_alpha_density_one_homogeneous_for_homogeneous_mobility():
    rng = np.random.default_rng(1)
    m = linear()  # already equals its recession
    for p in (1.5, 2.0, 3.0):
        exps = Exponents(p)
        for _ in range(50):
            j, r, s = rng.uniform(0.1, 2.0, size=3)
            lam = rng.uniform(0.1, 5.0)
            scaled = alpha_density(lam * j, lam * r, lam * s, m, exps)
            assert scaled == pytest.approx(lam * alpha_density(j, r, s, m, exps), rel=1e-12)


def test_recession_presets():
    rec = recession(linear())
    assert rec(3.0, 7.0) == 3.0
    rec_geo = recession(geometric())
    assert rec_geo(4.0, 9.0) == pytest.approx(6.0)
    assert is_uniformly_sublinear(saturating())
    with pytest.raises(NotApplicable):
        recession(volume_filling(1.0))


def test_recession_numeric_limit():
    # closed form withheld: the numeric extrapolation must find m_inf = r
    m = Mobility("saturating_numeric", lambda r, s: r / (1.0 + r))
    rec = recession(m)
    assert np.max(np.abs(rec(np.array([0.5, 2.0]), np.array([1.0, 1.0])))) < 1e-7
    # positively 1-homogeneous
    hom = recession(Mobility("linear_numeric", lambda r, s: np.minimum(r, 2.0 * r + s * 0)))
    for lam in (2.0, 5.0):
        assert hom(lam * 0.7, lam * 0.3) == pytest.approx(lam * hom(0.7, 0.3), rel=1e-6)


def test_recession_extrapolates_any_power_law_tail():
    # a tail c lambda^(-1/2) has no 1/lambda error model, and the delta-squared
    # extrapolation does not assume one: sqrt(r) is uniformly sublinear, and
    # r + sqrt(r) recedes to r
    sqrt = Mobility("sqrt", lambda r, s: np.sqrt(r))
    assert is_uniformly_sublinear(sqrt)
    assert validate_mobility(from_expression("sqrt(r)")).flags.uniformly_sublinear
    tail = recession(Mobility("slow_tail", lambda r, s: r + np.sqrt(np.maximum(r, 0.0))))
    assert tail(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_recession_nonconvergent():
    # a logarithmic tail is no power law: the extrapolations from the first
    # and from the last three samples disagree
    m = Mobility("log_tail", lambda r, s: r * (1.0 + 1.0 / np.log(2.0 + r)))
    with pytest.raises(NonConvergent):
        recession(m)(1.0, 1.0)


def test_undefined_upwind_mobility_carries_no_cost():
    # a NaN mobility upwind of a moving link costs 0 in flux and in velocity form
    exps = Exponents(2.0)
    v = np.array([[0.5, -0.5, 0.5], [0.0, 0.3, -0.2]])
    fwd = np.array([[np.nan, 1.0, 2.0], [1.0, 1.0, 1.0]])
    bwd = np.ones_like(fwd)
    for density in (cost_density(v, fwd, exps), dual_density(v, fwd, bwd, exps)):
        assert density[0, 0] == 0.0
        assert not np.any(np.isnan(density))


def test_validate_linear():
    report = validate_mobility(linear())
    assert report.flags.vanishing_iff_source_zero
    assert not report.flags.bounded_thresholds
    assert report.flags.condition_a


def test_validate_volume_filling():
    report = validate_mobility(volume_filling(1.0))
    assert report.flags.bounded_thresholds
    assert report.flags.condition_a


def test_validate_geometric_violates_condition_a():
    report = validate_mobility(geometric())
    # m(r, 0) = 0 with r > 0, unbounded thresholds, 1-homogeneous recession
    assert not report.flags.vanishing_iff_source_zero
    assert not report.flags.uniformly_sublinear
    assert not report.flags.bounded_thresholds
    assert not report.flags.condition_a


def test_validate_rejects_convex():
    with pytest.raises(NotConcave) as err:
        validate_mobility(Mobility("square", lambda r, s: r**2))
    assert "between" in str(err.value)


def test_validate_rejects_not_admissible_and_not_positive():
    with pytest.raises(NotUpwindAdmissible):
        validate_mobility(Mobility("const", lambda r, s: np.ones_like(r)))
    with pytest.raises(NotPositive):
        validate_mobility(Mobility("parabola", lambda r, s: r * (1.0 - r)))


def test_validate_rejects_constant_nan_and_negative_formulas():
    # a constant formula used to come back 0-d, and the check died with an IndexError
    with pytest.raises(NotUpwindAdmissible):
        validate_mobility(from_expression("1"))
    with pytest.raises(NotUpwindAdmissible), np.errstate(invalid="ignore"):
        validate_mobility(from_expression("sqrt(r - 1)"))  # NaN at r = 0
    with pytest.raises(NotPositive):
        validate_mobility(from_expression("-r"))


def test_validate_checks_concavity_along_each_variable():
    with pytest.raises(NotConcave, match=r"between \(0, 4\) and \(4, 4\)"):
        validate_mobility(from_expression("r^2*(1 + s)"))
    with pytest.raises(NotConcave, match=r"between \(4, 0\) and \(4, 4\)"):
        validate_mobility(from_expression("r*(1 + s^2)"))
    # joint concavity is not checked: r*s is linear in each variable
    assert validate_mobility(from_expression("r*s")).max_concavity_violation < 1e-10


def test_expression_mobility_matches_volume_filling():
    expr = from_expression("r*(1-s)", S=1.0)
    ref = volume_filling(1.0)
    rng = np.random.default_rng(2)
    r = rng.uniform(0, 2, 64)
    s = rng.uniform(0, 1, 64)
    assert np.allclose(expr(r, s), ref(r, s))
    report = validate_mobility(expr)
    assert report.flags.bounded_thresholds


def test_expression_parser_grammar():
    fn = compile_expression("min(r, s) + max(r, 2*s) - r^2/4", ("r", "s"))
    assert fn(2.0, 1.0) == pytest.approx(1.0 + 2.0 - 1.0)


# each formula against the numpy expression it must evaluate, operation for operation
VALID_FORMULAS = [
    ("r", lambda r, s: r),
    ("2", lambda r, s: np.full_like(r, 2.0)),  # a constant has the arguments' shape
    (".5*r", lambda r, s: 0.5 * r),
    ("3.*s", lambda r, s: 3.0 * s),
    ("1.5E+2 - s", lambda r, s: 150.0 - s),
    ("1e-3/r", lambda r, s: 0.001 / r),
    ("r + s*2", lambda r, s: r + s * 2.0),
    ("(r + s)*2", lambda r, s: (r + s) * 2.0),
    ("r - s - 1", lambda r, s: (r - s) - 1.0),
    ("r/s/2", lambda r, s: (r / s) / 2.0),
    ("r^2", lambda r, s: np.power(r, 2.0)),
    ("r**2", lambda r, s: np.power(r, 2.0)),
    ("r^s^2", lambda r, s: np.power(r, np.power(s, 2.0))),
    ("2^-r^2", lambda r, s: np.power(2.0, np.negative(np.power(r, 2.0)))),
    ("-r^2", lambda r, s: np.negative(np.power(r, 2.0))),
    ("-2^2*r", lambda r, s: np.negative(np.power(2.0, 2.0)) * r),
    ("r*-s", lambda r, s: r * np.negative(s)),
    ("r - -s", lambda r, s: r - np.negative(s)),
    ("min(r)", lambda r, s: r),
    ("max(s)", lambda r, s: s),
    ("min(r, s)", lambda r, s: np.minimum(r, s)),
    ("max(r, 2*s, 1)", lambda r, s: np.maximum(np.maximum(r, 2.0 * s), 1.0)),
    ("min(r, s) + max(r, 2*s) - r^2/4",
     lambda r, s: (np.minimum(r, s) + np.maximum(r, 2.0 * s)) - np.power(r, 2.0) / 4.0),
    ("exp(-r)", lambda r, s: np.exp(np.negative(r))),
    ("sqrt(abs(r - s))", lambda r, s: np.sqrt(np.abs(r - s))),
    ("r*(1-s)", lambda r, s: r * (1.0 - s)),
    ("r/(1 + r)", lambda r, s: r / (1.0 + r)),
    ("  r\t+\n s ", lambda r, s: r + s),
]


@pytest.mark.parametrize("text, numpy_form", VALID_FORMULAS, ids=[f for f, _ in VALID_FORMULAS])
def test_expression_evaluates_its_numpy_form_bit_for_bit(text, numpy_form):
    rng = np.random.default_rng(4)
    r, s = rng.uniform(-2.0, 3.0, size=(2, 64))
    r[::7], s[::5] = 0.0, 0.0
    before = (r.copy(), s.copy())
    with np.errstate(all="ignore"):
        got = compile_expression(text, ("r", "s"))(r, s)
        want = numpy_form(r, s)
    assert got.dtype == float and got.shape == np.shape(want)
    assert np.array_equal(got, want, equal_nan=True)
    # a formula never writes into its arguments
    assert np.array_equal(r, before[0]) and np.array_equal(s, before[1])


def _hand_jets():
    """Each formula with its hand-written (r, s, rr, rs, ss) derivatives: one
    formula per whitelisted node."""
    def sign(x):
        return np.where(x < 0, -1.0, 1.0)

    def sqrt_rs(r, s):
        g = np.sqrt(r * s)
        return (0.5 * s / g, 0.5 * r / g, -0.25 * s * s / g**3, 0.25 / g, -0.25 * r * r / g**3)

    def power_rs(r, s):
        v, log = r**s, np.log(r)
        return (s * r ** (s - 1), v * log, s * (s - 1) * r ** (s - 2),
                r ** (s - 1) * (1 + s * log), v * log**2)

    def exp_rs(r, s):
        e = np.exp(r * s)
        return (e * s, e * r, e * s * s, e * (1 + r * s), e * r * r)

    def min_r_2s(r, s):
        low = 2 * s < r
        return (np.where(low, 0.0, 1.0), np.where(low, 2.0, 0.0), 0.0, 0.0, 0.0)

    def max_r_s2_1(r, s):
        pick = np.argmax(np.stack([r, s * s, np.ones_like(r)]), axis=0)
        return (1.0 * (pick == 0), 2 * s * (pick == 1), 0.0, 0.0, 2.0 * (pick == 1))

    return [
        ("r", lambda r, s: (1.0, 0.0, 0.0, 0.0, 0.0)),
        ("2.5", lambda r, s: (0.0, 0.0, 0.0, 0.0, 0.0)),
        ("-r*s", lambda r, s: (-s, -r, 0.0, -1.0, 0.0)),
        ("r + 3*s", lambda r, s: (1.0, 3.0, 0.0, 0.0, 0.0)),
        ("r - s*s", lambda r, s: (1.0, -2 * s, 0.0, 0.0, -2.0)),
        ("r/s", lambda r, s: (1 / s, -r / s**2, 0.0, -1 / s**2, 2 * r / s**3)),
        ("r/(1 + r)", lambda r, s: (1 / (1 + r) ** 2, 0.0, -2 / (1 + r) ** 3, 0.0, 0.0)),
        ("s/4", lambda r, s: (0.0, 0.25, 0.0, 0.0, 0.0)),
        ("r^3", lambda r, s: (3 * r**2, 0.0, 6 * r, 0.0, 0.0)),
        ("r^0.5", lambda r, s: (0.5 / np.sqrt(r), 0.0, -0.25 / r**1.5, 0.0, 0.0)),
        ("r^s", power_rs),
        ("2^s", lambda r, s: (0.0, 2**s * np.log(2), 0.0, 0.0, 2**s * np.log(2) ** 2)),
        ("exp(r*s)", exp_rs),
        ("sqrt(r*s)", sqrt_rs),
        ("abs(r - s)", lambda r, s: (sign(r - s), -sign(r - s), 0.0, 0.0, 0.0)),
        ("min(r, 2*s)", min_r_2s),
        ("max(r, s^2, 1)", max_r_s2_1),
        ("min(r)", lambda r, s: (1.0, 0.0, 0.0, 0.0, 0.0)),
    ]


JET_FORMULAS = _hand_jets()


@pytest.mark.parametrize("text, derivatives", JET_FORMULAS, ids=[f for f, _ in JET_FORMULAS])
def test_jet_matches_hand_written_derivatives(text, derivatives):
    rng = np.random.default_rng(5)
    r, s = rng.uniform(0.2, 2.5, size=(2, 3, 40))
    fn = compile_expression(text, ("r", "s"))
    value, first, second = fn.jet(r, s)
    assert value.shape == r.shape
    assert np.array_equal(value, fn(r, s))  # the value as the formula computes it
    want = derivatives(r, s)
    for got, expected in zip((*first, *second), want):
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12), text
        if isinstance(expected, float) and expected == 0.0:
            assert got == 0.0 and isinstance(got, float)  # a vanishing derivative costs nothing


def test_jet_of_one_variable_formulas():
    fn = compile_expression("d^2 - exp(-d)", ("d",))
    d = np.linspace(0.5, 2.0, 7)
    value, (first,), (second,) = fn.jet(d)
    assert np.array_equal(value, fn(d))
    assert np.allclose(first, 2 * d + np.exp(-d), rtol=1e-14)
    assert np.allclose(second, 2 - np.exp(-d), rtol=1e-14)


def test_presets_equal_their_numpy_forms_bit_for_bit():
    rng = np.random.default_rng(6)
    r, s = rng.uniform(0.0, 3.0, size=(2, 4, 300))
    r[:, ::9], s[:, ::7] = 0.0, 0.0
    for cap in (1.0, 0.3, 2.5, 1e-3):
        s_cap = np.minimum(s, cap)
        assert np.array_equal(volume_filling(cap)(r, s_cap), r * (cap - s_cap) / cap)
    assert np.array_equal(linear()(r, s), r)
    assert np.array_equal(saturating()(r, s), r / (1.0 + r))
    assert np.array_equal(geometric()(r, s), np.sqrt(r * s))
    assert np.array_equal(recession(saturating())(r, s), np.zeros_like(r))
    assert np.array_equal(recession(geometric())(r, s), np.sqrt(r * s))


INVALID_FORMULAS = [
    "r + t", "r + ", "", "__import__('os')", "r.real", "r < s", "r % 2", "r // 2", "r @ s",
    "min(r, key=s)", "min(*r)", "lambda r: r", "(t := r)", "r if s else 1", "'r'", "True", "1j",
    "0x10*r", "1_0*r", "min()", "+r", "exp", "pi", "r(s)", "(min)(r)", "min(r,)", "r # s", "(r, s)",
    "exp(r, s)", "sqrt(r, s)", "sqrt(r, 2)", "abs()", "min(r for r in s)",
    "-" * 300 + "r", "-" * 5000 + "r", "+".join(["r"] * 20000),
]


@pytest.mark.parametrize("text", INVALID_FORMULAS,
                         ids=[f if len(f) < 20 else f"{f[:8]}...({len(f)} chars)"
                              for f in INVALID_FORMULAS])
def test_expression_outside_the_grammar_is_rejected(text):
    with pytest.raises(ExpressionError):
        compile_expression(text, ("r", "s"))


def _extended_real_samples(rng, shape, cap):
    """Fluxes with exact zeros and densities with negative, zero and above-cap entries."""
    j = rng.normal(size=shape)
    j[..., ::5] = 0.0
    r = rng.uniform(-0.2, cap + 0.3, size=shape)
    s = rng.uniform(-0.2, cap + 0.3, size=shape)
    r[..., ::7] = 0.0
    s[..., ::3] = 0.0  # the geometric mobility vanishes here
    return j, r, s


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("mobility", [linear(), volume_filling(1.0), geometric()],
                         ids=lambda m: m.name)
def test_alpha_density_equals_masked_reference(p, mobility):
    rng = np.random.default_rng(int(10 * p))
    exps = Exponents(p)
    j, r, s = _extended_real_samples(rng, (2, 400), 1.0)
    got = alpha_density(j, r, s, mobility, exps)
    want = masked_alpha_density(j, r, s, mobility, exps)
    assert np.array_equal(got, want)
    # every convention is exercised: inf outside the box, a/0 = inf, 0/0 = 0
    assert np.any(np.isinf(want)) and np.any(want == 0.0) and np.any(np.isfinite(want) & (want > 0))
    if mobility.name == "geometric":
        assert np.any((j > 0) & (r > 0) & (s == 0.0) & np.isinf(got))
    if mobility.name == "volume_filling":
        assert np.any((s > mobility.S) & np.isinf(got))
    # scalars and broadcasting keep the reference's types and values
    for args in ((j[0, 1], r[0, 1], s[0, 1]), (0.3, 0.5, 0.0), (j[0, :5], 0.4, s[1, :5])):
        got, want = alpha_density(*args, mobility, exps), masked_alpha_density(*args, mobility, exps)
        assert type(got) is type(want) and np.array_equal(got, want)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_flux_law_pair_equals_raw_formula_per_species(p):
    rng = np.random.default_rng(int(10 * p) + 1)
    exps, mob = Exponents(p), volume_filling(1.0)
    w = rng.normal(size=(2, 300))
    w[:, ::4] = 0.0
    r, s = rng.uniform(0.0, 1.0, size=(2, 2, 300))
    got = flux_law(w, mob(r, s), mob(s, r), exps)
    qm1 = exps.q - 1.0
    for i in range(2):
        want = (mob(r[i], s[i]) * np.maximum(w[i], 0.0) ** qm1
                - mob(s[i], r[i]) * np.maximum(-w[i], 0.0) ** qm1)
        assert np.array_equal(got[i], want)
    # scalar and narrower velocity inputs broadcast as before
    assert np.array_equal(flux_law(w[0], mob(r, s), mob(s, r), exps)[1],
                          mob(r[1], s[1]) * np.maximum(w[0], 0.0) ** qm1
                          - mob(s[1], r[1]) * np.maximum(-w[0], 0.0) ** qm1)
    scalar = flux_law(0.3, mob(0.5, 0.2), mob(0.2, 0.5), exps)
    assert np.ndim(scalar) == 0
    assert scalar == mob(0.5, 0.2) * np.maximum(np.float64(0.3), 0.0) ** qm1


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_flux_law_reads_only_the_upwind_mobility(p):
    # each link carries mass with the mobility at its source: a NaN mobility
    # at the destination leaves the flux finite, and equal to the flux with
    # any finite value there, while a NaN at the source makes the flux NaN
    exps = Exponents(p)
    w = np.array([0.7, -0.4, 0.0, 1.3, -2.1])
    fwd = np.array([0.5, np.nan, 0.3, np.nan, 0.8])
    bwd = np.array([np.nan, 0.2, 0.6, 0.9, np.nan])
    got = flux_law(w, fwd, bwd, exps)
    source_nan = np.array([False, False, False, True, True])
    assert np.all(np.isnan(got) == source_nan)
    filled = flux_law(w, np.nan_to_num(fwd, nan=4.0), np.nan_to_num(bwd, nan=4.0), exps)
    assert np.array_equal(got[~source_nan], filled[~source_nan])
    assert got[0] > 0 > got[1] and got[2] == 0.0


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_mobility_class_flags_are_python_bools(name):
    # bounded_thresholds was numpy's bool, which json cannot write
    mob = PRESETS[name]()
    flags = vars(validate_mobility(mob).flags)
    assert type(mob.bounded) is bool
    assert all(type(value) is bool for value in flags.values())
    assert json.loads(json.dumps(flags)) == flags
