import csv
import dataclasses
import io
import json
import os
import re
import shutil
import warnings

import numpy as np
import pytest

from graphflow import cli, diagnostics, transport
from graphflow.cli import _read_states_csv, _species_csv, main_cli
from graphflow.config import (
    RefinementPlan,
    StudyLevel,
    StudyReport,
    parse_config,
    parse_plan,
    parse_state,
    project_initial,
    run_refinement_study,
)
from graphflow.dynamics import integrate
from graphflow.errors import MassMismatch, SchemaError, SemanticError
from graphflow.graph import AssumptionReport, BaseMeasure
from graphflow.scenarios import random_geometric_setup, s1_config, s2_state_files

from oracles import dense_eta


def test_parse_config_s1_defaults_and_derived_q():
    config = parse_config(json.dumps(s1_config()))
    assert config.system.exponents.p == 2.0
    assert config.system.exponents.q == 2.0
    assert config.system.graph.n_vertices == 2
    assert config.initial_state.rho1 == pytest.approx([0.75, 0.25])
    # defaults are echoed into the resolved form
    assert config.resolved["integrator"]["rel_tol"] == 1e-8
    assert config.resolved["solver"]["steps"] == 32


def test_parse_config_round_trip():
    config = parse_config(json.dumps(s1_config()))
    again = parse_config(json.dumps(config.resolved))
    assert again.resolved == config.resolved


def test_parse_config_rejects_bad_beta():
    raw = s1_config()
    raw["kernels"]["beta"] = [1.0, -1.0]
    with pytest.raises(SemanticError):
        parse_config(json.dumps(raw))


def test_parse_config_rejects_boolean_beta():
    raw = s1_config()
    raw["kernels"]["beta"] = [True, 1.0]
    with pytest.raises(SemanticError, match="kernels.beta"):
        parse_config(json.dumps(raw))


def test_cli_validate_graph_rejects_boolean_beta(tmp_path, capsys):
    raw = s1_config()
    raw["kernels"]["beta"] = [True, 1.0]
    cfg_path = _write(tmp_path / "cfg.json", raw)
    assert main_cli(["validate-graph", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and "kernels.beta" in err


def test_parse_config_rejects_nonproportional_cross_kernels():
    raw = s1_config()
    raw["kernels"]["K12"] = {"preset": "distance"}
    raw["kernels"]["K21"] = {"preset": "quadratic"}
    with pytest.raises(SemanticError):
        parse_config(json.dumps(raw))


def test_parse_config_schema_errors_carry_paths():
    raw = s1_config()
    del raw["graph"]["weights"]
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(raw))
    assert "graph.weights" in str(err.value)
    with pytest.raises(SchemaError):
        parse_config("not json at all {")
    raw = s1_config()
    raw["kernels"]["K11"] = {"preset": "no_such_kernel"}
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps(raw))
    assert "kernels.K11.preset" in str(err.value)


def test_parse_config_bad_initial_mass():
    raw = s1_config()
    raw["initial_state"] = {"rho1": [2.0, 2.0], "rho2": [0.5, 0.5]}
    with pytest.raises(SemanticError):
        parse_config(json.dumps(raw))


def test_parse_config_eta_presets():
    raw = s1_config()
    del raw["graph"]["eta_matrix"]
    raw["graph"]["eta_preset"] = {"name": "gaussian", "params": {"sigma": 1.0}}
    config = parse_config(json.dumps(raw))
    assert dense_eta(config.system.graph)[0, 1] == pytest.approx(np.exp(-0.5))
    raw["graph"]["eta_preset"] = {"name": "cutoff", "params": {"radius": 0.5}}
    config = parse_config(json.dumps(raw))
    assert config.system.graph.n_links == 0


NAN = float("nan")


@pytest.mark.parametrize("name, key, value", [
    ("gaussian", "sigma", "abc"),
    ("constant", "value", "x"),
    ("gaussian", "sigma", True),
    ("cutoff", "radius", True),
    ("gaussian", "sigma", NAN),
    ("cutoff", "radius", -1),
    ("gaussian", "width", 1.0),
    ("K11.gaussian_well", "sigma", "abc"),
    ("K11.gaussian_well", "sigma", True),
    ("K11.gaussian_well", "sigma", 0),
    ("K11.gaussian_well", "sigma", NAN),
    ("K11.morse_like", "attract", "x"),
    ("K22.morse_like", "ell_r", -0.5),
    ("K11.distance", "scale", 2.0),
    ("mobility.volume_filling", "cap", "abc"),
    ("mobility.volume_filling", "cap", NAN),
    ("mobility.volume_filling", "cap", True),
    ("mobility.volume_filling", "cap", 0),
    ("mobility.linear", "cap", 1.0),
], ids=["sigma-string", "value-string", "sigma-true", "radius-true", "sigma-nan", "radius-negative",
        "eta-unknown-key", "kernel-sigma-string", "kernel-sigma-true", "kernel-sigma-zero",
        "kernel-sigma-nan", "kernel-attract-string", "kernel-ell-negative", "kernel-unknown-key",
        "mobility-cap-string", "mobility-cap-nan", "mobility-cap-true", "mobility-cap-zero",
        "mobility-unknown-key"])
def test_cli_validate_graph_rejects_bad_eta_preset_parameter(tmp_path, capsys, name, key, value):
    # the eta presets, and since they share one reader the kernel
    # ("K11.<preset>") and mobility ("mobility.<preset>") presets too
    raw = s1_config()
    section, _, name = name.rpartition(".")
    if section == "mobility":
        raw["mobility"] = {"preset": name, "params": {key: value}}
        path = "mobility"
    elif section:
        raw["kernels"][section] = {"preset": name, "params": {key: value}}
        path = f"kernels.{section}"
    else:
        del raw["graph"]["eta_matrix"]
        raw["graph"]["eta_preset"] = {"name": name, "params": {key: value}}
        path = "graph.eta_preset"
    cfg_path = _write(tmp_path / "cfg.json", raw)
    assert main_cli(["validate-graph", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {path}.params.{key}:"), err
    with pytest.raises(SchemaError, match=f"{path}.params.{key}"):
        parse_config(raw)


@pytest.mark.parametrize("table", ["config.ETA_PRESETS", "kernels.KERNEL_PRESETS",
                                   "mobility.PRESETS", "config.DENSITY_PRESETS"])
def test_preset_factories_take_only_float_keywords(table):
    # _preset reads a preset's parameters from its factory's signature, so a
    # parameter without a float default, or a *args or **kwargs catch-all,
    # would escape its checks
    import importlib
    import inspect

    module, attr = table.split(".")
    presets = getattr(importlib.import_module(f"graphflow.{module}"), attr)
    assert presets
    for name, factory in presets.items():
        for param in inspect.signature(factory).parameters.values():
            assert param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY), (name, param)
            assert type(param.default) is float, (name, param)


def test_parse_config_reads_the_readme_expression_mobility():
    # the default {"preset": "linear"} used to be merged into this section,
    # and the preset won
    raw = s1_config()
    raw["mobility"] = {"expression": "r*(1-s)", "S": 1.0}
    config = parse_config(raw)
    mobility = config.system.mobility
    assert mobility.name == "expr:r*(1-s)"
    assert (mobility.R, mobility.S) == (np.inf, 1.0)
    assert mobility(0.5, 0.25) == 0.375
    assert config.resolved["mobility"] == {"expression": "r*(1-s)", "S": 1.0}
    raw["mobility"] = {"expression": "r", "R": float("inf")}
    assert parse_config(raw).system.mobility.R == np.inf


@pytest.mark.parametrize("path, section, message", [
    ("integrator", "x", "expected an object"),
    ("integrator", {"max_dtt": 0.01}, "integrator.max_dtt: unknown key"),
    ("solver", [32], "expected an object"),
    ("mobility", "linear", "expected an object"),
    ("mobility", {"preset": "linear", "expression": "r"}, "needs exactly one of"),
    ("mobility", {"params": {}}, "needs exactly one of"),
    ("mobility", {"preset": "volume_filling", "cap": 0.5}, "mobility.cap: unknown key"),
    ("mobility", {"expression": "r*(1-s)", "s": 1.0}, "mobility.s: unknown key"),
    ("mobility", {"expression": "r", "R": -1}, "mobility.R: must be a positive number"),
    ("mobility", {"expression": "r", "R": True}, "mobility.R: must be a positive number"),
    ("mobility", {"expression": "r", "S": "abc"}, "mobility.S: must be a positive number"),
    ("mobility", {"expression": "r", "S": None}, "mobility.S: must be a positive number"),
    ("mobility", {"expression": "r", "S": NAN}, "mobility.S: must be a positive number"),
    ("kernels.K11", "distance", "expected an object"),
    ("kernels.K11", {"preset": "distance", "expression": "d"}, "needs exactly one of"),
    ("kernels.K12", {"expression": 2}, "kernels.K12.expression: expected"),
], ids=["integrator-string", "integrator-max-dtt", "solver-list", "mobility-string",
        "mobility-both", "mobility-neither", "mobility-preset-stray-key",
        "mobility-expression-stray-key", "mobility-R-negative", "mobility-R-true",
        "mobility-S-string", "mobility-S-null", "mobility-S-nan", "kernel-string",
        "kernel-both", "kernel-expression-number"])
def test_cli_rejects_sections_that_say_something_else(tmp_path, capsys, path, section, message):
    cfg = s1_config(t_final=0.1, out_dir=str(tmp_path / "out"))
    *parents, key = path.split(".")
    parent = cfg
    for name in parents:
        parent = parent[name]
    parent[key] = section
    assert main_cli(["simulate", "--config", _write(tmp_path / "cfg.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {path}") and message in err, err
    assert not (tmp_path / "out").exists()
    with pytest.raises(SchemaError, match=message):
        parse_config(cfg)


@pytest.mark.parametrize("key, value", [
    ("points", [[0.0], [NAN]]), ("points", [[0.0], [float("inf")]]), ("points", [[0.0], ["a"]]),
    ("points", [[0.0], ["1"]]), ("points", [[0.0], [1.0, 2.0]]), ("weights", [1.0, NAN]),
    ("weights", [1.0, "abc"]), ("weights", [1.0, None]),
    ("eta_matrix", [[0.0, NAN], [NAN, 0.0]]), ("eta_matrix", [[0.0, float("inf")], [float("inf"), 0.0]]),
    ("eta_matrix", [[0.0, "x"], ["x", 0.0]]),
])
def test_cli_rejects_graph_data_that_is_not_finite_numbers(tmp_path, capsys, key, value):
    # NaN points and weights used to pass, NaN eta dropped its edge, inf eta
    # stayed, and a string died with a ValueError traceback
    raw = s1_config()
    raw["graph"][key] = value
    assert main_cli(["validate-graph", "--config", _write(tmp_path / "cfg.json", raw)]) == 1
    assert capsys.readouterr().err.startswith(
        f"invalid input: graph.{key}: expected an array of finite numbers")


INF = float("inf")
ATOMS = {"positions": [[0.1]], "masses": [1.0]}


def _set_path(cfg, path, value):
    """Set the key that the dotted ``path`` names in ``cfg`` to ``value``."""
    *parents, key = path.split(".")
    for name in parents:
        cfg = cfg[name]
    cfg[key] = value


@pytest.mark.parametrize("path, value", [
    ("initial_state.rho1", [NAN, 1.0]), ("initial_state.rho1", [INF, 1.0]),
    ("initial_state.rho2", ["abc", 1.0]),
    ("initial_state.atoms1.positions", [[NAN]]), ("initial_state.atoms1.positions", [[INF]]),
    ("initial_state.atoms2.positions", [["abc"]]),
    ("initial_state.atoms1.masses", [NAN]), ("initial_state.atoms1.masses", [INF]),
    ("initial_state.atoms2.masses", ["abc"]),
], ids=["rho1-nan", "rho1-inf", "rho2-string", "positions-nan", "positions-inf",
        "positions-string", "masses-nan", "masses-inf", "masses-string"])
def test_cli_rejects_initial_data_that_is_not_finite_numbers(tmp_path, capsys, path, value):
    # a NaN density passed the nonnegativity and unit-mass checks, since
    # every comparison with NaN is false, and gave an all-NaN state
    raw = s1_config()
    if ".atoms" in path:
        raw["initial_state"] = {"atoms1": dict(ATOMS), "atoms2": dict(ATOMS)}
    _set_path(raw, path, value)
    assert main_cli(["validate-graph", "--config", _write(tmp_path / "cfg.json", raw)]) == 1
    assert capsys.readouterr().err.startswith(
        f"invalid input: {path}: expected an array of finite numbers")
    with pytest.raises(SchemaError, match=path):
        parse_config(raw)


@pytest.mark.parametrize("path, value, message", [
    ("time_horzion", 5.0, "$.time_horzion: unknown key"),
    ("graph.eta_preset", {"name": "constant"},
     "graph: needs exactly one of eta_matrix or eta_preset"),
    ("graph", {"points": [[0.0], [1.0]], "weights": [1.0, 1.0],
               "eta_preset": {"name": "gaussian", "sigma": 1.0}}, "graph.eta_preset.sigma: unknown key"),
    ("graph.eta", [[0.0, 1.0], [1.0, 0.0]], "graph.eta: unknown key"),
    ("kernels.K13", {"preset": "zero"}, "kernels.K13: unknown key"),
    ("initial_state.atoms1", ATOMS,
     "initial_state: needs exactly one of rho1/rho2 or atoms1/atoms2"),
    ("initial_state", {"rho1": [0.75, 0.25], "rho2": [0.5, 0.5], "rho3": [1.0, 1.0]},
     "initial_state.rho3: unknown key"),
    ("initial_state", {"atoms1": ATOMS, "atoms2": {**ATOMS, "weights": [1.0]}},
     "initial_state.atoms2.weights: unknown key"),
    ("initial_state", {"atoms1": ATOMS, "atoms2": ATOMS, "projetion": "nearest"},
     "initial_state.projetion: unknown key"),
], ids=["top-level-typo", "graph-eta-matrix-and-preset", "eta-preset-stray-key", "graph-typo",
        "kernels-K13", "initial-rho-and-atoms", "initial-rho-stray-key", "atom-set-stray-key",
        "initial-atoms-typo"])
def test_cli_rejects_unknown_config_keys(tmp_path, capsys, path, value, message):
    # each of these used to run with the key ignored
    raw = s1_config()
    _set_path(raw, path, value)
    assert main_cli(["validate-graph", "--config", _write(tmp_path / "cfg.json", raw)]) == 1
    assert capsys.readouterr().err.startswith(f"invalid input: {message}")
    with pytest.raises(SchemaError, match=re.escape(message)):
        parse_config(raw)


def test_parse_config_ignores_supplied_q(tmp_path, capsys):
    # the name is kept from when a supplied q was read and dropped: q is
    # derived from p, and q = 17 beside p = 2 used to run at q = 2; now it
    # is an unknown key and nothing runs
    raw = {**s1_config(out_dir=str(tmp_path / "out")), "q": 17.0}
    assert main_cli(["simulate", "--config", _write(tmp_path / "cfg.json", raw)]) == 1
    assert capsys.readouterr().err.startswith("invalid input: $.q: unknown key")
    assert not (tmp_path / "out").exists()
    with pytest.raises(SchemaError, match=re.escape("$.q: unknown key")):
        parse_config(raw)


def test_parse_config_keeps_accepting_seed_q_and_projection(tmp_path, capsys):
    # the name is kept from when seed and q were accepted: nothing reads a
    # seed and q is derived from p, so both are refused, even a q that
    # agrees with p; projection is still accepted
    raw = s1_config(out_dir=str(tmp_path / "out"))
    for key, value in (("seed", 3), ("q", 2.0)):
        assert main_cli(["simulate", "--config", _write(tmp_path / "cfg.json",
                                                        {**raw, key: value})]) == 1
        assert capsys.readouterr().err.startswith(f"invalid input: $.{key}: unknown key")
        with pytest.raises(SchemaError, match=re.escape(f"$.{key}: unknown key")):
            parse_config({**raw, key: value})
    assert not (tmp_path / "out").exists()
    raw["initial_state"]["projection"] = "nearest"
    config = parse_config(raw)
    assert "seed" not in config.resolved and "q" not in config.resolved
    assert parse_config(json.dumps(config.resolved)).resolved == config.resolved


@pytest.mark.parametrize("command, path, expression", [
    ("simulate", "mobility", "sqrt(r, s)"),
    ("validate-graph", "kernels.K11", "sqrt(d, 2)"),
    ("validate-graph", "kernels.K11", "-" * 5000 + "d"),
    ("validate-graph", "kernels.K11", "+".join(["d"] * 20000)),
], ids=["mobility-sqrt-two-arguments", "kernel-sqrt-two-arguments", "kernel-deep-unary-minus",
        "kernel-long-sum"])
def test_cli_rejects_formulas_when_they_are_compiled(tmp_path, capsys, command, path, expression):
    # sqrt(r, s) ran: numpy took s as its out= buffer, so the mobility
    # overwrote the destination densities; sqrt(d, 2) died with a TypeError
    # traceback and the deep formulas with a RecursionError traceback
    cfg = s1_config(t_final=0.1, out_dir=str(tmp_path / "out"))
    section = cfg if path == "mobility" else cfg["kernels"]
    section[path.rpartition(".")[2]] = {"expression": expression}
    assert main_cli([command, "--config", _write(tmp_path / "cfg.json", cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"invalid input: {path}.expression:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("expression, message", [
    ("-r", "<= 0"),  # ran uphill, and diagnose wrote "g_t": Infinity
    ("r-0.5", "!= 0"),  # raised the energy
    ("1+r", "!= 0"),  # spun in the integrator
    ("1", "!= 0"),
])
def test_cli_rejects_mobilities_that_fail_validation(tmp_path, capsys, expression, message):
    cfg = s1_config(t_final=0.1, out_dir=str(tmp_path / "out"))
    cfg["mobility"] = {"expression": expression}
    assert main_cli(["simulate", "--config", _write(tmp_path / "cfg.json", cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: mobility:") and message in err, err
    assert not (tmp_path / "out").exists()


def test_cli_runs_a_constant_kernel_formula(tmp_path):
    # a constant formula used to come back 0-d, and simulate died on the
    # stacked kernel matrices
    cfg = s1_config(t_final=0.1, out_dir=str(tmp_path / "out"))
    cfg["kernels"]["K11"] = {"expression": "1"}
    assert main_cli(["simulate", "--config", _write(tmp_path / "cfg.json", cfg)]) == 0
    assert np.array_equal(parse_config(cfg).system.matrices[0], np.ones((2, 2)))


def test_project_initial_identity_when_on_vertices():
    base = BaseMeasure(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    rho, info = project_initial(np.array([[0.0], [1.0]]), [0.3, 0.7], base)
    assert rho == pytest.approx([0.3, 0.7])
    assert info["mass_drift"] == pytest.approx(0.0)
    assert info["method"] == "nearest"


def test_project_initial_nearest_tie_breaks_low_index():
    base = BaseMeasure(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    rho, info = project_initial(np.array([[0.5]]), [1.0], base)
    assert rho == pytest.approx([1.0, 0.0])
    rho, _ = project_initial(np.array([[0.6]]), [1.0], base)
    assert rho == pytest.approx([0.0, 1.0])


def test_project_initial_sends_generic_atoms_to_nearest_vertex():
    rng = np.random.default_rng(100)
    base = BaseMeasure(np.linspace(0, 1, 10).reshape(-1, 1), np.full(10, 0.1))
    samples = rng.uniform(0, 1, size=(100, 1))
    masses = np.full(100, 0.01)
    rho, info = project_initial(samples, masses, base)
    # on the uniform grid of spacing 1/9 the nearest vertex is round(9 x)
    expected = np.bincount(np.rint(9 * samples[:, 0]).astype(int), weights=masses, minlength=10)
    assert rho * base.weights == pytest.approx(expected, abs=1e-15)
    assert np.sum(rho * base.weights) == pytest.approx(1.0)
    # ten cells of a uniform sample receive roughly a tenth each, up to
    # binomial fluctuation of the 100 draws
    assert np.mean(np.abs(rho * base.weights - 0.1)) < 0.05
    assert np.max(np.abs(rho * base.weights - 0.1)) < 0.15
    assert info["w1_moved"] == pytest.approx(
        np.sum(np.abs(samples[:, 0] - np.rint(9 * samples[:, 0]) / 9) * masses))


def test_project_initial_mass_errors():
    base = BaseMeasure(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    with pytest.raises(MassMismatch):
        project_initial(np.array([[0.0]]), [1.0, 2.0], base)
    with pytest.raises(MassMismatch):
        project_initial(np.array([[0.0]]), [0.0], base)


def test_refinement_plan_validation():
    with pytest.raises(SchemaError):
        RefinementPlan("gaussian", {}, ladder=(8, 8))
    with pytest.raises(SchemaError):
        parse_plan(json.dumps({"density": {"name": "nope"}, "ladder": [4]}))
    plan = parse_plan(json.dumps({"density": {"name": "uniform"}, "ladder": [4, 8]}))
    points, weights = plan.sample_base(4)
    assert points.shape == (4, 1)
    assert np.sum(weights) == pytest.approx(plan.total_mass)


def test_run_refinement_study_small():
    plan = RefinementPlan(
        "gaussian", {"mean": 0.0, "sigma": 0.4}, ladder=(4, 8, 16), initial_atoms=32
    )
    config = parse_config(json.dumps(_refine_config()))
    report = run_refinement_study(plan, config)
    assert len(report.levels) == 3
    assert all(not level.failed for level in report.levels)
    assert len(report.w1_gaps) == 2
    assert all(np.isfinite(gap) for gap in report.w1_gaps)


def _refine_config():
    return {
        "p": 2.0,
        "graph": {
            "points": [[0.0], [1.0]],
            "weights": [1.0, 1.0],
            "eta_preset": {"name": "constant"},
        },
        "kernels": {
            "K11": {"preset": "distance"},
            "K22": {"preset": "distance"},
            "beta": [1.0, 1.0],
        },
        "mobility": {"preset": "linear"},
        "time_horizon": 0.25,
        "integrator": {"max_dt": 0.05},
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("command, calls", [("validate-graph", 0), ("metric", 0), ("simulate", 1)])
def test_cli_builds_kernel_matrices_only_when_read(tmp_path, monkeypatch, capsys, command, calls):
    # parse_config used to build the system's n^2 kernel matrices for every
    # command, also for those that never read them
    from graphflow.kernels import KernelSet

    built = []
    on_graph = KernelSet.on_graph
    monkeypatch.setattr(KernelSet, "on_graph",
                        lambda kernels, graph: built.append(graph) or on_graph(kernels, graph))
    cfg_path = _write(tmp_path / "cfg.json", s1_config(t_final=0.1, out_dir=str(tmp_path / "out")))
    start, end = s2_state_files()
    extra = {"metric": ["--from", _write(tmp_path / "from.json", start),
                        "--to", _write(tmp_path / "to.json", end), "--steps", "4"]}
    assert main_cli([command, "--config", cfg_path, *extra.get(command, [])]) == 0
    assert len(built) == calls


def test_cli_unknown_subcommand_exits_64(capsys):
    assert main_cli(["frobnicate"]) == 64
    assert main_cli([]) == 64
    assert main_cli(["simulate"]) == 64  # missing required --config


def test_cli_simulate_and_diagnose(tmp_path, capsys):
    cfg = s1_config(t_final=0.5, out_dir=str(tmp_path / "out"))
    cfg["integrator"] = {"max_dt": 0.02}
    cfg_path = _write(tmp_path / "s1.json", cfg)
    assert main_cli(["simulate", "--config", cfg_path]) == 0
    out = tmp_path / "out"
    assert (out / "trajectory.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stats"]["mass_drift"] <= 1e-10
    assert summary["resolved_config"]["p"] == 2.0
    assert "version" in summary

    assert main_cli([
        "diagnose", "--trajectory", str(out / "trajectory.csv"),
        "--config", cfg_path, "--out", str(tmp_path / "diag"),
    ]) == 0
    report = json.loads((tmp_path / "diag" / "de_giorgi.json").read_text())
    assert abs(report["g_t"]) < 1e-3


def test_cli_metric_and_profile(tmp_path):
    cfg = s1_config(out_dir=str(tmp_path / "out"))
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    start, end = s2_state_files()
    from_path = _write(tmp_path / "from.json", start)
    to_path = _write(tmp_path / "to.json", end)
    assert main_cli([
        "metric", "--config", cfg_path, "--from", from_path, "--to", to_path,
        "--steps", "64",
    ]) == 0
    metric = json.loads((tmp_path / "out" / "metric.json").read_text())
    # unit mass across the unit edge costs about 2, up to the O(1/K)
    # boundary-layer bias of the discretization
    assert metric["T"] == pytest.approx(2.0, abs=3e-2)
    assert metric["certificate"]["converged"]
    assert main_cli([
        "geodesic-profile", "--path", str(tmp_path / "out" / "geodesic.csv"),
        "--config", cfg_path,
    ]) == 0
    assert (tmp_path / "out" / "profile.csv").exists()


def test_cli_validate_graph_and_properties(tmp_path, capsys):
    cfg_path = _write(tmp_path / "cfg.json", s1_config())
    assert main_cli(["validate-graph", "--config", cfg_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c_eta"] == pytest.approx(1.0)
    assert payload["n_edges"] == 2  # both orientations of the one link

    assert main_cli(["properties", "--suite", "duality", "--seed", "3",
                     "--samples", "25"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == []
    assert main_cli(["properties", "--suite", "bogus"]) == 1


@pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--samples", "-3"),
                                           ("--samples", "0")])
def test_cli_properties_refuses_a_negative_seed_or_no_samples(capsys, option, value):
    # a negative seed or sample count used to escape with a traceback, and
    # zero samples passed a check of nothing
    assert main_cli(["properties", "--suite", "duality", option, value]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["n_samples"] == 0 and report["note"]


def _field_names(report_class):
    return [item.name for item in dataclasses.fields(report_class)]


def test_cli_json_outputs_carry_their_reports_fields(tmp_path, capsys):
    # each JSON output is built from its report dataclass, so a field added to
    # a report reaches its output; the printed payloads keep the field order
    out = tmp_path / "out"
    cfg_path = _write(tmp_path / "cfg.json", s1_config(t_final=0.1, out_dir=str(out)))
    summary = ["resolved_config", "version"]
    assert main_cli(["simulate", "--config", cfg_path]) == 0
    assert main_cli(["diagnose", "--trajectory", str(out / "trajectory.csv"),
                     "--config", cfg_path]) == 0
    de_giorgi = json.loads((out / "de_giorgi.json").read_text())
    assert sorted(de_giorgi) == sorted(
        summary + [name for name in _field_names(diagnostics.DeGiorgiReport) if name != "series"])

    capsys.readouterr()
    assert main_cli(["validate-graph", "--config", cfg_path]) == 0
    assert list(json.loads(capsys.readouterr().out)) == _field_names(AssumptionReport)

    props = out / "properties.json"
    assert main_cli(["properties", "--suite", "duality", "--samples", "2",
                     "--out", str(props)]) == 0
    assert list(json.loads(capsys.readouterr().out)) == _field_names(diagnostics.HarnessReport)
    assert sorted(json.loads(props.read_text())) == sorted(_field_names(diagnostics.HarnessReport))

    plan_path = _write(tmp_path / "plan.json", {"density": {"name": "uniform"}, "ladder": [4],
                                                "initial_atoms": 8,
                                                "transport_diagnostic": False})
    assert main_cli(["refine", "--plan", plan_path, "--config", cfg_path]) == 0
    refinement = json.loads((out / "refinement.json").read_text())
    assert sorted(refinement) == sorted(summary + _field_names(StudyReport))
    assert [sorted(level) for level in refinement["levels"]] == [sorted(_field_names(StudyLevel))]


def test_cli_invalid_config_exits_1(tmp_path):
    bad = s1_config()
    bad["kernels"]["beta"] = [0.0, 1.0]
    cfg_path = _write(tmp_path / "bad.json", bad)
    assert main_cli(["simulate", "--config", cfg_path]) == 1


@pytest.mark.parametrize("field, value", [("max_dt", 0), ("max_dt", -0.1), ("dt_initial", 0)])
def test_cli_rejects_non_positive_step_sizes(tmp_path, field, value):
    cfg = s1_config(t_final=0.1, out_dir=str(tmp_path / "out"))
    cfg["integrator"] = {field: value}
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    assert main_cli(["simulate", "--config", cfg_path]) == 1
    with pytest.raises(SemanticError, match=f"integrator.{field}"):
        parse_config(cfg)


@pytest.mark.parametrize("key", ["smoothing_schedule", "max_outer", "inner_maxiter", "tolerance",
                                 "eps_constraint", "eps_optimality"])
def test_cli_rejects_unknown_solver_keys(tmp_path, capsys, key):
    cfg = s1_config(t_final=0.1, out_dir=str(tmp_path / "out"))
    cfg["solver"] = {"steps": 8, key: 16}
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    assert main_cli(["simulate", "--config", cfg_path]) == 1
    assert f"solver.{key}" in capsys.readouterr().err
    with pytest.raises(SchemaError, match=f"solver.{key}: unknown key"):
        parse_config(cfg)


@pytest.mark.parametrize("steps", [0, -4])
def test_cli_rejects_non_positive_solver_steps(tmp_path, capsys, steps):
    cfg = s1_config(t_final=0.1, out_dir=str(tmp_path / "out"))
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    start, end = s2_state_files()
    states = ["--from", _write(tmp_path / "from.json", start),
              "--to", _write(tmp_path / "to.json", end)]
    assert main_cli(["metric", "--config", cfg_path, *states, "--steps", str(steps)]) == 1
    assert "invalid input: --steps" in capsys.readouterr().err
    cfg["solver"] = {"steps": steps}
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    assert main_cli(["simulate", "--config", cfg_path]) == 1
    assert "solver.steps" in capsys.readouterr().err
    with pytest.raises(SemanticError, match="solver.steps"):
        parse_config(cfg)


@pytest.mark.parametrize("path, value", [
    ("solver.steps", "abc"), ("solver.steps", 2.7), ("solver.steps", True),
    ("p", 1), ("p", True), ("p", "2"),
    ("integrator.rel_tol", -1), ("integrator.abs_tol", -1e-10), ("integrator.rel_tol", "abc"),
    ("integrator.abs_tol", True), ("integrator.rel_tol", None),
    ("time_horizon", True), ("time_horizon", "1"), ("time_horizon", 0),
])
def test_cli_rejects_invalid_config_scalars(tmp_path, capsys, path, value):
    cfg = s1_config(t_final=0.1, out_dir=str(tmp_path / "out"))
    *parents, key = path.split(".")
    section = cfg
    for name in parents:
        section = section.setdefault(name, {})
    section[key] = value
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    assert main_cli(["simulate", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and path in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(SemanticError, match=path):
        parse_config(cfg)


@pytest.mark.parametrize("option", ["--from", "--to"])
@pytest.mark.parametrize("state, message", [
    ({"rho1": [1.0, 0.0], "rho2": [0.5, 0.5], "rho3": [1.0, 1.0]}, "{}.rho3: unknown key"),
    ({"rho1": [1.5, 0.0], "rho2": [0.5, 0.5]},
     "initial species masses [1.5 1. ] are not 1 in {}"),
], ids=["unknown-key", "mass"])
def test_cli_metric_state_errors_name_their_file(tmp_path, capsys, option, state, message):
    # they used to name initial_state, a config key they are not in
    cfg_path = _write(tmp_path / "cfg.json", s1_config(out_dir=str(tmp_path / "out")))
    start, end = s2_state_files()
    files = {"--from": _write(tmp_path / "from.json", start),
             "--to": _write(tmp_path / "to.json", end)}
    files[option] = _write(tmp_path / "bad.json", state)
    assert main_cli(["metric", "--config", cfg_path, "--from", files["--from"],
                     "--to", files["--to"]]) == 1
    assert capsys.readouterr().err.startswith("invalid input: " + message.format(files[option]))
    assert not (tmp_path / "out").exists()


def test_cli_rejects_zero_tolerances(tmp_path, capsys):
    # with both tolerances 0 every step's error is infinite: this used to
    # exit 2 with "dt underflow at t=0"
    cfg = s1_config(t_final=0.1, out_dir=str(tmp_path / "out"))
    cfg["integrator"] = {"rel_tol": 0, "abs_tol": 0.0}
    assert main_cli(["simulate", "--config", _write(tmp_path / "cfg.json", cfg)]) == 1
    assert "integrator.rel_tol and abs_tol must not both be 0" in capsys.readouterr().err
    cfg["integrator"] = {"rel_tol": 0, "abs_tol": 1e-10}
    assert parse_config(cfg).integrator.rel_tol == 0


@pytest.mark.parametrize("key, value", [
    ("ladder", [0, 4]), ("ladder", [2.5, 4]), ("ladder", ["a"]), ("ladder", [-4, 4]),
    ("ladder", [True, 4]), ("ladder", [4, 4]), ("ladder", []),
    ("initial_atoms", 0), ("initial_atoms", -3), ("initial_atoms", 2.5),
    ("total_mass", -2), ("total_mass", 0), ("total_mass", "2"), ("total_mass", True),
    ("transport_steps", 2.5), ("transport_steps", 0), ("transport_steps", False),
    ("transport_diagnostic", "no"), ("transport_diagnostic", 0),
    ("transport_step", 4), ("density", {"name": "uniform", "low": 0.0}),
])
def test_cli_refine_rejects_invalid_plan(tmp_path, capsys, key, value):
    cfg = _refine_config()
    cfg["output_dir"] = str(tmp_path / "out")
    plan = {"density": {"name": "uniform"}, "ladder": [4], "initial_atoms": 8, key: value}
    args = ["--plan", _write(tmp_path / "plan.json", plan),
            "--config", _write(tmp_path / "cfg.json", cfg)]
    assert main_cli(["refine", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and f"plan.{key}" in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(SchemaError, match=f"plan.{key}"):
        parse_plan(plan)


@pytest.mark.parametrize("command", ["metric", "refine"])
def test_cli_malformed_json_input_exits_1(tmp_path, capsys, command):
    # the state and plan files used to die with a JSONDecodeError traceback
    cfg = _refine_config() if command == "refine" else s1_config()
    cfg["output_dir"] = str(tmp_path / "out")
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    bad = tmp_path / "bad.json"
    bad.write_text('{"rho1": [1.0, 0.0],')
    if command == "metric":
        good = _write(tmp_path / "end.json", s2_state_files()[1])
        args = ["metric", "--config", cfg_path, "--from", str(bad), "--to", good]
    else:
        args = ["refine", "--config", cfg_path, "--plan", str(bad)]
    assert main_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and "not valid JSON" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, key, value", [
    ("gaussian", "sigma", "abc"), ("gaussian", "mean", "abc"), ("gaussian", "sigma", 0.0),
    ("gaussian", "mean", True), ("uniform", "low", None), ("uniform", "high", [1.0]),
    ("gaussian", "sigma", NAN), ("gaussian", "width", 1.0), ("uniform", "sigma", 1.0),
])
def test_cli_refine_rejects_invalid_density_params(tmp_path, capsys, name, key, value):
    # a string sigma used to raise a TypeError and a string mean a numpy
    # UFuncNoLoopError, both as tracebacks
    cfg = _refine_config()
    cfg["output_dir"] = str(tmp_path / "out")
    plan = {"density": {"name": name, "params": {key: value}}, "ladder": [4], "initial_atoms": 8}
    args = ["--plan", _write(tmp_path / "plan.json", plan),
            "--config", _write(tmp_path / "cfg.json", cfg)]
    assert main_cli(["refine", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and f"plan.density.params.{key}" in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(SchemaError, match=f"plan.density.params.{key}"):
        parse_plan(plan)


def test_refinement_plan_accepts_valid_values():
    plan = RefinementPlan("gaussian", {"mean": 0.0, "sigma": 0.5}, ladder=(8, 16, 32, 64),
                          initial_atoms=512, total_mass=2.0, transport_steps=8)
    assert plan.ladder == (8, 16, 32, 64) and plan.transport_diagnostic is True
    plan = parse_plan({"density": {"name": "uniform"}, "ladder": [4, 8], "initial_atoms": 1,
                       "total_mass": 3, "transport_steps": 1, "transport_diagnostic": False})
    assert (plan.initial_atoms, plan.total_mass, plan.transport_steps) == (1, 3, 1)
    assert plan.transport_diagnostic is False


def test_cli_refine(tmp_path):
    cfg = _refine_config()
    cfg["output_dir"] = str(tmp_path / "out")
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    plan_path = _write(
        tmp_path / "plan.json",
        {"density": {"name": "gaussian", "params": {"sigma": 0.4}},
         "ladder": [4, 8], "initial_atoms": 16},
    )
    assert main_cli(["refine", "--plan", plan_path, "--config", cfg_path]) == 0
    report = json.loads((tmp_path / "out" / "refinement.json").read_text())
    assert len(report["levels"]) == 2
    assert np.isfinite(report["levels"][1]["w1_gap_from_previous"])  # the one gap


def test_cli_refine_exits_2_when_levels_fail(tmp_path, capsys):
    # 8 atoms of total mass 1 on a uniform base of total mass 0.5 put a
    # density of 2 on a vertex, above the volume-filling cap 1, at every level
    cfg = s1_config(out_dir=str(tmp_path / "out"))
    cfg["mobility"] = {"preset": "volume_filling"}
    plan = {"density": {"name": "uniform"}, "ladder": [4, 8], "initial_atoms": 8,
            "total_mass": 0.5}
    assert main_cli(["refine", "--config", _write(tmp_path / "cfg.json", cfg),
                     "--plan", _write(tmp_path / "plan.json", plan)]) == 2
    assert "levels failed: [4, 8]" in capsys.readouterr().err
    levels = json.loads((tmp_path / "out" / "refinement.json").read_text())["levels"]
    assert all(level["error"].startswith("ThresholdExceeded") for level in levels)


def test_run_refinement_study_marks_failed_levels(monkeypatch):
    import graphflow.config as config_mod

    plan = RefinementPlan("gaussian", {"sigma": 0.4}, ladder=(4, 8), initial_atoms=16,
                          transport_diagnostic=False)
    config = parse_config(json.dumps(_refine_config()))
    real_integrate = config_mod.dynamics.integrate

    def flaky(system, state, t_final, options=None):
        if system.graph.n_vertices == 8:
            from graphflow.errors import StepSizeUnderflow

            raise StepSizeUnderflow("forced failure")
        return real_integrate(system, state, t_final, options)

    monkeypatch.setattr(config_mod.dynamics, "integrate", flaky)
    report = run_refinement_study(plan, config)
    assert [level.failed for level in report.levels] == [False, True]
    assert "StepSizeUnderflow" in report.levels[1].error
    assert report.w1_gaps == []  # the failed level breaks the consecutive chain


def test_run_refinement_study_single_level_no_gaps():
    plan = RefinementPlan("uniform", {}, ladder=(6,), initial_atoms=12,
                          transport_diagnostic=False)
    config = parse_config(json.dumps(_refine_config()))
    report = run_refinement_study(plan, config)
    assert len(report.levels) == 1 and report.w1_gaps == []
    assert np.isfinite(report.levels[0].w1_start_to_final)


def test_parse_config_initial_state_from_atoms():
    raw = s1_config()
    raw["initial_state"] = {
        "atoms1": {"positions": [[0.1], [0.9], [0.4]], "masses": [0.5, 0.25, 0.25]},
        "atoms2": {"positions": [[0.6]], "masses": [1.0]},
        "projection": "nearest",
    }
    config = parse_config(json.dumps(raw))
    # 0.1 and 0.4 snap to vertex 0, 0.9 to vertex 1; 0.6 to vertex 1
    assert config.initial_state.rho1 == pytest.approx([0.75, 0.25])
    assert config.initial_state.rho2 == pytest.approx([0.0, 1.0])


def test_projection_names_other_than_nearest_are_refused():
    # "auto" and "transport" ran the one nearest-vertex map that "nearest"
    # names, so they said something other than what they did
    raw = s1_config()
    rng = np.random.default_rng(3)
    raw["initial_state"] = {
        "atoms1": {"positions": rng.uniform(-0.5, 1.5, size=(40, 1)).tolist(),
                   "masses": np.full(40, 1 / 40).tolist()},
        "atoms2": {"positions": [[0.5], [0.2]], "masses": [0.5, 0.5]},
    }
    default = parse_config(json.dumps(raw)).initial_state.rho
    raw["initial_state"]["projection"] = "nearest"
    assert np.array_equal(parse_config(json.dumps(raw)).initial_state.rho, default)
    plan = {"density": {"name": "uniform"}, "ladder": [4]}
    for name in ("auto", "transport"):
        raw["initial_state"]["projection"] = name
        with pytest.raises(SchemaError, match=r"initial_state\.projection: .*'nearest'"):
            parse_config(json.dumps(raw))
        with pytest.raises(SchemaError, match=r"plan\.projection: .*'nearest'"):
            parse_plan(dict(plan, projection=name))


def test_cli_validate_graph_rejects_unknown_projection(tmp_path, capsys):
    raw = s1_config()
    raw["initial_state"] = {
        "atoms1": {"positions": [[0.1]], "masses": [1.0]},
        "atoms2": {"positions": [[0.9]], "masses": [1.0]},
        "projection": "bogus",
    }
    cfg_path = _write(tmp_path / "cfg.json", raw)
    assert main_cli(["validate-graph", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and "initial_state.projection" in err


def test_cli_refine_rejects_unknown_projection(tmp_path, capsys):
    cfg = _refine_config()
    cfg["output_dir"] = str(tmp_path / "out")
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    plan_path = _write(
        tmp_path / "plan.json",
        {"density": {"name": "uniform"}, "ladder": [4], "initial_atoms": 8,
         "projection": "bogus"},
    )
    assert main_cli(["refine", "--plan", plan_path, "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and "plan.projection" in err
    assert not (tmp_path / "out").exists()


def test_refinement_plan_transport_steps_is_the_solver_k(monkeypatch):
    import graphflow.transport as transport_mod

    with pytest.raises(SchemaError, match="plan.transport_steps"):
        RefinementPlan("uniform", {}, ladder=(4,), transport_steps=0)
    with pytest.raises(SchemaError, match="plan.transport_steps"):
        parse_plan({"density": {"name": "uniform"}, "ladder": [4], "transport_steps": -1})
    steps_seen = []
    real_cost = transport_mod.transport_cost

    def recording(graph, start, end, steps, *args):
        steps_seen.append(steps)
        return real_cost(graph, start, end, steps, *args)

    monkeypatch.setattr(transport_mod, "transport_cost", recording)
    plan = RefinementPlan("uniform", {}, ladder=(4,), initial_atoms=8, transport_steps=4)
    report = run_refinement_study(plan, parse_config(json.dumps(_refine_config())))
    assert not report.levels[0].failed, report.levels[0].error
    assert steps_seen == [4]


def test_cli_simulate_is_bit_reproducible(tmp_path):
    cfg = s1_config(t_final=0.25, out_dir=str(tmp_path / "a"))
    cfg["integrator"] = {"max_dt": 0.05}
    path_a = _write(tmp_path / "a.json", cfg)
    cfg["output_dir"] = str(tmp_path / "b")
    path_b = _write(tmp_path / "b.json", cfg)
    assert main_cli(["simulate", "--config", path_a]) == 0
    assert main_cli(["simulate", "--config", path_b]) == 0
    assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (
        tmp_path / "b" / "trajectory.csv"
    ).read_bytes()


def test_cli_geodesic_profile_states_only_fallback(tmp_path):
    cfg = s1_config(out_dir=str(tmp_path / "out"))
    cfg["solver"] = {"steps": 8}
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    start, end = s2_state_files()
    from_path = _write(tmp_path / "from.json", start)
    to_path = _write(tmp_path / "to.json", end)
    assert main_cli(["metric", "--config", cfg_path, "--from", from_path,
                     "--to", to_path]) == 0
    (tmp_path / "out" / "geodesic_fluxes.csv").unlink()
    # without stored fluxes the profile falls back to the minimal-norm
    # continuity flux recovered from the states
    assert main_cli(["geodesic-profile", "--path", str(tmp_path / "out" / "geodesic.csv"),
                     "--config", cfg_path]) == 0
    assert (tmp_path / "out" / "profile.csv").exists()


def test_cli_geodesic_profile_refuses_a_path_off_the_continuity_equation(tmp_path, capsys):
    # the states of one metric run with the fluxes of another, and states
    # whose mass grows, which no flux explains, were profiled with exit 0
    cfg_path = _metric_outputs(tmp_path)  # S1 at K = 8 from a to b, in out/
    out, other, grown = tmp_path / "out", tmp_path / "other", tmp_path / "grown.csv"
    start, _ = s2_state_files()
    assert main_cli(["metric", "--config", cfg_path, "--from", _write(tmp_path / "a.json", start),
                     "--to", _write(tmp_path / "c.json", {"rho1": [0.5, 0.5], "rho2": [0.5, 0.5]}),
                     "--out", str(other)]) == 0
    profile = ["--config", cfg_path, "--out", str(tmp_path / "profile")]
    for own in (out, other):  # metric's own pairs solve it
        assert main_cli(["geodesic-profile", "--path", str(own / "geodesic.csv"), *profile]) == 0
    shutil.copy(out / "geodesic.csv", other / "a_to_b.csv")  # beside the fluxes from a to c
    states = np.array([[[1.0, 0.0], [0.5, 0.5]], [[1.0, 0.25], [0.5, 0.5]],
                       [[1.0, 0.5], [0.5, 0.5]]])  # species 1's mass grows from 1 to 1.5
    grown.write_text(_species_csv(("t", "species", "vertex", "density"), [0.0, 0.5, 1.0],
                                  states, np.arange(2)))
    shutil.rmtree(tmp_path / "profile")
    capsys.readouterr()
    for path in (other / "a_to_b.csv", grown):
        assert main_cli(["geodesic-profile", "--path", str(path), *profile]) == 1
        assert capsys.readouterr().err.startswith(
            f"invalid input: {path}: the path does not solve the continuity equation: residual")
    assert not (tmp_path / "profile").exists()


@pytest.mark.parametrize("name, row, message", [
    ("geodesic_fluxes.csv", "0,1,0,0,0.5", "(0, 0) is not a link"),
    ("geodesic_fluxes.csv", "0,1,1,0,0.5", "(1, 0) is not a link"),
    ("geodesic_fluxes.csv", "0,0,0,1,0.5", "species 0 is not an integer in 1..2"),
    ("geodesic_fluxes.csv", "0,3,0,1,0.5", "species 3 is not an integer in 1..2"),
    ("geodesic_fluxes.csv", "-1,1,0,1,0.5", "interval -1 is not an integer in 0..7"),
    ("geodesic_fluxes.csv", "8,1,0,1,0.5", "interval 8 is not an integer in 0..7"),
    ("geodesic_fluxes.csv", "0,1,0,2,0.5", "dst 2 is not an integer in 0..1"),
    ("geodesic_fluxes.csv", "0,1.5,0,1,0.5", "species 1.5 is not an integer in 1..2"),
    ("geodesic_fluxes.csv", "0,1,0,1,x", "expected numbers in"),
    ("geodesic_fluxes.csv", "0,1,0", "expected numbers in"),
    ("geodesic_fluxes.csv", "0,1,0,1,nan", "flux nan is not finite"),
    ("geodesic.csv", "0.0,0,0,0.5", "species 0 is not an integer in 1..2"),
    ("geodesic.csv", "0.0,1,-1,0.5", "vertex -1 is not an integer in 0..1"),
    ("geodesic.csv", "0.0,1,2,0.5", "vertex 2 is not an integer in 0..1"),
    ("geodesic.csv", "abc,1,0,0.5", "expected numbers in"),
    ("geodesic.csv", "0.0,1,0,inf", "density inf is not finite"),
])
def test_cli_geodesic_profile_rejects_malformed_rows(tmp_path, capsys, name, row, message):
    cfg = s1_config(out_dir=str(tmp_path / "out"))
    cfg["solver"] = {"steps": 8}
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    start, end = s2_state_files()
    assert main_cli(["metric", "--config", cfg_path, "--from", _write(tmp_path / "from.json", start),
                     "--to", _write(tmp_path / "to.json", end)]) == 0
    target = tmp_path / "out" / name
    lines = target.read_text().splitlines()
    target.write_text("\n".join(lines + [row]) + "\n")
    capsys.readouterr()
    assert main_cli(["geodesic-profile", "--path", str(tmp_path / "out" / "geodesic.csv"),
                     "--config", cfg_path]) == 1
    assert f"invalid input: {target}: row {len(lines)}: {message}" in capsys.readouterr().err


def _metric_outputs(tmp_path):
    """Run ``metric`` at K = 8 on the two-vertex S1 scenario; return the config path."""
    cfg = s1_config(out_dir=str(tmp_path / "out"))
    cfg["solver"] = {"steps": 8}
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    start, end = s2_state_files()
    assert main_cli(["metric", "--config", cfg_path, "--from", _write(tmp_path / "from.json", start),
                     "--to", _write(tmp_path / "to.json", end)]) == 0
    return cfg_path


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:1], "no row for interval 0, species 1, link (0, 1)"),
    (lambda lines: lines[:-1], "no row for interval 7, species 2, link (0, 1)"),
    (lambda lines: lines[:2] + lines[3:], "no row for interval 0, species 2, link (0, 1)"),
    (lambda lines: lines + [lines[1]], "row 17: repeats interval 0, species 1, link (0, 1)"),
    (lambda lines: lines[:3] + [lines[1]] + lines[4:],
     "row 3: repeats interval 0, species 1, link (0, 1)"),
], ids=["header-only", "truncated", "one-missing", "appended-duplicate", "replaced-by-duplicate"])
def test_cli_geodesic_profile_requires_every_flux_entry_once(tmp_path, capsys, edit, message):
    # a missing entry used to read as zero flux: a header-only file printed
    # "profile mean 0.000000" with exit 0; the file holds one row per link
    cfg_path = _metric_outputs(tmp_path)
    target = tmp_path / "out" / "geodesic_fluxes.csv"
    target.write_text("\n".join(edit(target.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert main_cli(["geodesic-profile", "--path", str(tmp_path / "out" / "geodesic.csv"),
                     "--config", cfg_path]) == 1
    assert f"invalid input: {target}: {message}" in capsys.readouterr().err


def test_cli_geodesic_profile_reads_flux_rows_in_any_order(tmp_path):
    cfg_path = _metric_outputs(tmp_path)
    out = tmp_path / "out"
    command = ["geodesic-profile", "--path", str(out / "geodesic.csv"), "--config", cfg_path]
    assert main_cli(command) == 0
    written = (out / "profile.csv").read_bytes()
    lines = (out / "geodesic_fluxes.csv").read_text().splitlines()
    shuffled = [lines[0]] + [lines[1:][i] for i in np.random.default_rng(0).permutation(16)]
    (out / "geodesic_fluxes.csv").write_text("\n".join(shuffled) + "\n")
    assert main_cli(command) == 0
    assert (out / "profile.csv").read_bytes() == written


def _rgg_metric(tmp_path):
    """Run ``metric`` at K = 8 on an 8-vertex volume-filling RGG with 28
    links; return the parsed config, the endpoints and the output directory."""
    graph, _, _, _, state = random_geometric_setup(seed=5, n=8, p=3.0,
                                                   mobility_name="volume_filling")
    end = np.random.default_rng(6).uniform(0.3, 0.7, size=(2, 8))
    end /= (end @ graph.weights)[:, None]
    states = [{"rho1": rho[0].tolist(), "rho2": rho[1].tolist()} for rho in (state.rho, end)]
    cfg = s1_config(p=3.0, out_dir=str(tmp_path / "out"))
    cfg["graph"] = {"points": graph.points.tolist(), "weights": graph.weights.tolist(),
                    "eta_preset": {"name": "gaussian", "params": {"sigma": 0.5}}}
    cfg["mobility"] = {"preset": "volume_filling"}
    cfg["initial_state"] = states[0]
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    assert main_cli(["metric", "--config", cfg_path, "--from", _write(tmp_path / "from.json",
                                                                      states[0]),
                     "--to", _write(tmp_path / "to.json", states[1]), "--steps", "8"]) == 0
    config = parse_config(cfg)
    assert config.system.graph.n_links == 28
    ends = [parse_state(rho, config.system.graph, "state") for rho in states]
    return config, ends, tmp_path / "out"


def test_cli_metric_writes_one_flux_row_per_link(tmp_path):
    # each flux is antisymmetric, so its (lo, hi) value is all there is;
    # both orientations used to be written
    config, _, out = _rgg_metric(tmp_path)
    with open(out / "geodesic_fluxes.csv", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["interval", "species", "src", "dst", "flux"]
    assert len(rows) == 8 * 2 * 28
    assert all(int(row[2]) < int(row[3]) for row in rows)


def test_cli_geodesic_profile_equals_the_in_memory_profile(tmp_path):
    # the profile of the stored path is the solver's profile bit for bit
    config, (start, end), out = _rgg_metric(tmp_path)
    system = config.system
    _, path, _ = transport.transport_cost(system.graph, start, end, 8, system.mobility,
                                          system.kernels.beta, system.exponents)
    expected = transport.geodesic_profile(system.graph, path, system.mobility,
                                          system.kernels.beta, system.exponents)
    assert main_cli(["geodesic-profile", "--path", str(out / "geodesic.csv"),
                     "--config", str(tmp_path / "cfg.json")]) == 0
    profile = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    assert np.array_equal(profile[:, 2], expected)


@pytest.mark.parametrize("command, option, written", [
    ("geodesic-profile", "--path", "profile.csv"),
    ("diagnose", "--trajectory", "de_giorgi.json"),
])
def test_cli_rejects_a_single_time(tmp_path, capsys, command, option, written):
    # one state is no path: geodesic-profile printed "profile mean nan" and
    # wrote an empty profile, and diagnose certified G_T = 0.0, both with exit 0
    cfg_path = _metric_outputs(tmp_path)
    out = tmp_path / "out"
    header, *rows = (out / "geodesic.csv").read_text().splitlines()
    first = [row for row in rows if row.startswith("0.0,")]
    assert 0 < len(first) < len(rows)
    (out / "geodesic.csv").write_text("\n".join([header] + first) + "\n")
    (out / "geodesic_fluxes.csv").write_text("interval,species,src,dst,flux\n")
    capsys.readouterr()
    assert main_cli([command, option, str(out / "geodesic.csv"), "--config", cfg_path,
                     "--out", str(tmp_path / "single")]) == 1
    assert "needs at least two distinct times, got 1" in capsys.readouterr().err
    assert not (tmp_path / "single" / written).exists()


def test_cli_rejects_infinite_first_step(tmp_path):
    cfg = s1_config(t_final=0.1, out_dir=str(tmp_path / "out"))
    cfg["integrator"] = {"dt_initial": float("inf")}
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    assert main_cli(["simulate", "--config", cfg_path]) == 1
    with pytest.raises(SemanticError, match="integrator.dt_initial"):
        parse_config(cfg)


def test_gaussian_plan_quantiles_equal_norm_ppf():
    from scipy.stats import norm

    for mean in np.linspace(-1.0, 1.0, 9):
        for sigma in (0.05, 0.5, 1.0, 3.0):
            plan = RefinementPlan("gaussian", {"mean": float(mean), "sigma": sigma}, ladder=(4,))
            for n in (3, 64, 512):
                u = (np.arange(n) + 0.5) / n
                assert np.array_equal(plan.quantile(u), norm.ppf(u, loc=mean, scale=sigma))
    plan = RefinementPlan("gaussian", {}, ladder=(4,))
    assert np.array_equal(plan.quantile([0.0, 0.25, 1.0]), norm.ppf([0.0, 0.25, 1.0]))
    with pytest.raises(SchemaError, match="sigma"):
        RefinementPlan("gaussian", {"sigma": 0.0}, ladder=(4,))


_FLOW_GUARD = """
import json, os, sys
from graphflow.cli import main_cli
from graphflow.scenarios import s1_config, s2_state_files

work = sys.argv[1]
paths = {}
for name, payload in zip(("cfg", "from", "to"),
                         (s1_config(t_final=0.25, out_dir=work), *s2_state_files())):
    paths[name] = os.path.join(work, name + ".json")
    with open(paths[name], "w") as handle:
        json.dump(payload, handle)
codes = [main_cli(["simulate", "--config", paths["cfg"]]),
         main_cli(["diagnose", "--config", paths["cfg"],
                   "--trajectory", os.path.join(work, "trajectory.csv")]),
         main_cli(["validate-graph", "--config", paths["cfg"]])]
flow = sorted(m for m in sys.modules if m.startswith(tuple(sys.argv[2:])))
codes.append(main_cli(["metric", "--config", paths["cfg"], "--from", paths["from"],
                       "--to", paths["to"], "--steps", "4"]))
print(json.dumps({"codes": codes, "flow": flow, "metric_linalg": "scipy.linalg" in sys.modules}))
"""


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # both are slow to import and graphflow needs neither at import time;
    # the W1 LP for points of dimension above 1 imports scipy.optimize itself
    import subprocess
    import sys

    import graphflow

    src = os.path.dirname(os.path.dirname(os.path.abspath(graphflow.__file__)))
    code = ("import sys, graphflow; print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.stats', 'scipy.optimize'))))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"

    # the flow commands need only scipy.sparse, for the link divergence; the
    # transport solve of `metric` imports the LAPACK band solver when it runs
    unloaded = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.special",
                "scipy.optimize")
    done = subprocess.run([sys.executable, "-c", _FLOW_GUARD, str(tmp_path), *unloaded], env=env,
                          capture_output=True, text=True, check=True)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0]
    assert report["flow"] == []
    assert report["metric_linalg"]


@pytest.mark.parametrize("module", ["graphflow", "graphflow.cli"])
def test_python_m_runs_the_command_line_without_warnings(module):
    # `python -m graphflow` had no __main__ module, and `python -m
    # graphflow.cli` warned that the package had already imported it
    import subprocess
    import sys

    import graphflow

    src = os.path.dirname(os.path.dirname(os.path.abspath(graphflow.__file__)))
    done = subprocess.run([sys.executable, "-m", module, "--version"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (done.returncode, done.stdout, done.stderr) == (
        0, f"graphflow {graphflow.__version__}\n", "")


def _simulated_states(tmp_path, cfg):
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    assert main_cli(["simulate", "--config", cfg_path]) == 0
    config = parse_config(cfg)
    trajectory = integrate(config.system, config.initial_state, config.time_horizon,
                           config.integrator)
    return config, trajectory


def test_cli_trajectory_csv_round_trip(tmp_path):
    cfg = s1_config(t_final=0.25, out_dir=str(tmp_path / "out"))
    cfg["integrator"] = {"max_dt": 0.05}
    config, trajectory = _simulated_states(tmp_path, cfg)
    path = tmp_path / "out" / "trajectory.csv"
    times, states = _read_states_csv(str(path), config.system.graph)
    assert np.array_equal(times, trajectory.times)
    assert np.array_equal(states, trajectory.states)
    # any row order reads back the same states
    header, *rows = path.read_text().splitlines(keepends=True)
    np.random.default_rng(0).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows))
    times, states = _read_states_csv(str(shuffled), config.system.graph)
    assert np.array_equal(times, trajectory.times)
    assert np.array_equal(states, trajectory.states)
    # an entry missing for a time is refused, not read as zero
    t = float(trajectory.times[1])
    kept = [row for row in rows if not row.startswith(f"{t!r},2,1,")]
    assert len(kept) == len(rows) - 1
    shuffled.write_text(header + "".join(kept))
    with pytest.raises(SchemaError, match=re.escape(f"no row for t {t!r}, species 2, vertex 1")):
        _read_states_csv(str(shuffled), config.system.graph)


def _csv_writer_text(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def test_species_csv_is_byte_for_byte_csv_writer_text():
    # numbers whose repr is long or unusual, formatted as csv.writer does
    times = np.array([0.0, 0.1 + 0.2, 5e-324, 1e22])
    values = np.array([0.1 + 0.2, 5e-324, -0.0, 1 / 3, 1e-300, np.inf, -np.inf, np.nan])
    values = np.resize(values, (4, 2, 3))
    rows = [(t, i + 1, m, values[k, i, m]) for k, t in enumerate(times.tolist())
            for i in range(2) for m in range(3)]
    got = _species_csv(("t", "species", "vertex", "density"), times, values, np.arange(3))
    assert got == _csv_writer_text(("t", "species", "vertex", "density"), rows)
    src, dst = np.array([0, 2, 1]), np.array([2, 0, 1])
    rows = [(k, i + 1, src[m], dst[m], values[k, i, m]) for k in range(4)
            for i in range(2) for m in range(3)]
    header = ("interval", "species", "src", "dst", "flux")
    assert _species_csv(header, np.arange(4), values, src, dst) == _csv_writer_text(header, rows)


def test_cli_trajectory_csv_bytes_equal_csv_writer_rows(tmp_path):
    cfg = s1_config(t_final=0.25, out_dir=str(tmp_path / "out"))
    cfg["integrator"] = {"max_dt": 0.05}
    config, trajectory = _simulated_states(tmp_path, cfg)
    n = config.system.graph.n_vertices
    rows = [(t, i + 1, m, trajectory.states[k, i, m])
            for k, t in enumerate(trajectory.times.tolist()) for i in range(2) for m in range(n)]
    with open(tmp_path / "out" / "trajectory.csv", newline="", encoding="utf-8") as handle:
        assert handle.read() == _csv_writer_text(("t", "species", "vertex", "density"), rows)


def _no_constants(name):
    raise AssertionError(f"non-strict JSON constant {name}")


def test_cli_refine_writes_strict_json(tmp_path):
    # level 0 has no previous level, so its W1 gap is not a number: null
    cfg = _refine_config()
    cfg["output_dir"] = str(tmp_path / "out")
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    plan_path = _write(tmp_path / "plan.json", {
        "density": {"name": "gaussian", "params": {"sigma": 0.4}},
        "ladder": [4, 8], "initial_atoms": 16})
    assert main_cli(["refine", "--plan", plan_path, "--config", cfg_path]) == 0
    text = (tmp_path / "out" / "refinement.json").read_text()
    report = json.loads(text, parse_constant=_no_constants)
    assert report["levels"][0]["w1_gap_from_previous"] is None
    assert isinstance(report["levels"][1]["w1_gap_from_previous"], float)


def test_cli_diagnose_exits_1_on_a_state_beyond_the_slack(tmp_path, capsys):
    # a stored state below 0 by more than the flux law's slack is a
    # ThresholdExceeded, a validation error, not a certificate of G_T = inf
    cfg = s1_config(t_final=0.25, out_dir=str(tmp_path / "out"))
    cfg["integrator"] = {"max_dt": 0.05}
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    assert main_cli(["simulate", "--config", cfg_path]) == 0
    path = tmp_path / "out" / "trajectory.csv"
    lines = path.read_text().splitlines()
    t, species, vertex, _ = lines[-1].split(",")
    lines[-1] = ",".join([t, species, vertex, "-1e-6"])
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main_cli(["diagnose", "--trajectory", str(path), "--config", cfg_path,
                     "--out", str(tmp_path / "diag")]) == 1
    assert "outside" in capsys.readouterr().err
    assert not (tmp_path / "diag" / "de_giorgi.json").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines + [lines[1]], "row 33: repeats t 0.0, species 1, vertex 0"),
    (lambda lines: lines[:-1], "no row for t 0.5, species 2, vertex 1"),
], ids=["repeated", "missing"])
def test_cli_diagnose_requires_every_state_entry_once(tmp_path, capsys, edit, message):
    # a missing row used to read as zero density and a repeated one to
    # overwrite the first, each certifying a wrong G_T with exit 0
    cfg = s1_config(t_final=0.5, out_dir=str(tmp_path / "out"))
    cfg["integrator"] = {"max_dt": 0.1}
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    assert main_cli(["simulate", "--config", cfg_path]) == 0
    path = tmp_path / "out" / "trajectory.csv"
    lines = path.read_text().splitlines()
    assert len(lines) == 33
    path.write_text("\n".join(edit(lines)) + "\n")
    capsys.readouterr()
    assert main_cli(["diagnose", "--trajectory", str(path), "--config", cfg_path,
                     "--out", str(tmp_path / "diag")]) == 1
    assert f"invalid input: {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "diag" / "de_giorgi.json").exists()


def test_cli_validate_graph_prints_strict_json(tmp_path, capsys):
    # points 1e200 apart overflow the assumption constants: they used to be
    # printed as Infinity, which strict parsers reject; the link's length,
    # once inf from the squared coordinates, is 1e200
    cfg = s1_config()
    cfg["graph"]["points"] = [[0.0], [1e200]]
    assert main_cli(["validate-graph", "--config", _write(tmp_path / "cfg.json", cfg)]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    assert report["c_mu"] is None and report["c_eta"] is None
    assert report["bc_profile"] == [[1e200, 0.0]]
    assert list(report) == _field_names(AssumptionReport)


def test_cli_diagnose_exits_2_on_a_non_finite_residual(tmp_path, capsys, monkeypatch):
    cfg = s1_config(t_final=0.25, out_dir=str(tmp_path / "out"))
    cfg["integrator"] = {"max_dt": 0.05}
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    assert main_cli(["simulate", "--config", cfg_path]) == 0
    de_giorgi = diagnostics.de_giorgi

    def infinite(system, trajectory):
        report = de_giorgi(system, trajectory)
        return diagnostics.DeGiorgiReport(report.energy_start, report.energy_end, np.inf,
                                          report.velocity_integral, np.inf, report.series)

    monkeypatch.setattr(cli.diagnostics, "de_giorgi", infinite)
    capsys.readouterr()
    args = ["diagnose", "--trajectory", str(tmp_path / "out" / "trajectory.csv"),
            "--config", cfg_path]
    assert main_cli(args) == 2
    assert "G_T is inf" in capsys.readouterr().err
    text = (tmp_path / "out" / "de_giorgi.json").read_text()
    report = json.loads(text, parse_constant=_no_constants)
    assert report["g_t"] is None and report["dissipation_integral"] is None
    assert isinstance(report["energy_end"], float)


def _far_apart_config(tmp_path, points, k11=None):
    """S1 on the given points with a gaussian eta, which vanishes between
    them, so the states stay where they start, and K11 if given."""
    cfg = s1_config(t_final=0.25, out_dir=str(tmp_path / "out"))
    cfg["graph"] = {"points": points, "weights": [1.0, 1.0], "eta_preset": {"name": "gaussian"}}
    cfg["kernels"]["K11"] = k11 or cfg["kernels"]["K11"]
    return _write(tmp_path / "cfg.json", cfg)


def test_cli_gives_points_far_apart_finite_energies_without_warnings(tmp_path, capsys):
    # the distance kernel squared the coordinates, so points 1e200 apart were
    # infinitely far: simulate exited 0 with every energy null, diagnose then
    # reported G_T = nan, and each command warned of the overflow
    cfg_path = _far_apart_config(tmp_path, [[0.0], [1e200]])
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main_cli(["simulate", "--config", cfg_path]) == 0
        assert main_cli(["diagnose", "--trajectory", str(out / "trajectory.csv"),
                         "--config", cfg_path]) == 0
        assert main_cli(["validate-graph", "--config", cfg_path]) == 0
    printed = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(printed, parse_constant=_no_constants)["bc_profile"] == []
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_no_constants)
    # E = (1/2) (0.75 * 0.25 + 0.25 * 0.75) 1e200 at every time
    assert [row["energy"] for row in summary["energy_series"]] == pytest.approx(
        [1.875e199] * len(summary["energy_series"]), rel=1e-15)
    assert json.loads((out / "de_giorgi.json").read_text())["g_t"] == 0.0


@pytest.mark.parametrize("k11, code", [
    ({"preset": "gaussian_well"}, 0), ({"expression": "exp(-d^2)"}, 0),
    ({"preset": "quadratic"}, 2), ({"expression": "d^2"}, 2),
], ids=["gaussian_well", "exp", "quadratic", "square"])
def test_cli_squares_distances_beyond_the_float_range_without_warnings(tmp_path, capsys, k11,
                                                                       code):
    # the square of a distance of 1e200 overflows to inf, which makes a
    # gaussian well exactly 0 and the quadratic energy inf; each run warned
    # of the overflow on stderr
    cfg_path = _far_apart_config(tmp_path, [[0.0], [1e200]], k11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main_cli(["simulate", "--config", cfg_path]) == code
    err = capsys.readouterr().err
    assert "Warning" not in err
    assert ("the energy is inf" in err) == (code == 2)


def test_cli_simulate_exits_2_on_a_non_finite_energy(tmp_path, capsys):
    # points 2e308 apart are beyond the float range, so the energy is inf;
    # simulate used to exit 0 and write it as null, unremarked
    cfg_path = _far_apart_config(tmp_path, [[-1e308], [1e308]])
    assert main_cli(["simulate", "--config", cfg_path]) == 2
    assert "numerical failure: the energy is inf at t = 0.0" in capsys.readouterr().err
    text = (tmp_path / "out" / "summary.json").read_text()
    summary = json.loads(text, parse_constant=_no_constants)
    assert summary["energy_series"][0]["energy"] is None


def test_atoms_initial_states_need_unit_species_mass(tmp_path, capsys):
    # densities of species mass 5 were refused while atoms of total mass 5 ran
    raw = s1_config()
    raw["initial_state"] = {"atoms1": {"positions": [[0.1]], "masses": [5.0]},
                            "atoms2": dict(ATOMS)}
    assert main_cli(["validate-graph", "--config", _write(tmp_path / "cfg.json", raw)]) == 1
    assert re.search(r"invalid input: initial species masses \[5\. 1\.\] are not 1",
                     capsys.readouterr().err)


def _refine_levels(tmp_path, name, graph):
    """The levels that ``refine`` writes for S1's vertices with ``graph``'s eta."""
    cfg = _refine_config()
    cfg["graph"] = {"points": [[0.0], [1.0]], "weights": [1.0, 1.0], **graph}
    cfg["output_dir"] = str(tmp_path / name)
    plan = {"density": {"name": "gaussian", "params": {"sigma": 0.4}}, "ladder": [4, 8],
            "initial_atoms": 16, "transport_diagnostic": False}
    assert main_cli(["refine", "--plan", _write(tmp_path / "plan.json", plan),
                     "--config", _write(tmp_path / f"{name}.json", cfg)]) == 0
    return json.loads((tmp_path / name / "refinement.json").read_text())["levels"]


def test_cli_refine_runs_an_eta_matrix_with_its_constant(tmp_path):
    # refine ran every eta_matrix config with eta = 1, whatever the matrix held
    matrix = _refine_levels(tmp_path, "matrix", {"eta_matrix": [[0.0, 5.0], [5.0, 0.0]]})
    preset = _refine_levels(tmp_path, "preset",
                            {"eta_preset": {"name": "constant", "params": {"value": 5.0}}})
    unit = _refine_levels(tmp_path, "unit", {"eta_matrix": [[0.0, 1.0], [1.0, 0.0]]})
    assert matrix == preset != unit
    assert unit == _refine_levels(tmp_path, "default", {"eta_preset": {"name": "constant"}})


def test_cli_refine_refuses_an_eta_matrix_that_is_not_constant(tmp_path, capsys):
    cfg = _refine_config()
    cfg["graph"] = {"points": [[0.0], [1.0], [2.0]], "weights": [1.0, 1.0, 1.0],
                    "eta_matrix": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]}
    cfg["output_dir"] = str(tmp_path / "out")
    plan = {"density": {"name": "uniform"}, "ladder": [4], "initial_atoms": 8}
    assert main_cli(["refine", "--plan", _write(tmp_path / "plan.json", plan),
                     "--config", _write(tmp_path / "cfg.json", cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        "invalid input: graph.eta_matrix: a refinement study needs eta constant off the "
        "diagonal, got values from 1.0 to 2.0")
    assert not (tmp_path / "out").exists()


def test_cli_metric_and_refine_json_hold_each_value_once(tmp_path):
    # metric.json held the objective twice, at the top level and in the
    # certificate; refinement.json held each W1 gap twice, in a w1_gaps list
    # and in the later level, and each level's first and last energy twice,
    # as energy_start and energy_end and in its energy_series
    out = tmp_path / "out"
    cfg = s1_config(t_final=0.1, out_dir=str(out))
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    start, end = s2_state_files()
    assert main_cli(["metric", "--config", cfg_path, "--from", _write(tmp_path / "a.json", start),
                     "--to", _write(tmp_path / "b.json", end), "--steps", "4"]) == 0
    metric = json.loads((out / "metric.json").read_text())
    assert sorted(metric) == ["T", "certificate", "resolved_config", "steps", "version"]
    assert isinstance(metric["certificate"]["objective"], float)

    plan = {"density": {"name": "uniform"}, "ladder": [4, 6, 8], "initial_atoms": 8,
            "transport_diagnostic": False}
    assert main_cli(["refine", "--plan", _write(tmp_path / "plan.json", plan),
                     "--config", cfg_path]) == 0
    refinement = json.loads((out / "refinement.json").read_text())
    assert sorted(refinement) == ["levels", "resolved_config", "version"]
    for level in refinement["levels"]:
        assert "energy_start" not in level and "energy_end" not in level
        assert len(level["energy_series"]) >= 2
    report = run_refinement_study(parse_plan(plan), parse_config(cfg))
    gaps = [level.w1_gap_from_previous for level in report.levels[1:]]
    assert report.w1_gaps == gaps == [level["w1_gap_from_previous"]
                                      for level in refinement["levels"][1:]]
