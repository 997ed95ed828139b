import json
import os

import numpy as np
import pytest

from graphflow.cli import _read_states_csv, main_cli
from graphflow.config import (
    RefinementPlan,
    emit_config,
    parse_config,
    parse_plan,
    project_initial,
    run_refinement_study,
)
from graphflow.dynamics import integrate
from graphflow.errors import MassMismatch, SchemaError, SemanticError
from graphflow.graph import BaseMeasure
from graphflow.scenarios import s1_config, s2_state_files


def test_parse_config_s1_defaults_and_derived_q():
    config = parse_config(json.dumps(s1_config()))
    assert config.exponents.p == 2.0
    assert config.exponents.q == 2.0
    assert config.graph.n_vertices == 2
    assert config.initial_state.rho1 == pytest.approx([0.75, 0.25])
    # defaults are echoed into the resolved form
    assert config.resolved["integrator"]["rel_tol"] == 1e-8
    assert config.resolved["solver"]["steps"] == 32


def test_parse_config_ignores_supplied_q():
    raw = s1_config()
    raw["q"] = 17.0  # the conjugate exponent is always derived, never read
    config = parse_config(json.dumps(raw))
    assert config.exponents.q == 2.0
    assert "q" not in config.resolved


def test_parse_config_round_trip():
    config = parse_config(json.dumps(s1_config()))
    again = parse_config(emit_config(config))
    assert again.resolved == config.resolved


def test_parse_config_rejects_bad_beta():
    raw = s1_config()
    raw["kernels"]["beta"] = [1.0, -1.0]
    with pytest.raises(SemanticError):
        parse_config(json.dumps(raw))


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
    assert config.graph.eta[0, 1] == pytest.approx(np.exp(-0.5))
    raw["graph"]["eta_preset"] = {"name": "cutoff", "params": {"radius": 0.5}}
    config = parse_config(json.dumps(raw))
    assert config.graph.n_edges == 0


def test_project_initial_identity_when_on_vertices():
    base = BaseMeasure(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    rho, info = project_initial(np.array([[0.0], [1.0]]), [0.3, 0.7], base, "nearest")
    assert rho == pytest.approx([0.3, 0.7])
    assert info["mass_drift"] == pytest.approx(0.0)


def test_project_initial_nearest_tie_breaks_low_index():
    base = BaseMeasure(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    rho, info = project_initial(np.array([[0.5]]), [1.0], base, "nearest")
    assert rho == pytest.approx([1.0, 0.0])
    rho, _ = project_initial(np.array([[0.6]]), [1.0], base, "nearest")
    assert rho == pytest.approx([0.0, 1.0])


def test_project_initial_lp_matches_nearest_for_generic_atoms():
    rng = np.random.default_rng(100)
    base = BaseMeasure(np.linspace(0, 1, 10).reshape(-1, 1), np.full(10, 0.1))
    samples = rng.uniform(0, 1, size=(100, 1))
    masses = np.full(100, 0.01)
    lp_rho, lp_info = project_initial(samples, masses, base, "transport")
    near_rho, _ = project_initial(samples, masses, base, "nearest")
    # with no capacity constraint the optimal plan is the nearest-vertex map
    assert lp_rho == pytest.approx(near_rho, abs=1e-9)
    assert np.sum(lp_rho * base.weights) == pytest.approx(1.0)
    # ten cells of a uniform sample receive roughly a tenth each, up to
    # binomial fluctuation of the 100 draws
    assert np.mean(np.abs(lp_rho * base.weights - 0.1)) < 0.05
    assert np.max(np.abs(lp_rho * base.weights - 0.1)) < 0.15
    assert lp_info["method"] == "transport"


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

    assert main_cli(["properties", "--suite", "duality", "--seed", "3",
                     "--samples", "25"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == []
    assert main_cli(["properties", "--suite", "bogus"]) == 1


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


@pytest.mark.parametrize("key", ["smoothing_schedule", "max_outer", "inner_maxiter", "tolerance"])
def test_cli_rejects_unknown_solver_keys(tmp_path, capsys, key):
    cfg = s1_config(t_final=0.1, out_dir=str(tmp_path / "out"))
    cfg["solver"] = {"steps": 8, key: 16}
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    assert main_cli(["simulate", "--config", cfg_path]) == 1
    assert f"solver.{key}" in capsys.readouterr().err
    with pytest.raises(SchemaError, match=f"solver.{key}: unknown key"):
        parse_config(cfg)


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
    assert len(report["w1_gaps"]) == 1


def test_run_refinement_study_marks_failed_levels(monkeypatch):
    import graphflow.config as config_mod

    plan = RefinementPlan("gaussian", {"sigma": 0.4}, ladder=(4, 8), initial_atoms=16,
                          transport_diagnostic=False)
    config = parse_config(json.dumps(_refine_config()))
    real_integrate = config_mod.dynamics.integrate

    def flaky(state, t_final, kernels, mobility, exponents, graph, options=None):
        if graph.n_vertices == 8:
            from graphflow.errors import StepSizeUnderflow

            raise StepSizeUnderflow("forced failure")
        return real_integrate(state, t_final, kernels, mobility, exponents, graph, options)

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


def test_cli_refine_honors_thread_env(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAPHFLOW_THREADS", "2")
    cfg = _refine_config()
    cfg["output_dir"] = str(tmp_path / "out")
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    plan_path = _write(
        tmp_path / "plan.json",
        {"density": {"name": "gaussian", "params": {"sigma": 0.4}},
         "ladder": [4, 8], "initial_atoms": 16, "transport_diagnostic": False},
    )
    assert main_cli(["refine", "--plan", plan_path, "--config", cfg_path]) == 0
    report = json.loads((tmp_path / "out" / "refinement.json").read_text())
    assert [level["n_vertices"] for level in report["levels"]] == [4, 8]


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


def test_import_leaves_scipy_stats_unloaded():
    import subprocess
    import sys

    import graphflow

    src = os.path.dirname(os.path.dirname(os.path.abspath(graphflow.__file__)))
    code = "import sys, graphflow; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


def _simulated_states(tmp_path, cfg):
    cfg_path = _write(tmp_path / "cfg.json", cfg)
    assert main_cli(["simulate", "--config", cfg_path]) == 0
    config = parse_config(cfg)
    trajectory = integrate(config.initial_state, config.time_horizon, config.kernels,
                           config.mobility, config.exponents, config.graph, config.integrator)
    return config, trajectory


def test_cli_trajectory_csv_round_trip(tmp_path):
    cfg = s1_config(t_final=0.25, out_dir=str(tmp_path / "out"))
    cfg["integrator"] = {"max_dt": 0.05}
    config, trajectory = _simulated_states(tmp_path, cfg)
    path = tmp_path / "out" / "trajectory.csv"
    times, states = _read_states_csv(str(path), config.graph)
    assert np.array_equal(times, trajectory.times)
    assert np.array_equal(states, trajectory.states)
    # any row order reads back the same states
    header, *rows = path.read_text().splitlines(keepends=True)
    np.random.default_rng(0).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows))
    times, states = _read_states_csv(str(shuffled), config.graph)
    assert np.array_equal(times, trajectory.times)
    assert np.array_equal(states, trajectory.states)
    # entries missing for a time read as zero
    kept = [row for row in rows if not row.startswith(f"{float(trajectory.times[1])!r},2,1,")]
    assert len(kept) == len(rows) - 1
    shuffled.write_text(header + "".join(kept))
    _, states = _read_states_csv(str(shuffled), config.graph)
    expected = trajectory.states.copy()
    expected[1, 1, 1] = 0.0
    assert np.array_equal(states, expected)
