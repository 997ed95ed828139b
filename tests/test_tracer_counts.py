"""The per-layer counts that one flow op feeds the benchmark tracer.

``perfbench/tracing.py`` derives its per-layer metrics from the calls of the
functions it wraps.  A rewrite that stops calling one of them through its
module binding makes its counter read 0 without any error; this pins, for a
small ``simulate`` + ``diagnose`` run, the ``rhs`` count of the integrator
(one rate at the start, then six per accepted step), the gradient count
(one per flux and one per state that the De Giorgi report evaluates) and
the set of traced names that such a run never calls.
"""

import json

from graphflow import cli
from graphflow.scenarios import s1_config

from test_tracer_names import tracing

# traced names that a simulate + diagnose run does not call: the flow path
# takes actions and dual actions in place; the flux takes its velocities
# from graph.nonlocal_gradient and rhs its divergence from
# graph.nonlocal_divergence
NOT_CALLED = [
    "config.project_initial",
    "config.run_refinement_study",
    "diagnostics.dissipation",
    "diagnostics.w1_distance",
    "transport.action",
    "transport.dual_action",
    "transport.transport_cost",
]


def test_flow_op_feeds_the_tracer_its_pinned_counts(tmp_path):
    cfg = s1_config(t_final=0.5, out_dir=str(tmp_path / "out"))
    cfg["integrator"] = {"max_dt": 0.05}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main_cli(["simulate", "--config", str(cfg_path)]) == 0
        assert cli.main_cli(["diagnose", "--config", str(cfg_path), "--trajectory",
                             str(tmp_path / "out" / "trajectory.csv")]) == 0
    finally:
        tracer.uninstall()
    stats = json.loads((tmp_path / "out" / "summary.json").read_text())["stats"]
    assert stats["rejected_steps"] == 0
    assert tracer.calls["dynamics.rhs"] == 1 + 6 * stats["accepted_steps"]
    assert tracer.calls["dynamics.upwind_flux"] == tracer.calls["dynamics.rhs"]
    assert tracer.calls["diagnostics.de_giorgi"] == 1
    states = 1 + stats["accepted_steps"]
    assert tracer.calls["graph.nonlocal_gradient"] == tracer.calls["dynamics.upwind_flux"] + states
    names = sorted(set(tracing.FUNCTIONS) | set(tracing.METHODS))
    assert [name for name in names if tracer.calls[name] == 0] == NOT_CALLED
