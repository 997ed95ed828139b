"""Command-line entry point.

Subcommands: simulate, metric, geodesic-profile, diagnose, refine,
validate-graph, properties.  Exit codes: 0 success, 1 validation failure,
2 numerical failure, 64 usage error.  All file writes are atomic
(write-temp-then-rename); outputs are JSON and CSV only.
"""

import argparse
import csv
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__, diagnostics, dynamics, transport
from .config import (
    emit_config,
    parse_config,
    parse_plan,
    parse_state,
    run_refinement_study,
)
from .errors import GraphflowError, NotConverged, SchemaError, SemanticError, StepSizeUnderflow
from .graph import check_assumptions
from .kernels import energy

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64

_STATE_HEADER = ("t", "species", "vertex", "density")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


class _Usage(Exception):
    pass


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-graphflow-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, payload):
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")


def _write_csv(path, header, rows):
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buffer.getvalue())


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _build_parser():
    parser = _Parser(prog="graphflow", description="Two-species upwind gradient flows on graphs")
    parser.add_argument("--version", action="version", version=f"graphflow {__version__}")
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="integrate the gradient flow")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None, help="output directory (overrides config)")

    met = sub.add_parser("metric", help="transportation cost between two states")
    met.add_argument("--config", required=True)
    met.add_argument("--from", dest="state_from", required=True)
    met.add_argument("--to", dest="state_to", required=True)
    met.add_argument("--steps", type=int, default=None)
    met.add_argument("--out", default=None)

    geo = sub.add_parser("geodesic-profile", help="per-interval actions of a stored path")
    geo.add_argument("--path", required=True, help="geodesic CSV written by `metric`")
    geo.add_argument("--config", required=True)
    geo.add_argument("--out", default=None)

    diag = sub.add_parser("diagnose", help="De Giorgi report for a stored trajectory")
    diag.add_argument("--trajectory", required=True, help="trajectory CSV from `simulate`")
    diag.add_argument("--config", required=True)
    diag.add_argument("--out", default=None)

    ref = sub.add_parser("refine", help="graph refinement study")
    ref.add_argument("--plan", required=True)
    ref.add_argument("--config", required=True)
    ref.add_argument("--out", default=None)

    val = sub.add_parser("validate-graph", help="assumption report for a graph")
    val.add_argument("--config", required=True)

    prop = sub.add_parser("properties", help="randomized property suites")
    prop.add_argument("--suite", required=True)
    prop.add_argument("--seed", type=int, default=0)
    prop.add_argument("--samples", type=int, default=100)
    prop.add_argument("--out", default=None)
    return parser


def _out_dir(config, override):
    return override or config.output_dir


def _summary_payload(config, extra):
    payload = {
        "version": __version__,
        "resolved_config": json.loads(emit_config(config)),
    }
    payload.update(extra)
    return payload


def _cmd_simulate(args):
    config = parse_config(_read(args.config))
    if config.initial_state is None:
        raise SemanticError("simulate requires initial_state in the config")
    trajectory = dynamics.integrate(
        config.initial_state, config.time_horizon, config.kernels, config.mobility,
        config.exponents, config.graph, config.integrator,
    )
    out = _out_dir(config, args.out)
    _write_csv(os.path.join(out, "trajectory.csv"), _STATE_HEADER,
               _species_rows(trajectory.times, trajectory.states, np.arange(config.graph.n_vertices)))
    summary = _summary_payload(
        config,
        {
            "energy_series": [
                {"t": float(t), "energy": float(e)}
                for t, e in zip(trajectory.times, trajectory.energies)
            ],
            "stats": trajectory.stats,
        },
    )
    _write_json(os.path.join(out, "summary.json"), summary)
    print(f"wrote {out}/trajectory.csv and {out}/summary.json "
          f"({trajectory.n_steps} steps, mass drift {trajectory.stats['mass_drift']:.2e})")
    return EXIT_OK


def _cmd_metric(args):
    config = parse_config(_read(args.config))
    start = parse_state(_read(args.state_from), config.graph)
    end = parse_state(_read(args.state_to), config.graph)
    steps = args.steps or config.solver_steps
    t_value, path, certificate = transport.transport_cost(
        config.graph, start, end, steps, config.mobility, config.kernels.beta,
        config.exponents, config.solver,
    )
    out = _out_dir(config, args.out)
    _write_json(
        os.path.join(out, "metric.json"),
        _summary_payload(
            config,
            {
                "T": t_value,
                "objective": certificate.objective,
                "certificate": vars(certificate),
                "steps": steps,
            },
        ),
    )
    _write_csv(os.path.join(out, "geodesic.csv"), _STATE_HEADER,
               _species_rows(path.times, path.states, np.arange(config.graph.n_vertices)))
    _write_csv(
        os.path.join(out, "geodesic_fluxes.csv"),
        ("interval", "species", "src", "dst", "flux"),
        _species_rows(np.arange(path.n_intervals), path.fluxes, config.graph.edge_src,
                      config.graph.edge_dst),
    )
    print(f"T = {t_value:.6f} (objective {certificate.objective:.6f}); wrote {out}/metric.json")
    return EXIT_OK


def _species_rows(index, values, *labels):
    """CSV rows ``(index[k], species, *(label[m] for label in labels),
    values[k, species - 1, m])`` of a (K, 2, m) array, in its C order."""
    count, _, m = values.shape
    columns = [np.repeat(index, 2 * m), np.tile(np.repeat((1, 2), m), count)]
    columns += [np.tile(label, 2 * count) for label in labels]
    return zip(*(column.tolist() for column in columns), values.reshape(-1).tolist())


def _read_states_csv(path, graph):
    """Read a (t, species, vertex, density) CSV into times and state arrays.

    Rows may come in any order; entries missing for a time stay zero.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        header = next(csv.reader(handle), [])
        missing = [name for name in _STATE_HEADER if name not in header]
        if missing:
            raise SchemaError(path, f"missing columns {missing}")
        data = np.loadtxt(handle, delimiter=",", ndmin=2,
                          usecols=[header.index(name) for name in _STATE_HEADER])
    if len(data) == 0:
        raise SchemaError(path, "no data rows")
    times, slot = np.unique(data[:, 0], return_inverse=True)
    states = np.zeros((len(times), 2, graph.n_vertices))
    states[slot, data[:, 1].astype(np.int64) - 1, data[:, 2].astype(np.int64)] = data[:, 3]
    return times, states


def _read_fluxes_csv(path, graph, n_intervals):
    fluxes = np.zeros((n_intervals, 2, graph.n_edges))
    index = {(int(s), int(d)): e for e, (s, d) in enumerate(zip(graph.edge_src, graph.edge_dst))}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            e = index[(int(row["src"]), int(row["dst"]))]
            fluxes[int(row["interval"]), int(row["species"]) - 1, e] = float(row["flux"])
    return fluxes


def _cmd_geodesic_profile(args):
    config = parse_config(_read(args.config))
    times, states = _read_states_csv(args.path, config.graph)
    flux_file = os.path.join(os.path.dirname(os.path.abspath(args.path)), "geodesic_fluxes.csv")
    if os.path.exists(flux_file):
        fluxes = _read_fluxes_csv(flux_file, config.graph, len(times) - 1)
        path = transport.DiscretePath(times=times, states=states, fluxes=fluxes)
    else:
        # states-only input: fall back to the minimal-norm continuity flux
        path = _states_to_path(times, states, config)
    profile = transport.geodesic_profile(
        config.graph, path, config.mobility, config.kernels.beta, config.exponents
    )
    out = _out_dir(config, args.out)
    _write_csv(
        os.path.join(out, "profile.csv"),
        ("interval", "t_mid", "action"),
        [
            (k, 0.5 * (path.times[k] + path.times[k + 1]), profile[k])
            for k in range(path.n_intervals)
        ],
    )
    mean = float(np.mean(profile))
    spread = float(np.max(np.abs(profile - mean)) / mean) if mean > 0 else 0.0
    print(f"profile mean {mean:.6f}, max relative deviation {spread:.3%}; wrote {out}/profile.csv")
    return EXIT_OK


def _states_to_path(times, states, config):
    """Rebuild interval fluxes from stored states by least squares on continuity."""
    rates = np.diff(states, axis=0) / np.diff(times)[:, None, None]
    fluxes = transport.min_norm_flux(config.graph, rates)
    return transport.DiscretePath(times=times, states=states, fluxes=fluxes)


def _cmd_diagnose(args):
    config = parse_config(_read(args.config))
    times, states = _read_states_csv(args.trajectory, config.graph)
    # gradient-flow trajectories: node fluxes are recomputed from the states
    trajectory = dynamics.Trajectory(
        times=times,
        states=states,
        energies=np.array(
            [energy(states[k], config.kernels, config.graph) for k in range(len(times))]
        ),
        dts=np.diff(times),
        local_errors=np.zeros(len(times) - 1),
    )
    report = diagnostics.de_giorgi(
        trajectory, config.graph, config.kernels, config.mobility, config.exponents
    )
    out = _out_dir(config, args.out)
    _write_json(
        os.path.join(out, "de_giorgi.json"),
        _summary_payload(
            config,
            {
                "energy_start": report.energy_start,
                "energy_end": report.energy_end,
                "dissipation_integral": report.dissipation_integral,
                "velocity_integral": report.velocity_integral,
                "g_t": report.g_t,
            },
        ),
    )
    _write_csv(
        os.path.join(out, "diagnostics.csv"),
        ("t", "energy", "dissipation", "action"),
        list(report.series),
    )
    print(f"G_T = {report.g_t:.6e}; wrote {out}/de_giorgi.json and {out}/diagnostics.csv")
    return EXIT_OK


def _cmd_refine(args):
    config = parse_config(_read(args.config))
    plan = parse_plan(_read(args.plan))
    workers = max(1, int(os.environ.get("GRAPHFLOW_THREADS", "1")))
    report = run_refinement_study(plan, config, max_workers=workers)
    out = _out_dir(config, args.out)
    _write_json(os.path.join(out, "refinement.json"), _summary_payload(config, report.as_dict()))
    gaps = ", ".join(f"{g:.4e}" for g in report.w1_gaps) or "none"
    print(f"levels {[level.n_vertices for level in report.levels]}, W1 gaps: {gaps}; "
          f"wrote {out}/refinement.json")
    failed = [level.n_vertices for level in report.levels if level.failed]
    if failed:
        print(f"levels failed: {failed}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_validate_graph(args):
    config = parse_config(_read(args.config))
    report = check_assumptions(config.graph, config.exponents)
    payload = {
        "c_mu": report.c_mu,
        "c_eta": report.c_eta,
        "c_eta_prime": report.c_eta_prime,
        "bc_profile": [list(pair) for pair in report.bc_profile],
        "n_vertices": report.n_vertices,
        "n_edges": report.n_edges,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_properties(args):
    report = diagnostics.property_harness(args.suite, seed=args.seed, n_samples=args.samples)
    payload = {
        "suite": report.suite,
        "seed": report.seed,
        "n_samples": report.n_samples,
        "max_violation": report.max_violation,
        "failures": [vars(f) for f in report.failures],
        "note": report.note,
    }
    if args.out:
        _write_json(args.out, payload)
    print(json.dumps(payload, indent=2))
    if report.note:
        return EXIT_VALIDATION
    return EXIT_OK if report.passed else EXIT_NUMERICAL


_COMMANDS = {
    "simulate": _cmd_simulate,
    "metric": _cmd_metric,
    "geodesic-profile": _cmd_geodesic_profile,
    "diagnose": _cmd_diagnose,
    "refine": _cmd_refine,
    "validate-graph": _cmd_validate_graph,
    "properties": _cmd_properties,
}


def main_cli(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (SchemaError, SemanticError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NotConverged, StepSizeUnderflow) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GraphflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main():
    sys.exit(main_cli())


if __name__ == "__main__":
    main()
