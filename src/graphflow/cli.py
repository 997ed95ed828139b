"""Command-line entry point.

Subcommands: simulate, metric, geodesic-profile, diagnose, refine,
validate-graph, properties.  Exit codes: 0 success, 1 validation failure,
2 numerical failure, 64 usage error.  All file writes are atomic
(write-temp-then-rename); outputs are JSON and CSV only.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
import tempfile
import warnings

import numpy as np

from . import __version__, diagnostics, dynamics, transport
from .config import parse_config, parse_plan, parse_state, run_refinement_study
from .errors import GraphflowError, NotConverged, SchemaError, SemanticError, StepSizeUnderflow
from .graph import check_assumptions, link_ends

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64

_STATE_HEADER = ("t", "species", "vertex", "density")
_FLUX_HEADER = ("interval", "species", "src", "dst", "flux")


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


def _finite(value):
    """``value`` with every non-finite float inside it replaced by None."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    if isinstance(value, (float, np.floating)):
        return float(value) if np.isfinite(value) else None
    return value


def _strict_json(payload, **layout):
    """Strict JSON, written or printed: a non-finite number is null, never
    NaN or Infinity, which strict parsers reject; whatever produced it says
    why.  Without an indent, json serializes with its C encoder."""
    return json.dumps(_finite(payload), allow_nan=False, default=float, **layout)


def _write_json(path, payload):
    _atomic_write(path, _strict_json(payload, sort_keys=True) + "\n")


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
        "resolved_config": config.resolved,
    }
    payload.update(extra)
    return payload


def _cmd_simulate(args):
    config = parse_config(_read(args.config))
    if config.initial_state is None:
        raise SemanticError("simulate requires initial_state in the config")
    trajectory = dynamics.integrate(
        config.system, config.initial_state, config.time_horizon, config.integrator)
    out = _out_dir(config, args.out)
    _atomic_write(os.path.join(out, "trajectory.csv"),
                  _species_csv(_STATE_HEADER, trajectory.times, trajectory.states,
                               np.arange(config.system.graph.n_vertices)))
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
    k = int(np.argmin(np.isfinite(trajectory.energies)))  # the first non-finite energy, if any
    if not np.isfinite(trajectory.energies[k]):
        print(f"numerical failure: the energy is {trajectory.energies[k]} at t = "
              f"{trajectory.times[k]}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_metric(args):
    config = parse_config(_read(args.config))
    system = config.system
    graph = system.graph
    start = parse_state(_read(args.state_from), graph, args.state_from)
    end = parse_state(_read(args.state_to), graph, args.state_to)
    steps = config.solver_steps if args.steps is None else args.steps
    if steps < 1:
        raise SemanticError(f"--steps must be at least 1, got {steps}")
    t_value, path, certificate = transport.transport_cost(
        graph, start, end, steps, system.mobility, system.kernels.beta, system.exponents)
    out = _out_dir(config, args.out)
    _write_json(os.path.join(out, "metric.json"), _summary_payload(
        config, {"T": t_value, "certificate": vars(certificate), "steps": steps}))
    _atomic_write(os.path.join(out, "geodesic.csv"),
                  _species_csv(_STATE_HEADER, path.times, path.states,
                               np.arange(graph.n_vertices)))
    _atomic_write(os.path.join(out, "geodesic_fluxes.csv"),
                  _species_csv(_FLUX_HEADER, np.arange(path.n_intervals), path.fluxes,
                               *link_ends(graph, np.arange(graph.n_vertices))))
    print(f"T = {t_value:.6f} (objective {certificate.objective:.6f}); wrote {out}/metric.json")
    return EXIT_OK


def _species_csv(header, index, values, *labels):
    """The CSV text, byte for byte as ``csv.writer`` writes it, of the header
    and the rows ``(index[k], species, *(label[m] for label in labels),
    values[k, species - 1, m])`` of a (K, 2, m) array, in its C order, with
    integer labels.

    Each index and label is formatted once and each value by ``repr``, as
    ``csv.writer`` formats a float; lines end in ``\\r\\n``.  The text is
    joined from one chunk per index and species.
    """
    keys = [",".join(key) for key in zip(*(map(str, np.asarray(label, dtype=np.int64).tolist())
                                          for label in labels))]
    index = np.asarray(index).tolist()
    chunks = [",".join(header) + "\r\n"]
    for block, row in enumerate(values.reshape(-1, values.shape[-1]).tolist()):
        lead = f"{index[block // 2]},{block % 2 + 1},"
        chunks.append("".join([f"{lead}{key},{value!r}\r\n" for key, value in zip(keys, row)]))
    return "".join(chunks)


def _read_table(path, columns):
    """The named columns of a CSV file with a header row, as (rows, columns) floats.

    ``columns`` maps each name to None (any finite number) or to the range
    [start, stop) of an integer.  A row breaking this raises SchemaError
    with its number, counted from 1 after the header, empty lines skipped.
    """
    names = list(columns)
    with open(path, newline="", encoding="utf-8") as handle:
        header = next(csv.reader([handle.readline()]), [])
        missing = [name for name in names if name not in header]
        if missing:
            raise SchemaError(path, f"missing columns {missing}")
        usecols = [header.index(name) for name in names]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a file without data rows is an empty table
                data = np.loadtxt(handle, delimiter=",", ndmin=2, usecols=usecols, comments=None)
        except ValueError as exc:
            handle.seek(0)
            for number, row in enumerate(list(filter(None, csv.reader(handle)))[1:], start=1):
                try:
                    [float(row[c]) for c in usecols]
                except (IndexError, ValueError):
                    raise SchemaError(path, f"row {number}: expected numbers in {names}, "
                                            f"got {row}") from None
            raise SchemaError(path, str(exc)) from None
    for values, (name, bounds) in zip(data.T, columns.items()):
        start, stop = bounds or (-np.inf, np.inf)
        integral = bounds is None or np.floor(values) == values
        _reject_row(path, ~(np.isfinite(values) & (values >= start) & (values < stop) & integral),
                    lambda row: f"{name} {values[row]:g} is not " + (
                        "finite" if bounds is None else f"an integer in {start}..{stop - 1}"))
    return data


def _reject_row(path, bad, describe):
    """SchemaError at the first row flagged in ``bad``, described by ``describe(row)``."""
    if np.any(bad):
        row = int(np.argmax(bad))
        raise SchemaError(path, f"row {row + 1}: {describe(row)}")


def _place(path, keys, values, shape, describe):
    """The ``shape`` array holding each row's value at its index ``keys``.

    Every entry appears exactly once: a SchemaError names a repeated entry's
    row, or a missing entry by ``describe(*index)``.  One count over the
    slots finds both; a repeat's row is looked up only then.
    """
    slot = np.ravel_multi_index(keys, shape)
    counts = np.bincount(slot, minlength=int(np.prod(shape)))
    if counts.max(initial=0) > 1:
        _, first, which = np.unique(slot, return_index=True, return_inverse=True)
        _reject_row(path, first[which] != np.arange(slot.size),
                    lambda row: "repeats " + describe(*np.unravel_index(slot[row], shape)))
    if not np.all(counts):
        missing = np.unravel_index(np.argmin(counts), shape)
        raise SchemaError(path, "no row for " + describe(*missing))
    placed = np.empty(shape)
    placed.reshape(-1)[slot] = values
    return placed


def _read_states_csv(path, graph):
    """Read a (t, species, vertex, density) CSV into times and state arrays.

    Rows may come in any order, and each (t, species, vertex) entry appears
    exactly once.  A path or trajectory needs at least two distinct times.
    """
    n = graph.n_vertices
    data = _read_table(path, dict(zip(_STATE_HEADER, [None, (1, 3), (0, n), None])))
    times, index = np.unique(data[:, 0], return_inverse=True)
    if len(times) < 2:
        raise SchemaError(path, f"needs at least two distinct times, got {len(times)}")
    species, vertex = data[:, 1:3].T.astype(np.int64)
    return times, _place(path, (index, species - 1, vertex), data[:, 3], (len(times), 2, n),
                         lambda k, i, m: f"t {times[k].item()!r}, species {i + 1}, vertex {m}")


def _read_fluxes_csv(path, graph, n_intervals):
    """Read an (interval, species, src, dst, flux) CSV into (K, 2, links) fluxes.

    Each link's flux is one row with ``src = lo < dst = hi``, as ``metric``
    writes it, and each (interval, species, link) entry appears exactly
    once; a (hi, lo) pair is not a link.
    """
    n = graph.n_vertices
    data = _read_table(path, dict(zip(_FLUX_HEADER, [(0, n_intervals), (1, 3), (0, n), (0, n),
                                                     None])))
    interval, species, src, dst = data[:, :4].T.astype(np.int64)
    lo, hi = (ends.astype(np.int64) for ends in link_ends(graph, np.arange(n)))
    keys, wanted = lo * n + hi, src * n + dst
    _reject_row(path, ~np.isin(wanted, keys), lambda row: f"({src[row]}, {dst[row]}) is not a link")
    return _place(path, (interval, species - 1, np.searchsorted(keys, wanted)), data[:, 4],
                  (n_intervals, 2, graph.n_links),
                  lambda k, i, m: f"interval {k}, species {i + 1}, link ({lo[m]}, {hi[m]})")


def _cmd_geodesic_profile(args):
    config = parse_config(_read(args.config))
    system = config.system
    times, states = _read_states_csv(args.path, system.graph)
    flux_file = os.path.join(os.path.dirname(os.path.abspath(args.path)), "geodesic_fluxes.csv")
    if os.path.exists(flux_file):
        fluxes = _read_fluxes_csv(flux_file, system.graph, len(times) - 1)
    else:
        # states-only input: fall back to the minimal-norm continuity flux
        rates = np.diff(states, axis=0) / np.diff(times)[:, None, None]
        fluxes = transport.min_norm_flux(system.graph, rates)
    path = transport.DiscretePath(times=times, states=states, fluxes=fluxes)
    residual = path.continuity_residual(system.graph)
    if not residual <= transport.CONSTRAINT_BOUND:  # NaN fails too
        raise SemanticError(f"{args.path}: the path does not solve the continuity equation: "
                            f"residual {residual:.3e} above {transport.CONSTRAINT_BOUND:g}")
    profile = transport.geodesic_profile(
        system.graph, path, system.mobility, system.kernels.beta, system.exponents)
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


def _cmd_diagnose(args):
    config = parse_config(_read(args.config))
    times, states = _read_states_csv(args.trajectory, config.system.graph)
    # gradient-flow trajectories: energies and node fluxes are recomputed
    # from the states, by de_giorgi from each state's potentials
    trajectory = dynamics.Trajectory(times=times, states=states, energies=None)
    report = diagnostics.de_giorgi(config.system, trajectory)
    out = _out_dir(config, args.out)
    payload = {key: value for key, value in vars(report).items() if key != "series"}
    _write_json(os.path.join(out, "de_giorgi.json"), _summary_payload(config, payload))
    _write_csv(
        os.path.join(out, "diagnostics.csv"),
        ("t", "energy", "dissipation", "action"),
        list(report.series),
    )
    print(f"G_T = {report.g_t:.6e}; wrote {out}/de_giorgi.json and {out}/diagnostics.csv")
    if not np.isfinite(report.g_t):
        print(f"numerical failure: the De Giorgi functional G_T is {report.g_t}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_refine(args):
    config = parse_config(_read(args.config))
    plan = parse_plan(_read(args.plan))
    report = run_refinement_study(plan, config)
    out = _out_dir(config, args.out)
    _write_json(os.path.join(out, "refinement.json"),
                _summary_payload(config, dataclasses.asdict(report)))
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
    report = check_assumptions(config.system.graph, config.system.exponents)
    print(_strict_json(vars(report)))
    return EXIT_OK


def _cmd_properties(args):
    report = diagnostics.property_harness(args.suite, seed=args.seed, n_samples=args.samples)
    payload = dataclasses.asdict(report)
    if args.out:
        _write_json(args.out, payload)
    print(_strict_json(payload, indent=2))
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
