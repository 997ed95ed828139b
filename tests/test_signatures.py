"""The argument order of the library's public functions.

A function that needs the kernels takes the bound ``system`` first; one that
needs only the graph takes the ``graph`` first.  Transport functions take the
graph first and the mobility, weights and exponents as separate arguments,
since the quasi-metric does not depend on the kernels.  This guard keeps the
convention from drifting back, and no function takes both ``kernels`` and
``graph``: the system binds them.
"""

import importlib
import inspect

import pytest

MODULES = ("graph", "kernels", "mobility", "dynamics", "diagnostics", "transport")


def _public_functions():
    for name in MODULES:
        module = importlib.import_module(f"graphflow.{name}")
        for attr, fn in vars(module).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == module.__name__):
                yield f"{name}.{attr}", fn


FUNCTIONS = dict(_public_functions())


def test_the_guard_sees_the_flow_layer():
    for name in ("kernels.potentials", "dynamics.integrate", "diagnostics.de_giorgi",
                 "graph.nonlocal_gradient", "mobility.link_mobility",
                 "transport.transport_cost"):
        assert name in FUNCTIONS


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_system_or_graph_comes_first(name):
    params = list(inspect.signature(FUNCTIONS[name]).parameters)
    for bound in ("system", "graph"):
        if bound in params:
            assert params[0] == bound, f"{name}{tuple(params)}: {bound} must come first"
    assert not {"kernels", "graph"} <= set(params), f"{name} takes both kernels and graph"
