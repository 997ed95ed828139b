"""The names the benchmark tracer wraps exist in the library.

``perfbench/tracing.py`` times graphflow's layers by replacing functions and
methods that it names; the README promises that these names stay.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("span", sorted(tracing.FUNCTIONS))
def test_traced_function_is_a_module_level_callable(span):
    module_name, attr = tracing.FUNCTIONS[span]
    assert module_name.startswith("graphflow.")
    module = importlib.import_module(module_name)
    assert callable(vars(module).get(attr)), f"{module_name}.{attr}"


@pytest.mark.parametrize("span", sorted(tracing.METHODS))
def test_traced_method_is_a_method_of_its_class(span):
    module_name, cls, attr = tracing.METHODS[span]
    klass = vars(importlib.import_module(module_name)).get(cls)
    assert isinstance(klass, type), f"{module_name}.{cls}"
    assert callable(vars(klass).get(attr)), f"{module_name}.{cls}.{attr}"
