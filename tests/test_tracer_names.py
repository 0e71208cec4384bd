"""The benchmark's tracer wraps riskscale functions by module and name.

``perfbench/tracer.py`` looks each ``FUNCTIONS`` entry up with a bare
``getattr`` when it installs, so a function renamed or deleted here makes
every traced benchmark run fail. The tracer is loaded from its file as it
is, without touching ``sys.path``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_functions() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.FUNCTIONS


def test_every_traced_function_resolves_in_riskscale():
    functions = _traced_functions()
    assert functions
    missing = [f"riskscale.{module}.{attr}" for module, attr, _ in functions.values()
               if not callable(getattr(importlib.import_module(f"riskscale.{module}"),
                                       attr, None))]
    assert missing == []
