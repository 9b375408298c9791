"""The functions the benchmark's tracer wraps must exist in doccat.

perfbench/tracing.py reports a traced function that doccat no longer has as
absent, and the benchmark smoke run then fails. This test reads the tracer's
own GROUPS table, so it follows any change to that table.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_groups():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GROUPS


GROUPS = _traced_groups()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_traced_functions_exist(group):
    module_name, names = GROUPS[group]
    module = importlib.import_module(module_name)
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert not missing, f"{group}: {module_name} has no {', '.join(missing)}"
