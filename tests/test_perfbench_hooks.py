"""The names perfbench/spans.py times and counts still exist in bindet.

The benchmark wraps each function listed in ``spans.LAYERS`` and reads a
work counter from the arguments of the calls listed in ``spans.COUNTERS``.
A rename or a changed signature under src/ would break ``run.py --trace
1`` without failing any other test here, so these checks keep them tied.
spans.py imports only the standard library and is loaded by path.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from bindet import _kernels

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def positional(fn) -> list[str]:
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return [p.name for p in inspect.signature(fn).parameters.values() if p.kind in kinds]


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in spans.LAYERS.items() for name in names
])
def test_every_timed_name_resolves(layer, name):
    owner = importlib.import_module(f"bindet.{layer}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("span, params, args, count", [
    ("kernels.exhaustive_chunk", ["n", "start", "stop", "offset"],
     (3, 0, _kernels.family_count(3), 6), _kernels.family_count(3)),
    ("kernels.family_bitmap", ["cof", "lo", "seen"],
     (np.array([1, -1, 2]), -1, np.zeros(5, dtype=np.uint8)), 5),
])
def test_every_counter_takes_its_function_arguments(span, params, args, count):
    fn = getattr(_kernels, span.split(".")[1])
    assert positional(fn) == params
    counter = spans.COUNTERS[span]
    assert len(positional(counter)) == len(params)
    fn(*args)  # the wrapper passes one call's arguments to both
    assert counter(*args) == count


def test_counters_are_the_checked_ones():
    assert sorted(spans.COUNTERS) == ["kernels.exhaustive_chunk", "kernels.family_bitmap"]
