"""The benchmark tracer's names against the package.

``bench/layers.py`` wraps the dflag functions named in its ``WRAPPED``
table, looking each one up with ``getattr`` and no default, so a name
that the package drops breaks ``bench/run.py --trace 1``.  This reads
the table without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [pytest.param(m, a, id=f"{m}.{a}") for m, a in sorted(layers.WRAPPED)]


@pytest.mark.parametrize("module, attr", _wrapped())
def test_every_traced_name_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr)
