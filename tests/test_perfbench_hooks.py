"""The package names the traced benchmark wraps, checked in the fast suite.

``perfbench/spans.py`` wraps each function listed in its ``PATCHES`` under
the name its caller imported it by, and notes the byte size of every image
basis. A refactor that renames or stops importing one of those names breaks
``perfbench/run.py --trace 1``, and one that moves the engine's log, projection
or lift behind another name leaves those layers untimed; these tests fail
first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import golden
from optiq import approx

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_wrapped_name_exists(spans):
    for name, _, modules in spans.PATCHES:
        attr = name.rsplit(".", 1)[1]
        for module_name in modules:
            assert callable(getattr(importlib.import_module(module_name), attr, None)), \
                f"{module_name}.{attr}"


def test_image_basis_note_reads_basis_arrays(spans, image22):
    assert spans._image_basis_note(image22) == {
        "bytes": image22.elements.nbytes + image22.preimages.nbytes}


def test_traced_layers_see_the_engine(spans, image22):
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = approx.approximate(golden.QFT3, np.eye(2), image22, max_iter=10)
    finally:
        tracer.restore()
    stats = spans.layer_stats(tracer.spans)
    assert stats["lie.principal_log"]["calls"] == len(res.trace)
    assert stats["lie.project"]["calls"] == len(res.trace)
    assert stats["homomorphism.evolution_matrix"]["calls"] >= res.iterations
