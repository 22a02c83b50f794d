"""The package names the traced benchmark wraps, checked in the fast suite.

``perfbench/spans.py`` wraps each function listed in its ``PATCHES`` under
the name its caller imported it by, and notes the byte size of every image
basis. A refactor that renames or stops importing one of those names breaks
``perfbench/run.py --trace 1``; these tests fail first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
