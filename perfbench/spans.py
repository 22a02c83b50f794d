"""In-memory span tracing of optiq's layer boundaries, from outside the package.

Every public function that one module imports from another is wrapped under
the name its caller imported it by (``optiq.approx.principal_log``,
``optiq.lie.require_unitary``, ``optiq.cli.decompose``, ...) and restored
afterwards. A span records its id, name, start, end, parent span and run id;
spans stay in memory until the benchmark writes them out. Self time and call
counts are derived from the spans afterwards, never measured inside them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    note: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _image_basis_note(result) -> dict:
    return {"bytes": int(result.elements.nbytes + result.preimages.nbytes)}


# (span name, result note or None, modules whose attribute of that name is
# wrapped). The attribute name is the last part of the span name. Only the
# call sites the workloads reach are listed.
PATCHES = [
    ("fock.enumerate_basis", None, ["optiq.fock", "optiq.cli"]),
    ("homomorphism.evolution_matrix", None, ["optiq.approx"]),
    ("homomorphism.second_quantize", None, ["optiq.lie"]),
    ("lie.build_image_basis", _image_basis_note, ["optiq.lie", "optiq.cli"]),
    ("lie.principal_log", None, ["optiq.approx"]),
    ("lie.project", None, ["optiq.approx"]),
    ("lie.matrix_exp", None, ["optiq.approx"]),
    ("lie.polar_unitary", None, ["optiq.approx", "optiq.circuit"]),
    ("lie.distance", None, ["optiq.approx"]),
    ("validate.require_unitary", None,
     ["optiq.approx", "optiq.lie", "optiq.circuit", "optiq.cli"]),
    ("approx.approximate", lambda r: {"converged": bool(r.converged)}, ["optiq.approx"]),
    ("approx.multi_start", lambda r: {"clusters": len(r)}, ["optiq.approx", "optiq.cli"]),
    ("approx.haar_random", None, ["optiq.approx"]),
    ("circuit.decompose", None, ["optiq.cli"]),
    ("serialize.dumps_canonical", None, ["optiq.serialize"]),
    ("serialize.matrix_to_obj", None, ["optiq.serialize"]),
    ("serialize.plan_to_obj", None, ["optiq.serialize"]),
    ("serialize.load_json", None, ["optiq.serialize"]),
    ("serialize.load_matrix", None, ["optiq.serialize"]),
    ("serialize.matrix_from_obj", None, ["optiq.serialize"]),
    ("cli.main", None, ["optiq.cli"]),
]

#: Span names whose union forms one reported layer.
GROUPS = {
    "serialize.write": {"serialize.dumps_canonical", "serialize.matrix_to_obj",
                        "serialize.plan_to_obj"},
    "serialize.read": {"serialize.load_json", "serialize.load_matrix",
                       "serialize.matrix_from_obj"},
}


class Tracer:
    """Records a span per call of every wrapped function, labelled with the
    current run id, between ``install`` and ``restore``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run: str | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            noted = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    noted = note(result)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.run, noted))
        return traced

    def install(self) -> None:
        for name, note, modules in PATCHES:
            attr = name.rsplit(".", 1)[1]
            for module_name in modules:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, note))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps([s.id, s.name, s.start, s.end, s.parent,
                                    s.run, s.note]) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_stats(spans) -> dict[str, dict]:
    """Per span name: calls, busy_s (sum of durations) and self_s (durations
    minus the part of each span its child spans cover)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    stats: dict[str, dict] = {}
    for s in spans:
        st = stats.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["busy_s"] += s.duration
        st["self_s"] += s.duration - _covered(children.get(s.id, ()))
    return stats


def group_busy(spans, names) -> float:
    """Busy time of a group of span names, counting a span only when no
    ancestor belongs to the group, so nested calls are not counted twice."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            total += s.duration
    return total
