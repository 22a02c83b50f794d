"""JSON file formats shared by the library and the CLI.

Complex matrices:  {"dim": d, "entries": [[[re, im], ...], ...]}  row-major.
Circuit plans:     {"format_version", "m", "elements": [{"kind", "modes",
                    "theta", "phi"}, ...], "residual_phases": [float, ...]}.

A plain-text matrix reader is also accepted for convenience: one row per
line, whitespace-separated complex literals such as ``0.5``, ``-2i`` or
``0.3-0.7i`` (``j`` works too). All writers emit canonical JSON (sorted
keys, two-space indent), so identical data produces identical bytes.
They stream it: :func:`dump_canonical` writes to a file the very bytes
:func:`dumps_canonical` returns, without holding them, and a zero-argument
callable in the data stands for the tree it returns, built only when the
writer reaches it. :func:`save_json` replaces a regular file whole: it
writes and syncs a sibling temporary file and renames it over the
destination, so a write that fails leaves an earlier file untouched. Other
destinations, such as /dev/null or a FIFO, are written in place.
Both matrix readers reject NaN and infinite entries; the JSON reader also
rejects entries that are not numbers, booleans included.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import numpy as np

from .circuit import CircuitPlan
from .errors import OptiqError, ShapeError

FORMAT_VERSION = 1


def _build_deferred(o):
    """json's hook for objects it cannot encode: a zero-argument builder
    stands for the tree it returns."""
    if callable(o):
        return o()
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


_CANONICAL = json.JSONEncoder(indent=2, sort_keys=True, default=_build_deferred)


def dump_canonical(obj, f) -> None:
    """Write the canonical encoding of obj to the text file f, chunk by chunk."""
    for chunk in _CANONICAL.iterencode(obj):
        f.write(chunk)
    f.write("\n")


def dumps_canonical(obj) -> str:
    return "".join(_CANONICAL.iterencode(obj)) + "\n"


def _open_replacement(path: Path):
    """A new temporary file beside path, to be renamed over it, with the
    permission bits of the file it replaces, as (name, file). None where path
    must be written in place: anything but a free name or a writable regular
    file with one link that this process owns (/dev/null, a FIFO, a symlink,
    a directory, "."), or a directory where no sibling file can be made."""
    if not path.name:
        return None
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    except OSError:
        return None
    if st is not None and not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                               and st.st_uid == os.geteuid()
                               and os.access(path, os.W_OK)):
        return None
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        # mode "x": a plain open's permissions, not mkstemp's 0600, on a new file
        f = open(tmp, "x", encoding="utf-8")
    except OSError:
        return None
    if st is not None:
        try:
            os.fchmod(f.fileno(), stat.S_IMODE(st.st_mode))
        except BaseException:
            f.close()
            os.unlink(tmp)
            raise
    return tmp, f


def save_json(path, obj) -> None:
    """Write obj canonically to path.

    A free name or a regular file is replaced whole: obj goes to a sibling
    temporary file (see :func:`_open_replacement`), which is synced before it
    is renamed over path; on any error the temporary file is removed and path
    keeps its bytes. Any other path is opened and written in place, errors
    included. Like any pathlib path, path drops a trailing separator."""
    path = Path(path)
    if (replacement := _open_replacement(path)) is None:
        with open(path, "w", encoding="utf-8") as f:
            dump_canonical(obj, f)
        return
    tmp, f = replacement
    try:
        with f:
            dump_canonical(obj, f)
            f.flush()
            os.fsync(f.fileno())
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        os.unlink(tmp)
        raise


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- complex matrices --------------------------------------------------------

def matrix_to_obj(A) -> dict:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"only square matrices serialize, got shape {A.shape}")
    return {
        "dim": A.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in A],
    }


def _require_finite(A: np.ndarray) -> np.ndarray:
    if not np.isfinite(A).all():
        raise OptiqError("matrix entries must be finite, got NaN or infinity")
    return A


def _number(x):
    """An int or float entry; bool, str and null raise TypeError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{x!r} is not a number")
    return x


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise OptiqError("matrix object must be a dict with an 'entries' field")
    rows = obj["entries"]
    try:
        A = np.array([[complex(_number(re), _number(im)) for re, im in row] for row in rows],
                     dtype=complex)
    except (TypeError, ValueError) as exc:
        raise OptiqError(f"malformed matrix entries: {exc}") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"matrix entries must be square, got shape {A.shape}")
    dim = obj.get("dim", A.shape[0])
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise OptiqError(f"declared dim must be an integer, got {dim!r}")
    if dim != A.shape[0]:
        raise ShapeError(f"declared dim {dim} does not match {A.shape[0]} rows")
    return _require_finite(A)


def parse_text_matrix(text: str) -> np.ndarray:
    """Whitespace matrix with complex literals using ``i`` or ``j``."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        row = []
        for token in line.split():
            # only a trailing i is the imaginary unit; "inf" keeps its own
            literal = token[:-1] + "j" if token.endswith("i") else token
            try:
                row.append(complex(literal))
            except ValueError:
                raise OptiqError(f"cannot parse complex literal {token!r}") from None
        rows.append(row)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ShapeError("text matrix must be square and non-empty")
    return _require_finite(np.array(rows, dtype=complex))


def load_matrix(path) -> np.ndarray:
    """Read a matrix file, JSON or plain text, sniffing on the first byte."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        return matrix_from_obj(json.loads(text))
    return parse_text_matrix(text)


def save_matrix(path, A) -> None:
    save_json(path, matrix_to_obj(A))


# -- circuit plans ------------------------------------------------------------

def plan_to_obj(plan: CircuitPlan) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "m": plan.m,
        "elements": [
            {"kind": el.kind, "modes": list(el.modes),
             "theta": float(el.theta), "phi": float(el.phi)}
            for el in plan.elements
        ],
        "residual_phases": [float(x) for x in plan.residual_phases],
    }

