"""JSON file formats shared by the library and the CLI.

Complex matrices:  {"dim": d, "entries": [[[re, im], ...], ...]}  row-major.
Circuit plans:     {"format_version", "m", "elements": [{"kind", "modes",
                    "theta", "phi"}, ...], "residual_phases": [float, ...]},
                   read back by :func:`plan_from_obj`.

A plain-text matrix reader is also accepted for convenience: one row per
line, whitespace-separated complex literals such as ``0.5``, ``-2i`` or
``0.3-0.7i`` (``j`` works too). All writers emit canonical JSON: byte for
byte ``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, which the
tests take as the oracle, except that a cycle raises RecursionError, not
ValueError (no caller builds one). json spells every scalar and key and
raises every type error; the writer only batches lists of numbers: one join
per list, one template per list of same-keyed dicts or equal-length lists. A
zero-argument callable in the data stands for the tree it returns, built
when the writer reaches it; :func:`dump_canonical` writes each such tree,
with the text before it, in one piece, the bytes :func:`dumps_canonical`
returns. :func:`save_json` replaces a regular file whole: it writes and
syncs a sibling temporary file and renames it over the destination, so a
write that fails leaves an earlier file untouched. Other destinations, such
as /dev/null or a FIFO, are written in place.
Both matrix readers reject NaN and infinite entries; the JSON reader also
rejects entries that are not numbers, booleans included.
"""

from __future__ import annotations

import json
import os
import stat
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

import numpy as np

from .circuit import CircuitPlan, OpticalElement
from .errors import OptiqError, ShapeError
from .validate import require_int

FORMAT_VERSION = 1


def _texts(values):
    """The JSON texts (reprs) of values if all are exact ints or finite floats, else None."""
    exact = {*map(type, values)} <= {int, float}
    if exact and "n" not in "".join(texts := list(map(repr, values))):
        return texts  # the repr of an int or a finite float holds no n
    return None


def _key(k) -> str:
    """A dict key and its colon as json spells them, or json's TypeError."""
    return _string(k) + ": " if isinstance(k, str) else json.dumps({k: 0})[1:-2]


def _items(items, nl: str):
    """The items of a non-empty list, joined at the indent that the newline nl
    opens: one join of numbers, or one % template repeated for equal-length
    lists or same-keyed dicts of numbers; None for anything else."""
    if (texts := _texts(items)) is not None:
        return ("," + nl).join(texts)
    first, inner, fields = items[0], nl + "  ", None
    if isinstance(first, dict) and all(
            isinstance(x, dict) and x.keys() == first.keys() for x in items):
        keys, brackets = sorted(first), "{}"
        fields, values = [_key(k) for k in keys], [x[k] for x in items for k in keys]
    elif isinstance(first, (list, tuple)) and all(
            isinstance(x, (list, tuple)) and len(x) == len(first) for x in items):
        brackets, fields, values = "[]", [""] * len(first), [v for x in items for v in x]
    if fields and (texts := _texts(values)) is not None:
        fields = [f.replace("%", "%%") + "%s" for f in fields]
        item = brackets[0] + inner + ("," + inner).join(fields) + nl + brackets[1]
        return ("," + nl).join([item] * len(items)) % tuple(texts)
    return None


def _encode(o, nl: str, out: list, f=None) -> None:
    """Append the canonical text of o, at the indent that the newline nl
    opens, to out. A zero-argument callable stands for the tree it returns,
    encoded whole; after each such tree, out is written to f, if given.
    json spells every other leaf and raises its TypeError for the rest."""
    inner, is_dict = nl + "  ", isinstance(o, dict)
    if isinstance(o, (list, tuple)) and o and (body := _items(o, inner)) is not None:
        out.append("[" + inner + body + nl + "]")
    elif is_dict or isinstance(o, (list, tuple)):
        brackets = "{}" if is_dict else "[]"
        for i, (k, x) in enumerate(sorted(o.items()) if is_dict else enumerate(o)):
            out.append(("," if i else brackets[0]) + inner + (_key(k) if is_dict else ""))
            _encode(x, inner, out, f)
        out.append(nl + brackets[1] if o else brackets)
    elif callable(o):
        _encode(o(), nl, out)
        if f is not None:
            f.write("".join(out))
            out.clear()
    else:
        out.append(json.dumps(o))


def dump_canonical(obj, f) -> None:
    """Write the canonical encoding of obj to the text file f: one write per
    builder's tree, holding the text before it, and one for the rest."""
    _encode(obj, "\n", out := [], f)
    f.write("".join(out) + "\n")


def dumps_canonical(obj) -> str:
    _encode(obj, "\n", out := [])
    return "".join(out) + "\n"


def _open_replacement(path: Path):
    """A new temporary file beside path, to be renamed over it, as (name,
    file, mode): mode is the permission bits of the file it replaces, None
    for a free name. None where path must be written in place: anything but
    a free name or a writable regular file with one link that this process
    owns (/dev/null, a FIFO, a symlink, a directory, "."), or a directory
    where no sibling file can be made."""
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
    return tmp, f, None if st is None else stat.S_IMODE(st.st_mode)


def save_json(path, obj) -> None:
    """Write obj canonically to path.

    A free name or a regular file is replaced whole: obj goes to a sibling
    temporary file (see :func:`_open_replacement`), which is synced before it
    is renamed over path; on any error the temporary file is removed and path
    keeps its bytes. Any other path is opened and written in place, errors
    included. pathlib drops a trailing separator, so a path that ends in
    one and names no directory is opened as given: it fails as a plain open
    does."""
    as_given = (name := os.fspath(path)).endswith(os.sep) and not os.path.isdir(name)
    path = Path(name)
    if as_given or (replacement := _open_replacement(path)) is None:
        with open(name if as_given else path, "w", encoding="utf-8") as f:
            dump_canonical(obj, f)
        return
    tmp, f, mode = replacement
    try:
        with f:
            if mode is not None:
                os.fchmod(f.fileno(), mode)
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


def _loads(text: str):
    try:
        return json.loads(text)
    except RecursionError:  # nested deeper than the interpreter's stack allows
        raise OptiqError("JSON nested too deeply to read") from None


def load_json(path):
    return _loads(Path(path).read_text(encoding="utf-8"))


# -- complex matrices --------------------------------------------------------

def matrix_to_obj(A) -> dict:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"only square matrices serialize, got shape {A.shape}")
    return {"dim": A.shape[0], "entries": np.stack([A.real, A.imag], -1).tolist()}


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
    except (TypeError, ValueError, OverflowError) as exc:
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
        return matrix_from_obj(_loads(text))
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


def plan_from_obj(obj) -> CircuitPlan:
    """Read back a plan written by :func:`plan_to_obj`. Its format_version
    must be FORMAT_VERSION, m and the modes integers and the angles numbers;
    :func:`circuit.reconstruct` checks the rest."""
    try:
        if type(version := obj["format_version"]) is not int or version != FORMAT_VERSION:
            raise ValueError(f"format_version must be {FORMAT_VERSION}, got {version!r}")
        elements = tuple(
            OpticalElement(kind=el["kind"], modes=tuple(map(require_int, el["modes"])),
                           theta=float(_number(el["theta"])), phi=float(_number(el["phi"])))
            for el in obj["elements"])
        return CircuitPlan(require_int(obj["m"]), elements,
                           tuple(float(_number(x)) for x in obj["residual_phases"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise OptiqError(f"malformed plan object: {exc!r}") from None
