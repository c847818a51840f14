"""JSON and CSV serialization of matrices, trajectories and reports.

Complex matrices are encoded row-major as nested lists of [re, im] pairs.
JSON output is rendered with sorted keys and Python's shortest
round-trip float encoding, so identical inputs give byte-identical files.

Objects for :func:`iterdumps` and :func:`dumps` may hold ndarray leaves
rather than nested lists: a float array is written as the text `json.dumps`
would give its nested-list form, a complex array as that of its [re, im]
pairs (`matrix_to_pairs`), and a record array of float64 fields as the list
of its records' objects.  `trajectory_to_obj` keeps its samples as one such
record view of the trajectory, so these objects must be rendered here, not
with `json.dumps`.  `iterdumps` yields the text in pieces of bounded size,
after it has checked every value, so a writer of its pieces never holds the
whole text; `trajectory_csv_lines` yields one row at a time.
"""

import functools
import json

import numpy as np

from .liealg import is_antihermitian, project_antihermitian

REPROJECT_TOL = 1e-8  # anti-Hermiticity defect of loaded data that is reported


def _pairs(M):
    # float view of M as complex, with the [re, im] pairs as a new last axis
    M = np.ascontiguousarray(M, dtype=complex)
    return M.view(np.float64).reshape(M.shape + (2,))


def matrix_to_pairs(M):
    return _pairs(M).tolist()


def matrix_from_pairs(obj):
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ValueError("matrix encoding must be an n x n array of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def quadruple_to_obj(T):
    T = np.asarray(T, dtype=complex)
    return {f"T{i}": matrix_to_pairs(T[i]) for i in range(T.shape[0])}


def quadruple_from_obj(obj, components=("T0", "T1", "T2", "T3")):
    """Read a quadruple (or triple) of algebra elements from decoded JSON.

    Non-finite entries (JSON NaN, Infinity) raise ValueError, as do entries
    so large that the defect M + M* or the projection overflows.
    Anti-Hermiticity is validated; defects above REPROJECT_TOL trigger a
    warning and reprojection onto the algebra.
    """
    mats, warnings = [], []
    for name in components:
        if name not in obj:
            raise ValueError(f"initial-data file is missing component {name!r}")
        M = matrix_from_pairs(obj[name])
        if not np.all(np.isfinite(M)):
            raise ValueError(f"component {name!r} has non-finite entries")
        try:
            with np.errstate(over="raise", invalid="raise"):
                if not is_antihermitian(M, tol=REPROJECT_TOL):
                    defect = float(np.max(np.abs(M + M.conj().T)))
                    warnings.append(f"{name} is not anti-Hermitian (defect {defect:.2e}); "
                                    "reprojected")
                mats.append(project_antihermitian(M))
        except FloatingPointError:
            raise ValueError(f"component {name!r} has entries so close to the float maximum "
                             "that its anti-Hermitian check or projection overflows") from None
    sizes = {m.shape for m in mats}
    if len(sizes) != 1:
        raise ValueError("all components must have the same size")
    return np.array(mats), warnings


def trajectory_to_obj(traj):
    """Trajectory as a JSON-ready dict for :func:`dumps`.

    "samples" is one record array of `steps + 1` records, a view of
    `traj.samples` with no copy: fields "T0".."T3", each the float (n, n, 2)
    [re, im] pairs of a component.  It renders as the list of objects
    {"T0": ..., "T3": ...}, so the object must be rendered with
    :func:`dumps` or :func:`iterdumps`, not `json.dumps`.
    """
    record = np.dtype([(f"T{i}", np.float64, (traj.n, traj.n, 2)) for i in range(4)])
    return {
        "t_start": traj.t_start,
        "t_end": traj.t_end,
        "steps": traj.steps,
        "n": traj.n,
        "samples": _pairs(traj.samples).reshape(traj.steps + 1, -1).view(record)[:, 0],
    }


def trajectory_csv_lines(traj):
    """CSV rows: t, then each component row-major with _re/_im columns."""
    n = traj.n
    header = ["t"]
    for i in range(4):
        for r in range(n):
            for c in range(n):
                header.append(f"T{i}_{r}{c}_re")
                header.append(f"T{i}_{r}{c}_im")
    yield ",".join(header)
    rows = _pairs(traj.samples).reshape(traj.steps + 1, -1)
    for t, row in zip(traj.times.tolist(), rows):
        yield ",".join(map(repr, [t] + row.tolist()))


# json.dumps writes the string _HOLE as _HOLE_TEXT; iterdumps writes the
# array it stands for in its place
_HOLE = "\x00nahmschmid-array\x00"
_HOLE_TEXT = json.dumps(_HOLE)

# iterdumps writes an array leaf in pieces of whole axis-0 rows of at most
# about this many floats (at least one row)
_PIECE_FLOATS = 1 << 14


class NonFiniteError(ValueError):
    """An output holds a NaN or an infinity, which JSON cannot write."""


def _template(shape, indent, fields=(), first=True, last=True):
    """Indent-2 JSON text of a nested list of `shape`, one %r slot per entry.

    `indent` is the column of the line the list opens on, as json.dumps
    lays it out.  With `fields` ((name, shape) pairs) an entry is the object
    of those arrays.  A piece of a longer list opens with a comma unless
    `first`, and has no closing bracket unless `last`.
    """
    if not shape:
        if not fields:
            return "%r"
        pad = " " * (indent + 2)
        items = [pad + json.dumps(name) + ": " + _template(s, indent + 2) for name, s in fields]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if shape[0] == 0:
        return "[]"
    sep = ",\n" + " " * (indent + 2)
    item = _template(shape[1:], indent + 2, fields)
    return ("[" + sep[1:] if first else sep) + sep.join([item] * shape[0]) + (
        "\n" + " " * indent + "]" if last else "")


def _pieces(values, shape, fields, indent):
    # the text of a leaf of `shape` from its float view, in whole axis-0 rows
    if not shape or not shape[0]:
        yield _template(shape, indent, fields) % tuple(values.ravel().tolist())
        return
    rows = max(1, _PIECE_FLOATS // max(1, values[0].size))
    template = functools.cache(_template)  # one per piece size, freed with the leaf
    for lo in range(0, shape[0], rows):
        part = values[lo : lo + rows]
        piece = template((len(part),) + shape[1:], indent, fields, lo == 0, lo + rows >= shape[0])
        yield piece % tuple(part.ravel().tolist())


def iterdumps(obj):
    """Deterministic JSON rendering (sorted keys, round-trip floats), in pieces.

    Float ndarray leaves are written as their nested lists would be: the
    text is byte-identical to `json.dumps` of the `.tolist()` form.  Complex
    ndarray leaves are written as their [re, im] pairs (`matrix_to_pairs`),
    and a record leaf of float64 fields in sorted order as the list of its
    records' objects.  %r of a Python float is `float.__repr__`, which is
    what json writes.  Every value is checked before the first piece: a NaN
    or an infinity raises NonFiniteError.  A leaf is yielded in pieces of
    whole axis-0 rows of at most about _PIECE_FLOATS floats.
    """
    held = []

    def hold(o):
        if not (isinstance(o, np.ndarray) and (o.dtype.kind in "fc" or o.dtype.names)):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        fields, values = (), _pairs(o) if o.dtype.kind == "c" else o
        if o.dtype.names:  # a record, flattened to floats in field order
            fields = tuple((name, o.dtype[name].shape) for name in sorted(o.dtype.names))
            if np.dtype([(name, np.float64, shape) for name, shape in fields]) != o.dtype:
                raise TypeError("a record leaf needs float64 fields in sorted order, unpadded")
            values = np.ascontiguousarray(o).view(np.float64).reshape(o.shape + (-1,))
        if not np.all(np.isfinite(values)):
            raise ValueError("Out of range float values are not JSON compliant")
        held.append((values, o.shape if fields else values.shape, fields))
        return _HOLE

    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=hold)
    except ValueError as exc:  # json's message for a non-finite float, hold's too
        if "not JSON compliant" not in str(exc):
            raise
        raise NonFiniteError(str(exc)) from None
    parts = text.split(_HOLE_TEXT)
    if len(parts) - 1 != len(held):
        raise ValueError("a string in the object equals the array placeholder")
    yield parts[0]
    for before, leaf, after in zip(parts, held, parts[1:]):
        line = before[before.rfind("\n") + 1 :]
        yield from _pieces(*leaf, len(line) - len(line.lstrip(" ")))
        yield after
    yield "\n"


def dumps(obj):
    """Deterministic JSON rendering in one string: the joined pieces of
    :func:`iterdumps`, with its checks."""
    return "".join(iterdumps(obj))
