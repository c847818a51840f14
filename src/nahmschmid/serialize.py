"""JSON and CSV serialization of matrices, trajectories and reports.

Complex matrices are encoded row-major as nested lists of [re, im] pairs.
JSON output is rendered with sorted keys and Python's shortest
round-trip float encoding, so identical inputs give byte-identical files.

`trajectory_to_obj` keeps its samples as float (n, n, 2) arrays (the
[re, im] pairs as the last axis) rather than nested lists; such objects
must be rendered with :func:`dumps`, which writes each array leaf as the
text `json.dumps` would give its nested-list form, not with `json.dumps`.
"""

import json

import numpy as np

from .flow import Trajectory
from .liealg import is_antihermitian, project_antihermitian

REPROJECT_TOL = 1e-8  # anti-Hermiticity defect of loaded data that is reported


def matrix_to_pairs(M):
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


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

    Non-finite entries (JSON NaN, Infinity) raise ValueError.
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
        if not is_antihermitian(M, tol=REPROJECT_TOL):
            defect = float(np.max(np.abs(M + M.conj().T)))
            warnings.append(
                f"{name} is not anti-Hermitian (defect {defect:.2e}); reprojected"
            )
        mats.append(project_antihermitian(M))
    sizes = {m.shape for m in mats}
    if len(sizes) != 1:
        raise ValueError("all components must have the same size")
    return np.array(mats), warnings


def _sample_pairs(traj):
    # float view of the samples, shape (steps+1, 4, n, n, 2): [re, im] last
    S = np.ascontiguousarray(traj.samples, dtype=complex)
    return S.view(np.float64).reshape(S.shape + (2,))


def trajectory_to_obj(traj):
    """Trajectory as a JSON-ready dict for :func:`dumps`.

    Each sample is a dict "T0".."T3" whose values are float (n, n, 2)
    views of `traj.samples`, not nested lists, so the object must be
    rendered with :func:`dumps`, not `json.dumps`.
    """
    pairs = _sample_pairs(traj)
    return {
        "t_start": traj.t_start,
        "t_end": traj.t_end,
        "steps": traj.steps,
        "n": traj.n,
        "samples": [{f"T{i}": q[i] for i in range(4)} for q in pairs],
    }


def trajectory_from_obj(obj):
    samples = np.array(
        [quadruple_from_obj(s)[0] for s in obj["samples"]]
    )
    return Trajectory(float(obj["t_start"]), float(obj["t_end"]), samples)


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
    rows = _sample_pairs(traj).reshape(traj.steps + 1, -1).tolist()
    for t, row in zip(traj.times.tolist(), rows):
        yield ",".join(map(repr, [t] + row))


# json.dumps writes the string _HOLE as _HOLE_TEXT; dumps swaps each
# occurrence for the array it stands for
_HOLE = "\x00nahmschmid-array\x00"
_HOLE_TEXT = json.dumps(_HOLE)


def _template(shape, indent):
    """Indent-2 JSON text of a nested list of `shape`, one %r slot per entry.

    `indent` is the column of the line the list opens on, as json.dumps
    lays it out.
    """
    if not shape:
        return "%r"
    if shape[0] == 0:
        return "[]"
    pad = " " * (indent + 2)
    item = _template(shape[1:], indent + 2)
    return "[\n" + pad + (",\n" + pad).join([item] * shape[0]) + "\n" + " " * indent + "]"


def dumps(obj):
    """Deterministic JSON rendering (sorted keys, round-trip floats).

    Float ndarray leaves are written as their nested lists would be: the
    text is byte-identical to `json.dumps` of the `.tolist()` form.  %r of
    a Python float is `float.__repr__`, which is what json writes.
    """
    held = []

    def hold(o):
        if isinstance(o, np.ndarray) and o.dtype.kind == "f":
            if not np.all(np.isfinite(o)):
                raise ValueError("Out of range float values are not JSON compliant")
            held.append(o)
            return _HOLE
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=hold)
    parts = text.split(_HOLE_TEXT)
    if len(parts) - 1 != len(held):
        raise ValueError("a string in the object equals the array placeholder")
    # one %-format of the whole text: the json parts with "%" escaped and
    # a template per array, so the result is built in a single buffer
    # rather than from one string per array
    templates = {}
    fmt = [parts[0].replace("%", "%%")]
    for before, leaf, after in zip(parts, held, parts[1:]):
        line = before[before.rfind("\n") + 1:]
        key = (leaf.shape, len(line) - len(line.lstrip(" ")))
        if key not in templates:
            templates[key] = _template(*key)
        fmt.append(templates[key])
        fmt.append(after.replace("%", "%%"))
    fmt.append("\n")
    values = tuple(np.concatenate([leaf.ravel() for leaf in held]).tolist()) if held else ()
    return "".join(fmt) % values
