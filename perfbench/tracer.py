"""Span tracer for the benchmark's traced run.

The tracer rebinds module attributes of the package (and of numpy.linalg)
with wrappers that record one span per call: name, start, end, parent span,
job id and the wrapper's own cost.  Spans are appended to compact per-thread
arrays, so the sweep pool's worker threads never interleave rows; a worker
thread's outermost span takes the span open on the main thread (the job's
`cli.main`) as its parent.  Nothing here touches the package source: every
span is recorded from the benchmark's side of the call.

Self time is a span's duration minus the time its children cover.  Children
on the parent's own thread are summed; children on other threads (sweep
points) cover the union of their intervals, and their subtrees are scaled by
union / sum of their durations, so that the self times of one job add up to
its wall time exactly.  `aggregate` checks that identity per job.
"""

import itertools
import threading
from array import array
from time import perf_counter

import numpy as np

_FIELDS = (("sid", "q"), ("parent", "q"), ("name", "i"), ("job", "i"),
           ("t1", "d"), ("t2", "d"), ("ovh", "d"), ("arg", "d"))


class _Buffer:
    """Span rows written by one thread."""

    def __init__(self, thread):
        self.thread = thread
        self.stack = []
        for field, code in _FIELDS:
            setattr(self, field, array(code))


class Tracer:
    """Records spans around patched callables; see the module docstring."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers = []
        self.job = -1
        self._main = self._buffer()
        self._patches = []

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self.buffers))
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, arg=None):
        """Return fn wrapped in a span; arg(args, kwargs, result) -> float."""
        nid = self.name_id(name)
        local, ids, main_stack = self._local, self._ids, self._main.stack
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            buf = getattr(local, "buf", None) or tracer._buffer()
            stack = buf.stack
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            sid = next(ids)
            stack.append(sid)
            ok = False
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t2 = perf_counter()
                stack.pop()
                buf.sid.append(sid)
                buf.parent.append(parent)
                buf.name.append(nid)
                buf.job.append(tracer.job)
                buf.t1.append(t1)
                buf.t2.append(t2)
                buf.arg.append(float(arg(args, kwargs, result)) if (ok and arg) else 0.0)
                buf.ovh.append(t1 - t0 + perf_counter() - t2)

        return wrapper

    def patch(self, modules, attr, name, arg=None, materialize=False):
        """Rebind `attr` in every module of `modules` with one shared wrapper.

        materialize=True turns a generator function into one returning a
        list, so the span covers the work rather than generator creation.
        """
        orig = getattr(modules[0], attr)
        fn = orig
        if materialize:
            fn = lambda *a, **k: list(orig(*a, **k))
        wrapper = self.wrap(name, fn, arg)
        for mod in modules:
            if getattr(mod, attr) is not orig:
                raise RuntimeError(f"{mod.__name__}.{attr} is not {name}; cannot patch")
            self._patches.append((mod, attr, orig))
            setattr(mod, attr, wrapper)

    def unpatch(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def take(self):
        """Remove and return all recorded spans as numpy arrays."""
        cols = {field: [] for field, _ in _FIELDS}
        threads = []
        for buf in self.buffers:
            for field, code in _FIELDS:
                cols[field].append(np.frombuffer(getattr(buf, field), dtype=code).copy())
                setattr(buf, field, array(code))
            threads.append(np.full(len(cols["sid"][-1]), buf.thread, dtype=np.int32))
        out = {field: np.concatenate(parts) for field, parts in cols.items()}
        out["thread"] = np.concatenate(threads)
        return out


def _union_length(intervals):
    total, end = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def aggregate(spans, names):
    """Per-name and per-layer totals of one traced cycle.

    Returns a dict with `by_name` (calls, incl_s, self_s, arg per span name),
    `by_layer` (self time per layer, `bench` for the benchmark's own job and
    check spans, `tracer` for wrapper cost), `jobs` (job id -> wall), and
    `accounting_error_s`, the largest per-job gap between wall time and the
    sum of its parts, `pool` (wall of the spans that waited on worker
    threads, summed duration of their cross-thread children) and `spans`.
    """
    sid, parent, name, job = spans["sid"], spans["parent"], spans["name"], spans["job"]
    t1, t2, ovh, thread = spans["t1"], spans["t2"], spans["ovh"], spans["thread"]
    keep = job >= 0
    sid, parent, name, job = sid[keep], parent[keep], name[keep], job[keep]
    t1, t2, ovh, thread, arg = t1[keep], t2[keep], ovh[keep], thread[keep], spans["arg"][keep]
    order = np.argsort(sid)
    sid, parent, name, job = sid[order], parent[order], name[order], job[order]
    t1, t2, ovh, thread, arg = t1[order], t2[order], ovh[order], thread[order], arg[order]

    root_id = names.index("job")
    is_root = name == root_id
    has_parent = ~is_root
    ppos = np.searchsorted(sid, parent[has_parent])
    if np.any(ppos >= len(sid)) or np.any(sid[np.minimum(ppos, len(sid) - 1)] != parent[has_parent]):
        raise RuntimeError("span parent missing from the trace")
    child = np.nonzero(has_parent)[0]
    dur = t2 - t1
    full = dur + ovh
    same = thread[child] == thread[ppos]

    covered = np.zeros(len(sid))
    np.add.at(covered, ppos[same], full[child[same]])

    scale = np.ones(len(sid))
    cross = child[~same]
    cross_parent = ppos[~same]
    pool_wall = pool_busy = 0.0
    for p in np.unique(cross_parent):
        kids = cross[cross_parent == p]
        union = _union_length(
            [(t1[k] - 0.5 * ovh[k], t2[k] + 0.5 * ovh[k]) for k in kids]
        )
        covered[p] += union
        worker = (job == job[p]) & (thread != thread[p])
        scale[worker] = union / float(np.sum(full[kids]))
        pool_wall += float(dur[p])
        pool_busy += float(np.sum(dur[kids]))

    self_t = (dur - covered) * scale
    ovh_t = np.where(is_root, 0.0, ovh * scale)

    by_name = {}
    for i, nm in enumerate(names):
        m = name == i
        if not np.any(m):
            continue
        by_name[nm] = {
            "calls": int(np.sum(m)),
            "incl_s": float(np.sum(dur[m] * scale[m])),
            "self_s": float(np.sum(self_t[m])),
            "arg": float(np.sum(arg[m])),
            "args": arg[m],
        }

    by_layer = {}
    for i, nm in enumerate(names):
        m = name == i
        if np.any(m):
            layer = "bench" if nm in ("job", "bench.check") else nm.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + float(np.sum(self_t[m]))
    by_layer["tracer"] = float(np.sum(ovh_t))

    jobs = {}
    worst = 0.0
    for r in np.nonzero(is_root)[0]:
        m = job == job[r]
        parts = float(np.sum(self_t[m]) + np.sum(ovh_t[m]))
        worst = max(worst, abs(parts - dur[r]))
        jobs[int(job[r])] = float(dur[r])
    return {"by_name": by_name, "by_layer": by_layer, "jobs": jobs,
            "accounting_error_s": worst, "pool": (pool_wall, pool_busy), "spans": len(sid)}
