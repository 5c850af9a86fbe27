"""In-memory span tracer installed around montouch's public API.

``Tracer.install`` replaces every public function and method of the
layer modules with a wrapper that records a span (name, start, end,
parent).  A function is replaced in every montouch namespace that holds
it, so ``montouch.cycles.orthonormal_range`` is traced as well as
``montouch.hilbert.orthonormal_range``.  ``remove`` puts the originals
back; the library itself is never edited.

Spans of one request live in flat arrays.  ``end_request`` reduces them
to per-name counts, inclusive times and self times (duration minus the
time covered by child spans), and keeps the raw spans of the first
``keep`` requests for ``dump``.
"""

import functools
import importlib
import time
import types
from array import array

import numpy as np

from montouch.errors import ConvergenceError

LAYERS = ("cli", "cycles", "touching", "monotone", "convex", "hilbert")
# Namespaces that may hold a reference to a layer function.
NAMESPACES = ("montouch",) + tuple(f"montouch.{layer}" for layer in LAYERS)
ROOT = "request"


def _public_callables(module):
    """(owner, attribute, qualified name, function) for every public
    function and public method defined in ``module``."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            yield module, name, f"{layer}.{name}", obj
        elif isinstance(obj, type):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and isinstance(member, types.FunctionType):
                    yield obj, attr, f"{layer}.{name}.{attr}", member


class Tracer:
    def __init__(self, keep=0):
        self.names = [ROOT]
        self._ids = {ROOT: 0}
        self._saved = []
        self.keep = int(keep)
        self.kept = []
        self.outer_iterations = 0
        self._reset()

    # -------------------------------------------------------------- wrapping

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, qualname, fn):
        nid = self._name_id(qualname)
        clock = time.perf_counter
        tracer = self
        count_iterations = qualname == "touching.touch"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer._name)
            tracer._name.append(nid)
            tracer._parent.append(tracer._stack[-1])
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            tracer._stack.append(i)
            tracer._start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            except ConvergenceError as err:
                if count_iterations:
                    tracer.outer_iterations += err.iterations or 0
                raise
            finally:
                tracer._end[i] = clock()
                tracer._stack.pop()
            if count_iterations:
                tracer.outer_iterations += result.iterations
            return result

        return traced

    def install(self):
        if self._saved:
            return
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"montouch.{layer}")
            for owner, attr, qualname, fn in _public_callables(module):
                wrapped = self._wrap(qualname, fn)
                wrappers[id(fn)] = wrapped
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
        for space in NAMESPACES:
            module = importlib.import_module(space)
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers \
                        and wrappers[id(obj)] is not obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def remove(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    # -------------------------------------------------------------- requests

    def _reset(self):
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def begin_request(self):
        self._reset()
        self._name.append(0)
        self._parent.append(-1)
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._stack.append(0)
        self.outer_iterations = 0

    def end_request(self, request_id):
        """Close the root span and reduce this request's spans."""
        self._end[0] = time.perf_counter()
        name = np.array(self._name, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        start = np.array(self._start)
        end = np.array(self._end)
        n_names = len(self.names)
        duration = end - start
        child = np.bincount(parent[1:], weights=duration[1:], minlength=len(name))
        self_time = duration - child
        stats = RequestStats(
            index=dict(self._ids),
            count=np.bincount(name, minlength=n_names),
            inclusive=np.bincount(name, weights=duration, minlength=n_names),
            self_time=np.bincount(name, weights=self_time, minlength=n_names),
            duration=float(duration[0]),
            outer_iterations=self.outer_iterations,
            parent_name=np.where(parent >= 0, name[np.maximum(parent, 0)], -1),
            name=name,
        )
        if len(self.kept) < self.keep:
            self.kept.append((request_id, name, parent, start, end))
        self._reset()
        return stats

    def dump(self, path):
        """Write the kept spans as columns of one .npz file."""
        if not self.kept:
            return
        cols = list(zip(*self.kept))
        rid = np.concatenate([np.full(len(n), r) for r, n in zip(cols[0], cols[1])])
        np.savez_compressed(
            path,
            names=np.array(self.names),
            request=rid,
            name=np.concatenate(cols[1]),
            parent=np.concatenate(cols[2]),
            start=np.concatenate(cols[3]),
            end=np.concatenate(cols[4]),
        )


class RequestStats:
    """Per-name reductions of one traced request."""

    def __init__(self, index, count, inclusive, self_time, duration,
                 outer_iterations, parent_name, name):
        self._index = index
        self._count = count
        self._inclusive = inclusive
        self._self = self_time
        self.duration = duration
        self.outer_iterations = outer_iterations
        self._pair = (name, parent_name)

    def _ids(self, match):
        return [i for n, i in self._index.items() if match(n)]

    def count(self, match):
        return int(sum(self._count[i] for i in self._ids(match)))

    def inclusive(self, match):
        return float(sum(self._inclusive[i] for i in self._ids(match)))

    def self_time(self, match):
        return float(sum(self._self[i] for i in self._ids(match)))

    def count_under(self, match, parent_match):
        """Spans matching ``match`` whose direct parent matches ``parent_match``."""
        name, parent_name = self._pair
        want = np.zeros(len(self._count) + 1, dtype=bool)
        want_parent = np.zeros(len(self._count) + 1, dtype=bool)
        want[self._ids(match)] = True
        want_parent[self._ids(parent_match)] = True
        return int(np.count_nonzero(want[name] & want_parent[parent_name]))
