"""Spans around calls into each fqed layer, kept in memory.

`Instrumentation` replaces the public functions and methods of every
layer module (plus the few private entry points named below) with
wrappers that record a span: name, start, end, parent span and command
id. It patches every fqed module namespace and module-level dict that
holds the original, so `from .x import f` references and dispatch
tables are traced too, and puts everything back on exit. Nothing in
the program's source changes, and untraced runs never load wrappers.

A layer's self time is the duration of its spans minus the time their
direct child spans cover.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import io
import json
import sys
import time
import types

import numpy as np

from fqed.errors import NumericError

LAYERS = ("cli", "processes", "states", "ledger", "fourvec", "algebra",
          "propagators", "loops", "dynamics")

# private functions that are the layer's real entry points
_PRIVATE = {
    "cli": ("_write_table", "_parse_sweep"),
    "processes": ("_compton_core", "_coulomb_core", "_four_fermion_core"),
}

# span-name groups behind the per-layer time metrics
GROUPS = {
    "cli.parse_s": ("cli.build_parser", "cli._Parser.parse_args",
                    "cli._parse_sweep"),
    "cli.write_s": ("cli._write_table", "cli.json.dumps",
                    "cli.stdout.write"),
    "processes.spin_sum_s": ("processes.spin_summed_squared",),
    "loops.quad_s": ("loops.quad",),
    "dynamics.csv_s": ("dynamics.trajectory_csv",),
}

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.cmd: list[int] = []
        self.err: list[int] = []      # 0 ok, 1 raised, 2 raised NumericError
        self._stack: list[int] = []
        self.command = -1
        self.counts = collections.Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cmd.append(self.command)
        self.err.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(_perf())
        return i

    def close(self, i: int, err: int = 0) -> None:
        self.end[i] = _perf()
        self.err[i] = err
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(i, 2 if isinstance(exc, NumericError) else 1)
                raise
            self.close(i)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start), "end": np.array(self.end),
                "parent": np.array(self.parent, dtype=np.int64),
                "cmd": np.array(self.cmd, dtype=np.int32),
                "err": np.array(self.err, dtype=np.int8)}

    def summary(self, wall: float) -> dict:
        """Per-layer calls, self time and errors; group times; coverage."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        parent = a["parent"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        layer_of = np.array([LAYERS.index(n.split(".")[0])
                             for n in self.names] or [0])
        layer = layer_of[a["name"]] if len(dur) else np.zeros(0, int)
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        # an exception counts once, where it leaves the layer
        leaves = (a["err"] > 0) & (parent_layer != layer)
        out = {}
        for k, lay in enumerate(LAYERS):
            mine = layer == k
            out[f"{lay}.calls"] = int(mine.sum())
            out[f"{lay}.self_s"] = float(self_t[mine].sum())
            out[f"{lay}.errors"] = int((leaves & mine).sum())
        out["loops.numeric_errors"] = int(
            (leaves & (layer == LAYERS.index("loops"))
             & (a["err"] == 2)).sum())
        for metric, names in GROUPS.items():
            out[metric] = self._group_time(a, dur, names)
        out["trace.unattributed_frac"] = (
            1.0 - float(dur[~has_parent].sum()) / wall if wall > 0 else 0.0)
        return out

    def _group_time(self, a, dur, names) -> float:
        """Time under spans of the group, nested group spans counted once."""
        ids = {self._ids[n] for n in names if n in self._ids}
        total = 0.0
        for i in np.flatnonzero(np.isin(a["name"], list(ids))):
            p = self.parent[i]
            while p >= 0 and self.name[p] not in ids:
                p = self.parent[p]
            if p < 0:                       # no ancestor in the group
                total += dur[i]
        return float(total)

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.name.count(nid)

    def save(self, path: str, commands: list) -> None:
        a = self.arrays()
        t0 = a["start"].min() if len(a["start"]) else 0.0
        a["start"] -= t0
        a["end"] -= t0
        np.savez_compressed(path, names=np.array(self.names), **a,
                            commands=np.array(json.dumps(commands)))


class TracedSink(io.StringIO):
    """Captured stdout whose writes are `cli.stdout.write` spans."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._write = tracer.wrap(super().write, "cli.stdout.write")

    def write(self, s):
        return self._write(s)


class Instrumentation:
    """Context manager that installs the tracer's wrappers on fqed."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    def __enter__(self):
        mods = {lay: importlib.import_module(f"fqed.{lay}") for lay in LAYERS}
        replaced = {}
        for lay, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_") or attr in _PRIVATE.get(lay,
                                                                        ()):
                        replaced[id(obj)] = self._traced_function(
                            lay, attr, obj)
                elif (inspect.isclass(obj)
                      and obj.__module__ == mod.__name__):
                    self._wrap_class(lay, obj)
        self._rebind(replaced)
        self._wrap_externals(mods)
        return self.tracer

    def __exit__(self, *exc):
        for restore in reversed(self._undo):
            restore()
        self._undo.clear()
        return False

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            old = owner[attr]
            owner[attr] = value
            self._undo.append(lambda: owner.__setitem__(attr, old))
            return
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old) if had
                          else delattr(owner, attr))

    def _traced_function(self, lay, attr, fn):
        if (lay, attr) == ("dynamics", "integrate"):
            fn = self._counted_integrate(fn)
        return self.tracer.wrap(fn, f"{lay}.{attr}")

    def _counted_integrate(self, integrate):
        """Steps and time of free and field trajectories."""
        counts = self.tracer.counts

        def integrate_counted(state0, field=None, *args, **kwargs):
            t0 = _perf()
            traj = integrate(state0, field, *args, **kwargs)
            kind = "free" if field is None else "field"
            counts[f"{kind}_s"] += _perf() - t0
            counts[f"{kind}_steps"] += len(traj.tau) - 1
            return traj
        return integrate_counted

    def _wrap_class(self, lay, cls):
        for attr, obj in list(vars(cls).items()):
            name = f"{lay}.{cls.__name__}.{attr}"
            if attr == "__init__" or (inspect.isfunction(obj)
                                      and not attr.startswith("_")):
                self._set(cls, attr, self.tracer.wrap(obj, name))
            elif (isinstance(obj, classmethod)
                  and not attr.startswith("_")):
                self._set(cls, attr,
                          classmethod(self.tracer.wrap(obj.__func__, name)))
        if cls.__name__ == "_Parser":
            self._set(cls, "parse_args", self.tracer.wrap(
                cls.__mro__[1].parse_args, f"{lay}._Parser.parse_args"))

    def _rebind(self, replaced: dict):
        """Point every fqed namespace and dispatch table at the wrappers."""
        for modname, mod in list(sys.modules.items()):
            if not (modname == "fqed" or modname.startswith("fqed.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            self._set(obj, key, replaced[id(val)])

    def _wrap_externals(self, mods):
        """scipy's quad as seen by loops, json as seen by cli."""
        tracer = self.tracer
        counts = tracer.counts
        quad = tracer.wrap(mods["loops"].integrate.quad, "loops.quad")

        def counted_quad(f, *args, **kwargs):
            def integrand(*x):
                counts["integrand_evals"] += 1
                return f(*x)
            return quad(integrand, *args, **kwargs)

        self._set(mods["loops"], "integrate",
                  types.SimpleNamespace(quad=counted_quad))
        self._set(mods["cli"], "json", types.SimpleNamespace(
            dumps=tracer.wrap(json.dumps, "cli.json.dumps")))
