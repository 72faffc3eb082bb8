"""Per-layer host-time tracing, installed from outside the program.

The program is not edited.  :class:`LayerTracer` patches, for the length
of one traced unit, every public function and method (``__init__``
included) defined in the ``repro.<layer>`` modules, and restores them
afterwards.  It records a span at two kinds of boundary:

* **process resumes** -- the generator handed to ``Engine.process`` is
  wrapped, and each resume is booked to the layer that defines that
  generator function (so the MDS serve loop is ``mds``, not ``sim``);
* **calls into a layer** -- a wrapped callable opens a span only when the
  layer in force differs from its own; a generator function's returned
  generator is wrapped so that each later ``send`` into it is booked the
  same way (``yield from network.send(...)`` inside client code is
  ``sim`` time).

A span is ``(name, parent, start, end)`` in flat arrays held in memory
and written once, after the unit.  A layer's self time is its spans'
durations minus their child spans and minus the calibrated cost that
tracing each child added to its parent.  Everything not inside some other
layer's span under ``Engine.run`` is ``sim``; code of the benchmark
itself is ``driver``.

Every wrapped callable also counts its calls, traced layer or not; the
per-op work counts come from those counters and from the engine's event
hook, which makes them exact for a seed.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

#: The program's layers, in report order (``repro.<layer>`` packages).
LAYERS = ("sim", "client", "mds", "journal", "rados", "mon", "core", "obs",
          "scenario")
#: Packages that are patched: the layers plus the glue the workloads use.
PATCHED = LAYERS + ("workloads", "cluster")
#: Functions whose returned ``bytes`` length is summed, not just counted.
SIZED = {"repro.journal.format.JournalCodec.encode_event"}


def layer_of_file(filename: str, driver_dir: str, program_dir: str) -> str:
    """Layer owning the code in ``filename``: ``driver`` for the
    benchmark, ``<package>`` for ``<program_dir>/<package>/...``."""
    if filename.startswith(driver_dir):
        return "driver"
    if not filename.startswith(program_dir):
        return "other"
    head = filename[len(program_dir):].split(os.sep, 1)[0]
    return head[:-3] if head.endswith(".py") else head


class _TracedGen:
    """Generator proxy: books each ``send``/``throw`` to ``layer``."""

    __slots__ = ("gen", "layer", "nid", "tracer")

    def __init__(self, tracer: "LayerTracer", gen, layer: str, nid: int):
        self.tracer = tracer
        self.gen = gen
        self.layer = layer
        self.nid = nid

    @property
    def __name__(self) -> str:  # Process names itself after its body
        return self.gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self.tracer
        if tracer.layers[-1] == self.layer:
            return self.gen.send(value)
        idx = tracer.open(self.nid, self.layer)
        try:
            return self.gen.send(value)
        finally:
            tracer.close(idx)

    def throw(self, *args):
        tracer = self.tracer
        if tracer.layers[-1] == self.layer:
            return self.gen.throw(*args)
        idx = tracer.open(self.nid, self.layer)
        try:
            return self.gen.throw(*args)
        finally:
            tracer.close(idx)

    def close(self):
        return self.gen.close()


class _ResumedGen(_TracedGen):
    """A process body: every resume is a span (and is counted)."""

    __slots__ = ()

    def send(self, value):
        tracer = self.tracer
        tracer.resumes += 1
        idx = tracer.open(self.nid, self.layer)
        try:
            return self.gen.send(value)
        finally:
            tracer.close(idx)

    def throw(self, *args):
        tracer = self.tracer
        tracer.resumes += 1
        idx = tracer.open(self.nid, self.layer)
        try:
            return self.gen.throw(*args)
        finally:
            tracer.close(idx)


class LayerTracer:
    """Install with :meth:`install`, run one unit, then :meth:`uninstall`."""

    def __init__(self, driver_dir: str, program_dir: str):
        """``driver_dir`` holds the benchmark's files, ``program_dir`` the
        ``repro`` package; both end with a path separator."""
        self.driver_dir = driver_dir
        self.program_dir = program_dir
        self.names: List[str] = []
        self.name_layer: List[str] = []
        #: Per name: True when its spans wrap generator sends.
        self.name_is_gen: List[bool] = []
        self._nids: Dict[str, int] = {}
        #: Host seconds a parent pays per child span for the tracing
        #: itself, by kind (call, generator send); see :meth:`calibrate`.
        self.bias = {False: 0.0, True: 0.0}
        self.calls: List[int] = []
        self.sized: Dict[int, int] = {}
        self.resumes = 0
        self.events = 0
        self.active = False
        self._patches: List[Tuple[object, str, object]] = []
        self._file_layer: Dict[str, str] = {}
        self._code_nid: Dict[object, Tuple[str, int]] = {}
        # Wrappers hold these two lists, so they are only ever cleared
        # in place.
        self.idx_stack: List[int] = [-1]
        self.layers: List[str] = ["driver"]
        self._reset_spans()

    # -- span log ---------------------------------------------------------
    def _reset_spans(self) -> None:
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        del self.idx_stack[1:]
        del self.layers[1:]

    def open(self, nid: int, layer: str) -> int:
        idx = len(self.s_start)
        self.s_name.append(nid)
        self.s_parent.append(self.idx_stack[-1])
        self.s_end.append(0.0)
        self.idx_stack.append(idx)
        self.layers.append(layer)
        self.s_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.s_end[idx] = time.perf_counter()
        self.idx_stack.pop()
        self.layers.pop()

    def nid(self, name: str, layer: str, is_gen: bool = False) -> int:
        got = self._nids.get(name)
        if got is None:
            got = self._nids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
            self.name_is_gen.append(is_gen)
            self.calls.append(0)
        return got

    def _layer_of_code(self, filename: str) -> str:
        layer = self._file_layer.get(filename)
        if layer is None:
            layer = self._file_layer[filename] = layer_of_file(
                filename, self.driver_dir, self.program_dir
            )
        return layer

    # -- wrappers ---------------------------------------------------------
    def resumable(self, gen):
        """Wrap a process body so each resume is booked to its layer."""
        if isinstance(gen, _TracedGen):
            gen = gen.gen
        code = getattr(gen, "gi_code", None)
        if code is None:
            return gen
        known = self._code_nid.get(code)
        if known is None:
            layer = self._layer_of_code(code.co_filename)
            nid = self.nid(f"resume:{code.co_qualname}@{layer}", layer, True)
            known = self._code_nid[code] = (layer, nid)
        return _ResumedGen(self, gen, known[0], known[1])

    def _wrap(self, fn, full: str, layer: str):
        nid = self.nid(full, layer, inspect.isgeneratorfunction(fn))
        calls = self.calls
        layers = self.layers
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.active:
                    return gen
                calls[nid] += 1
                if layers[-1] == layer:
                    return gen
                return _TracedGen(tracer, gen, layer, nid)
            return gen_wrapper

        sized = full in SIZED
        if sized:
            self.sized[nid] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[nid] += 1
            if layers[-1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx = tracer.open(nid, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            if sized:
                tracer.sized[nid] += len(result)
            return result
        return wrapper

    def _wrap_process(self, fn, full: str):
        """``Engine.process``: wrap the body, then call through."""
        inner = self._wrap(fn, full, "sim")
        tracer = self

        @functools.wraps(fn)
        def process(engine, generator, name=None):
            if tracer.active:
                generator = tracer.resumable(generator)
            return inner(engine, generator, name=name)
        return process

    def calibrate(self, reps: int = 5, n: int = 20_000) -> None:
        """Measure what one child span costs its parent beyond the
        child's own interval (wrapper, proxy and span bookkeeping), so
        :meth:`self_times` can take it back out of the parent's self time
        instead of charging tracing to whichever layer called."""
        def noop():
            return None

        def gen_noop():
            while True:
                yield None

        call = self._wrap(noop, "calibration:call", "calibration")
        plain = gen_noop()
        plain.send(None)
        proxied = self.resumable(gen_noop())
        proxied.gen.send(None)
        samples: Dict[bool, List[float]] = {False: [], True: []}
        self.active = True
        try:
            for _ in range(reps):
                for is_gen, traced, bare in ((False, call, noop),
                                             (True, proxied.send, plain.send)):
                    self._reset_spans()
                    t0 = time.perf_counter()
                    for _ in range(n):
                        bare(None) if is_gen else bare()
                    t1 = time.perf_counter()
                    for _ in range(n):
                        traced(None) if is_gen else traced()
                    t2 = time.perf_counter()
                    inside = float(np.sum(
                        np.frombuffer(self.s_end, dtype=np.float64)
                        - np.frombuffer(self.s_start, dtype=np.float64)))
                    samples[is_gen].append(((t2 - t1) - inside - (t1 - t0)) / n)
        finally:
            self.active = False
        for is_gen, values in samples.items():
            self.bias[is_gen] = max(0.0, sorted(values)[len(values) // 2])
        self.reset_counts()

    # -- install / uninstall ---------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every loaded ``repro.<layer>`` module; :meth:`uninstall`
        puts everything back."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals: Dict[int, object] = {}
        modules = [
            (name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and name.startswith("repro.")
            and name.split(".")[1] in PATCHED
        ]
        for modname, mod in modules:
            layer = modname.split(".")[1]
            for attr, value in sorted(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == modname:
                    wrapped = self._wrap(value, f"{modname}.{attr}", layer)
                    originals[id(value)] = wrapped
                    self._set(mod, attr, wrapped)
                elif inspect.isclass(value) and value.__module__ == modname:
                    self._patch_class(value, modname, layer)
        # Rebind module-level functions imported by name elsewhere, in
        # the program and in the benchmark's own modules, and in
        # module-level registries (e.g. the mechanism table).
        driver_mods = [
            mod for mod in list(sys.modules.values())
            if getattr(mod, "__file__", None)
            and str(mod.__file__).startswith(self.driver_dir)
        ]
        for mod in [m for _, m in modules] + driver_mods:
            for attr, value in sorted(vars(mod).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and getattr(mod, attr) is not wrapped:
                    self._set(mod, attr, wrapped)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        wrapped = originals.get(id(item))
                        if wrapped is not None:
                            self._patches.append((value, key, item))
                            value[key] = wrapped
        self.active = True

    def _patch_class(self, cls: type, modname: str, layer: str) -> None:
        if cls.__name__.startswith("_") or issubclass(cls, (BaseException, tuple)):
            return
        if any(base.__name__ in ("Enum", "Protocol") for base in cls.__mro__[1:]):
            return
        for attr, value in sorted(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            full = f"{modname}.{cls.__qualname__}.{attr}"
            if isinstance(value, staticmethod):
                self._set(cls, attr, staticmethod(
                    self._wrap(value.__func__, full, layer)))
            elif isinstance(value, classmethod):
                self._set(cls, attr, classmethod(
                    self._wrap(value.__func__, full, layer)))
            elif inspect.isfunction(value):
                if not value.__qualname__.startswith(cls.__qualname__ + "."):
                    continue  # e.g. typing's replaced Protocol __init__
                if full == "repro.sim.engine.Engine.process":
                    self._set(cls, attr, self._wrap_process(value, full))
                else:
                    self._set(cls, attr, self._wrap(value, full, layer))

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patches = []

    def event_hook(self):
        """An ``Engine.trace`` hook that counts dispatched events."""
        def hook(_t, _event):
            self.events += 1
        return hook

    # -- accounting -------------------------------------------------------
    def snapshot_counts(self) -> Dict[str, int]:
        out = {name: n for name, n in zip(self.names, self.calls) if n}
        for nid, nbytes in self.sized.items():
            out[self.names[nid] + "#bytes"] = nbytes
        out["#resumes"] = self.resumes
        out["#events"] = self.events
        return out

    def reset_counts(self) -> None:
        for i in range(len(self.calls)):
            self.calls[i] = 0
        for nid in self.sized:
            self.sized[nid] = 0
        self.resumes = 0
        self.events = 0
        self._reset_spans()

    def self_times(self) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
        """Per-layer self seconds, and the top span names by self time."""
        n = len(self.s_start)
        if n == 0:
            return {}, []
        names = np.frombuffer(self.s_name, dtype=np.int32)
        parent = np.frombuffer(self.s_parent, dtype=np.int32)
        dur = (np.frombuffer(self.s_end, dtype=np.float64)
               - np.frombuffer(self.s_start, dtype=np.float64))
        # A parent's self time excludes its children's intervals and what
        # tracing each child cost it (calibrated).
        bias = np.array([self.bias[g] for g in self.name_is_gen],
                        dtype=np.float64)[names]
        child = np.zeros(n, dtype=np.float64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent] + bias[has_parent])
        own = dur - child
        per_name = np.bincount(names, weights=own, minlength=len(self.names))
        per_layer: Dict[str, float] = {}
        for nid, secs in enumerate(per_name.tolist()):
            layer = self.name_layer[nid]
            per_layer[layer] = per_layer.get(layer, 0.0) + secs
        for layer, secs in per_layer.items():
            per_layer[layer] = max(0.0, secs)
        order = np.argsort(-per_name)[:12]
        top = [(self.names[i], float(per_name[i])) for i in order.tolist()
               if per_name[i] > 0]
        return per_layer, top

    def span_count(self) -> int:
        return len(self.s_start)

    def write_spans(self, path: Path, meta: Optional[Dict] = None) -> None:
        """Write the span log of the last traced unit (once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.frombuffer(self.s_name, dtype=np.int32),
            parent=np.frombuffer(self.s_parent, dtype=np.int32),
            start=np.frombuffer(self.s_start, dtype=np.float64),
            end=np.frombuffer(self.s_end, dtype=np.float64),
            names=np.array(json.dumps(
                {"names": self.names, "layers": self.name_layer,
                 "meta": meta or {}})),
        )
