"""Outside-in layer tracing for the benchmark.

`Tracer.patch()` wraps the public functions, methods and constructors of
each `tdmlink` module from here, with nothing inside `src/`. A function
that another module imported by name (as `streams` imports the `wire`
functions) is replaced under every name it is bound to, so each caller
reaches the wrapper. `Tracer.restore()` puts the originals back; untraced
scenarios therefore run the program unmodified.

Every wrapped call records one span (name, start, end, parent) in flat
arrays. When a scenario ends, its spans are stamped with a run id, kept,
and folded into per-boundary totals. A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans of a scenario add up to the duration of its root span. Boundaries
that do countable work also record it (bits, packets, hits) from their
arguments and results.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

# Modules a workload runs through. `cli` and `vectors` are entry points and
# golden-vector tooling that no workload calls.
LAYERS = (
    "bits", "wire", "messages", "streams", "frontend", "backend",
    "transport", "message_engine", "symbol_engine", "sim", "timebase",
)

# Called once per payload word; a span each would measure the tracer, not
# the program. Its time counts to its callers (frontend, transport).
UNWRAPPED = {"frontend.generator_word"}

PACKAGE = "tdmlink"
ROOT = "perfbench.scenario"


class BoundaryStats:
    __slots__ = ("calls", "incl_s", "self_s", "work", "hits", "peak")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.work = 0  # bits, packets: what the boundary processed
        self.hits = 0  # calls whose result counted as progress
        self.peak = 0  # highest gauge value seen after a call


def _bits_in(pos):
    def hook(st, args, result):
        st.work += len(args[pos])
    return hook


def _bits_out(st, args, result):
    st.work += len(result)


def _arg_count(pos):
    def hook(st, args, result):
        st.work += int(args[pos])
    return hook


def _truthy(st, args, result):
    if result:
        st.hits += 1


def _packets_out(st, args, result):
    st.work += len(result.packets)


def _filled_depth(st, args, result):
    depth = len(args[0].i_fifo)
    if depth > st.peak:
        st.peak = depth


# Work recorded at a boundary, keyed by span name. Argument positions count
# `self` for methods.
HOOKS = {
    "wire.Scrambler.scramble": _bits_in(1),
    "wire.Descrambler.descramble": _bits_in(1),
    "wire.manchester_encode": _bits_in(0),
    "wire.manchester_decode": _bits_in(0),
    "wire.tdm_interleave": _bits_out,
    "wire.tdm_deinterleave": _bits_in(1),
    "wire.PrbsGenerator.stream": _arg_count(1),
    "wire.prbs_verify": _bits_in(1),
    "streams.DownstreamTransmitter.produce_cycles": _bits_out,
    "streams.DownstreamReceiver.feed": _bits_in(1),
    "streams.UpstreamTransmitter.produce": _bits_out,
    "streams.UpstreamReceiver.feed": _bits_in(1),
    "frontend.FrontEndCard.on_channel_a": _packets_out,
    "frontend.FrontEndCard.on_channel_c": _packets_out,
    "transport.TransportServer.next_frame": _truthy,
    "backend.EventBuilder.step": _truthy,
    "backend.PacketMover.write_record": _truthy,
    "backend.DataPump.wants_request": _truthy,
    "backend.BufferPool.push_filled": _filled_depth,
}


def _boundaries():
    """Yield (span name, owner, attribute, kind) for every public function of
    each layer module and every public method or constructor of its classes."""
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                if f"{layer}.{name}" not in UNWRAPPED:
                    yield f"{layer}.{name}", module, name, "function"
            elif inspect.isclass(obj):
                for attr, raw in sorted(vars(obj).items()):
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if isinstance(raw, staticmethod):
                        kind = "staticmethod"
                    elif isinstance(raw, classmethod):
                        kind = "classmethod"
                    elif inspect.isfunction(raw):
                        kind = "method"
                    else:
                        continue  # properties, constants, nested classes
                    yield f"{layer}.{name}.{attr}", obj, attr, kind


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: list[BoundaryStats] = []
        self._index: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []  # (owner, name, original)
        self._clear_spans()
        self.scenarios = 0
        self.root_walls: list[float] = []  # root span duration per scenario
        self.root_s = 0.0
        self.root_self_s = 0.0
        self.kept: list[dict] = []  # finished scenarios' spans, as arrays

    def _clear_spans(self):
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]

    def _boundary(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.stats.append(BoundaryStats())
        return self._index[name]

    def _wrap(self, fn, name):
        idx = self._boundary(name)
        stats = self.stats[idx]
        hook = HOOKS.get(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_parent.append(tracer.stack[-1])
            tracer.span_start.append(clock())
            tracer.span_end.append(0.0)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[span] = clock()
                tracer.stack.pop()
            if hook is not None:
                hook(stats, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------------

    def patch(self):
        """Install a wrapper at every boundary and at every module-level
        name the same function is bound to."""
        if self._patches:
            raise RuntimeError("already patched")
        namespaces = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}")
            for m in sorted(set(LAYERS) | {"cli", "vectors"})
        ]
        for name, owner, attr, kind in list(_boundaries()):
            raw = vars(owner)[attr]
            if kind == "function":
                wrapped = self._wrap(raw, name)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is raw:
                            self._set(ns, key, wrapped)
            elif kind == "method":
                self._set(owner, attr, self._wrap(raw, name))
            elif kind == "classmethod":
                self._set(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                self._set(owner, attr, staticmethod(self._wrap(raw.__func__, name)))

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- scenarios ----------------------------------------------------------------

    def run_scenario(self, fn, *args):
        """Call fn(*args) under a root span with every boundary patched."""
        root = self._boundary(ROOT)
        self.patch()
        try:
            self.span_name.append(root)
            self.span_parent.append(-1)
            self.span_start.append(time.perf_counter())
            self.span_end.append(0.0)
            self.stack.append(0)
            try:
                return fn(*args)
            finally:
                self.span_end[0] = time.perf_counter()
                self.stack.pop()
        finally:
            self.restore()
            self._end_scenario()

    def _end_scenario(self):
        names = np.frombuffer(self.span_name, dtype=np.int64).copy()
        parents = np.frombuffer(self.span_parent, dtype=np.int64).copy()
        starts = np.frombuffer(self.span_start, dtype=np.float64).copy()
        ends = np.frombuffer(self.span_end, dtype=np.float64).copy()
        self._clear_spans()
        duration = ends - starts
        children = np.bincount(parents + 1, weights=duration, minlength=len(duration) + 1)
        self_time = duration - children[1:]
        nb = len(self.names)
        calls = np.bincount(names, minlength=nb)
        incl = np.bincount(names, weights=duration, minlength=nb)
        own = np.bincount(names, weights=self_time, minlength=nb)
        for i, st in enumerate(self.stats):
            st.calls += int(calls[i])
            st.incl_s += float(incl[i])
            st.self_s += float(own[i])
        self.root_walls.append(float(duration[0]))
        self.root_s += float(duration[0])
        self.root_self_s += float(self_time[0])
        self.kept.append(
            dict(run=self.scenarios, name=names, parent=parents, start=starts, end=ends)
        )
        self.scenarios += 1

    def write_spans(self, path):
        """Write every kept span: run id, name index, parent index (within
        its run, -1 for the root), start and end in perf_counter seconds."""
        if not self.kept:
            return
        np.savez(
            path,
            names=np.array(self.names),
            run=np.concatenate([np.full(len(k["name"]), k["run"]) for k in self.kept]),
            name=np.concatenate([k["name"] for k in self.kept]),
            parent=np.concatenate([k["parent"] for k in self.kept]),
            start=np.concatenate([k["start"] for k in self.kept]),
            end=np.concatenate([k["end"] for k in self.kept]),
        )

    # -- aggregates ------------------------------------------------------------------

    def stat(self, name: str) -> BoundaryStats:
        if name not in self._index:
            raise KeyError(f"no traced boundary named {name}")
        return self.stats[self._index[name]]

    def layer_self_s(self) -> dict[str, float]:
        """Total self seconds per layer module over all traced scenarios."""
        out: dict[str, float] = defaultdict(float)
        for name, st in zip(self.names, self.stats):
            if name != ROOT:
                out[name.split(".", 1)[0]] += st.self_s
        return {layer: out.get(layer, 0.0) for layer in LAYERS}
