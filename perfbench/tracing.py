"""Span tracing of the program's layers, installed from outside it.

The tracer wraps public functions of the ``repro`` package -- methods on
their classes, and module functions at every import site that bound them
by name -- so that each wrapped call records one span: layer name, start,
end, parent span and op id.  Spans are kept in per-thread in-memory
arrays and written out once, after the run.

Self time is a span's duration minus the time its child spans cover.  It
is accumulated as spans close, split by whether the span started in a
measured op (op id >= 0) or in set-up, a yardstick spin or a server-side
thread (op id -1).  A span's op is the one open when it started, the same
op id that the span records.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from array import array
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter_ns

#: ``(module, class, method, layer)``: methods wrapped on their class.
METHODS = (
    ("repro.core.campaign", "Campaign", "run", "core.campaign"),
    ("repro.core.executor", "Executor", "run_case", "core.executor"),
    ("repro.core.executor", "Executor", "run_step", "core.executor"),
    ("repro.core.generator", "CaseGenerator", "cases", "core.generator.plan"),
    (
        "repro.core.generator",
        "CaseGenerator",
        "resolve_case",
        "core.generator.resolve",
    ),
    ("repro.core.results", "MuTResult", "record", "core.results.record"),
    ("repro.core.sequences", "SequencePlanner", "plan", "core.sequences.plan"),
    ("repro.core.context", "TestContext", "run_cleanups", "core.values"),
    ("repro.sim.machine", "Machine", "spawn_process", "sim.machine.spawn"),
    ("repro.sim.machine", "Machine", "revert", "sim.machine.revert"),
    ("repro.sim.machine", "Machine", "reboot", "sim.machine.reboot"),
    ("repro.sim.machine", "Machine", "wear_residue", "sim.machine.residue"),
    ("repro.sim.machine", "Machine", "wear_state", "sim.machine.wear"),
    ("repro.sim.process", "Process", "terminate", "sim.process"),
    (
        "repro.sim.filesystem",
        "DirectoryNode",
        "lookup",
        "sim.filesystem.lookup",
    ),
    ("repro.sim.filesystem", "DirectoryNode", "remove", "sim.filesystem"),
    ("repro.sim.filesystem", "FileSystem", "lookup", "sim.filesystem"),
    ("repro.sim.filesystem", "FileSystem", "create_file", "sim.filesystem"),
    ("repro.sim.filesystem", "FileSystem", "open", "sim.filesystem"),
    ("repro.sim.filesystem", "FileSystem", "unlink", "sim.filesystem"),
    ("repro.sim.filesystem", "FileSystem", "mkdir", "sim.filesystem"),
    ("repro.sim.filesystem", "FileSystem", "rmdir", "sim.filesystem"),
    ("repro.sim.filesystem", "FileSystem", "rename", "sim.filesystem"),
    ("repro.sim.filesystem", "FileSystem", "listdir", "sim.filesystem"),
    ("repro.sim.memory", "AddressSpace", "read_cstring", "sim.memory.scan"),
    ("repro.sim.memory", "AddressSpace", "read_wstring", "sim.memory.scan"),
    ("repro.obs.recorder", "JsonlRecorder", "record", "obs.recorder"),
    ("repro.obs.recorder", "JsonlRecorder", "emit", "obs.recorder"),
    ("repro.obs.recorder", "JsonlRecorder", "close", "obs.recorder"),
    (
        "repro.service.client",
        "ServiceClient",
        "submit",
        "service.client.submit",
    ),
    ("repro.service.client", "ServiceClient", "status", "service.client.poll"),
    ("repro.service.client", "ServiceClient", "fetch", "service.client.fetch"),
    ("repro.service.client", "ServiceClient", "stream", "service.client.wait"),
    ("repro.service.queue", "JobQueue", "submit", "service.queue.submit"),
    ("repro.service.leases", "LeaseManager", "grant", "service.leases.grant"),
)

#: ``(module, function, layer)``: functions wrapped at every import site.
FUNCTIONS = (
    ("repro.core.classify", "classify_exception", "core.classify"),
    ("repro.core.results_io", "save_checkpoint", "core.results_io.checkpoint"),
    ("repro.core.results_io", "merge_checkpoints", "service.finalize"),
    ("repro.core.results_io", "save_results", "service.finalize"),
    ("repro.sim.guarded", "kernel_copy_to_user", "sim.guarded.copy"),
    ("repro.sim.guarded", "kernel_copy_from_user", "sim.guarded.copy"),
    ("repro.sim.guarded", "crt_write", "sim.guarded.copy"),
    ("repro.sim.guarded", "crt_read", "sim.guarded.copy"),
)


class _Buffer:
    """One thread's spans and self-time accumulators."""

    def __init__(self, layers: int) -> None:
        self.starts = array("q")
        self.ends = array("q")
        self.names = array("H")
        self.parents = array("i")
        self.ops = array("i")
        #: Open spans: ``[span index, child nanoseconds]``.
        self.stack: list[list[int]] = []
        self.op = -1
        self.op_started = 0
        #: ``[outside ops, inside ops]`` per layer id.
        self.self_ns = ([0] * layers, [0] * layers)
        self.counts = ([0] * layers, [0] * layers)


class Tracer:
    """Installs span-recording wrappers and aggregates their spans."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._undo: list = []
        #: Per-op marks set by hooks, e.g. first result row fetched.
        self.marks: dict[str, list[float]] = {}

    # -- span recording -------------------------------------------------

    def _id(self, layer: str) -> int:
        nid = self._ids.get(layer)
        if nid is None:
            nid = self._ids[layer] = len(self.layers)
            self.layers.append(layer)
        return nid

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            # Layer ids are all assigned before any wrapped call runs.
            buf = self._local.buf = _Buffer(len(self.layers))
            with self._lock:
                self._buffers.append(buf)
            return buf

    def set_op(self, op: int) -> None:
        """Attribute this thread's following spans to op ``op`` (-1:
        outside any measured op)."""
        buf = self._buffer()
        buf.op = op
        buf.op_started = perf_counter_ns()

    def _wrap(self, fn, layer: str, after=None):
        nid = self._id(layer)
        get_buffer = self._buffer

        def traced(*args, **kwargs):
            buf = get_buffer()
            stack = buf.stack
            index = len(buf.starts)
            buf.names.append(nid)
            buf.parents.append(stack[-1][0] if stack else -1)
            inside = buf.op >= 0
            buf.ops.append(buf.op)
            buf.ends.append(0)
            frame = [index, 0]
            stack.append(frame)
            started = perf_counter_ns()
            buf.starts.append(started)
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = perf_counter_ns()
                stack.pop()
                took = ended - started
                buf.ends[index] = ended
                if stack:
                    stack[-1][1] += took
                buf.self_ns[inside][nid] += took - frame[1]
                buf.counts[inside][nid] += 1
            if after is not None:
                after(buf, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, layer: str, fn, *args):
        """Run ``fn(*args)`` in a span of the benchmark's own code (the
        layer must have been named to :meth:`install`)."""
        return self._wrap(fn, layer)(*args)

    def mark(self, name: str, seconds: float) -> None:
        with self._lock:
            self.marks.setdefault(name, []).append(seconds)

    # -- installation ---------------------------------------------------

    def install(self, registry, types, extra_layers=(), hooks=None) -> None:
        """Wrap every layer boundary.  ``registry`` supplies the MuT
        instances whose ``call`` is the API personality's entry point,
        ``types`` the test values whose constructors and cleanups build
        and release each case's arguments."""
        hooks = hooks or {}
        for layer in extra_layers:
            self._id(layer)
        for module_name, cls_name, method, layer in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = getattr(cls, method)
            if method in cls.__dict__:
                self._undo.append(_restore(setattr, cls, method, original))
            else:  # inherited: drop the shadowing wrapper afterwards
                self._undo.append(_restore(delattr, cls, method))
            setattr(
                cls, method, self._wrap(original, layer, hooks.get(layer))
            )
        for module_name, name, layer in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), name)
            traced = self._wrap(original, layer)
            for module in _repro_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append(
                            _restore(setattr, module, attr, original)
                        )
                        setattr(module, attr, traced)
        # MuT and TestValue are frozen dataclasses whose callable fields
        # are the layer entry points.
        for mut in registry.all():
            self._wrap_field(mut, "call", f"api.{mut.api}")
        values = {
            id(value): value
            for name in types.names()
            for value in types.get(name).all_values()
        }
        for value in values.values():
            self._wrap_field(value, "construct", "core.values")
            if value.cleanup is not None:
                self._wrap_field(value, "cleanup", "core.values")
        # Buffers made before installation lack the new layer ids; none
        # of them recorded a span, so start afresh.
        self._local = threading.local()
        self._buffers = []

    def _wrap_field(self, instance, name: str, layer: str) -> None:
        original = getattr(instance, name)
        self._undo.append(
            _restore(object.__setattr__, instance, name, original)
        )
        object.__setattr__(instance, name, self._wrap(original, layer))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- aggregation ----------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls and self seconds, inside and outside ops."""
        out: dict[str, dict[str, float]] = {}
        for nid, layer in enumerate(self.layers):
            row = {"calls": 0, "op_calls": 0, "self_s": 0.0, "op_self_s": 0.0}
            for buf in self._buffers:
                row["calls"] += buf.counts[0][nid] + buf.counts[1][nid]
                row["op_calls"] += buf.counts[1][nid]
                outside, inside = buf.self_ns[0][nid], buf.self_ns[1][nid]
                row["self_s"] += (outside + inside) / 1e9
                row["op_self_s"] += inside / 1e9
            out[layer] = row
        return out

    def span_count(self) -> int:
        return sum(len(buf.starts) for buf in self._buffers)

    def write(self, directory: Path) -> Path:
        """Write every span: ``layers.json`` plus one binary array file
        per field (native byte order, see ``layers.json`` for typecodes).
        Parent indices are rebased onto the concatenated arrays."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = {
            "starts": "q",
            "ends": "q",
            "names": "H",
            "parents": "i",
            "ops": "i",
        }
        with ExitStack() as stack:
            files = {
                name: stack.enter_context(
                    open(directory / f"{name}.bin", "wb")
                )
                for name in fields
            }
            base = 0
            for buf in self._buffers:
                buf.starts.tofile(files["starts"])
                buf.ends.tofile(files["ends"])
                buf.names.tofile(files["names"])
                buf.ops.tofile(files["ops"])
                rebased = (p + base if p >= 0 else -1 for p in buf.parents)
                array("i", rebased).tofile(files["parents"])
                base += len(buf.starts)
        (directory / "layers.json").write_text(
            json.dumps(
                {
                    "layers": self.layers,
                    "typecodes": fields,
                    "spans": self.span_count(),
                    "clock": "perf_counter_ns",
                },
                indent=1,
            )
        )
        return directory


def _restore(action, *args):
    return lambda: action(*args)


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ]
