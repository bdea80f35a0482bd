"""In-memory span recorder that wraps the repro layers from outside.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.install`
replaces the public entry points of each layer module (and every
``from ... import`` binding of them inside ``repro``) with wrappers
that record one span per call. :meth:`Tracer.uninstall` puts the
originals back, so an untraced run executes exactly the code a user
runs.

A span is ``(sid, parent, layer, op, start, end, key, units)``:
``parent`` is the sid of the enclosing span on the same thread (or
``None``), ``key`` the scenario key of the shard the span ran in
(spans of one shard share it), and ``units`` a per-op work count
(packets handed to ``inject_block``, bytes of a wire frame).
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: (layer, module, class or None, attribute) — the boundaries timed.
#: Layer names follow the module that owns the code.
BOUNDARIES = [
    ("traffic", "repro.sim.traffic", None, "build_workload"),
    ("packet", "repro.packet.packet", "Packet", "pack"),
    ("oracle", "repro.netdebug.oracle", "ReferenceOracle", "expect_all"),
    ("oracle", "repro.netdebug.oracle", "ReferenceOracle", "expect"),
    ("device", "repro.target.device", "NetworkDevice", "inject"),
    ("device", "repro.target.device", "NetworkDevice", "inject_block"),
    ("device", "repro.target.device", "NetworkDevice", "process"),
    ("device", "repro.target.device", "NetworkDevice", "process_batch"),
    # _on_snapshot is the tap callback the checker registers with the
    # device; wrapping it makes checking a child of the device span, so
    # device self time excludes it.
    ("checker", "repro.netdebug.checker", "OutputChecker", "_on_snapshot"),
    ("checker", "repro.netdebug.checker", "OutputChecker", "arm"),
    ("checker", "repro.netdebug.checker", "OutputChecker", "disarm"),
    ("checker", "repro.netdebug.checker", "OutputChecker", "finalize"),
    ("checker", "repro.netdebug.checker", "OutputChecker", "add_check"),
    ("checker", "repro.netdebug.checker", "OutputChecker", "expect"),
    ("checker", "repro.netdebug.checker", "OutputChecker", "outcomes"),
    ("session", "repro.netdebug.session", None, "run_session"),
    ("artifact", "repro.target.device", "NetworkDevice", "load"),
    ("artifact", "repro.target.device", "NetworkDevice", "install"),
    ("artifact", "repro.target.artifact_cache", "ArtifactCache", "key_for"),
    ("artifact", "repro.target.artifact_cache", "ArtifactCache", "load"),
    ("artifact", "repro.target.artifact_cache", "ArtifactCache", "store"),
    ("regression", "repro.netdebug.regression", "RegressionSuite", "load"),
    ("regression", "repro.netdebug.regression", None, "replay_suite"),
    ("campaign", "repro.netdebug.campaign", None, "assemble_report"),
    ("wire", "repro.netdebug.transport", None, "send_message"),
    ("wire", "repro.netdebug.transport", None, "recv_message"),
    ("wire", "repro.netdebug.transport", None, "encode_job"),
    ("wire", "repro.netdebug.transport", None, "decode_job"),
]

#: Layers whose self time counts toward ``trace.coverage``.
CHILD_LAYERS = (
    "traffic", "packet", "oracle", "device", "checker", "session",
    "artifact", "regression",
)

SHARD_OP = "shard"
#: Blocking read of a frame header: idle time waiting for the peer,
#: kept out of the wire layer's own time.
WAIT_LAYER = "wire.wait"


class Tracer:
    """Records spans while installed; a plain list of tuples in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, op: str, fn, args, kwargs, key=None,
             units=None):
        """Run ``fn(*args, **kwargs)`` inside one span."""
        stack = self._stack()
        sid = next(self._ids)
        if stack:
            parent, parent_key = stack[-1]
        else:
            parent, parent_key = None, None
        if key is None:
            key = parent_key
        stack.append((sid, key))
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            # Work counts are taken after the clock stops, so counting
            # never shows up as the layer's own time.
            self.spans.append(
                (sid, parent, layer, op, start, end, key,
                 units(args, kwargs, result) if units is not None
                 else None)
            )

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_function(self, layer, op, fn, units=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(layer, op, fn, args, kwargs, units=units)

        return traced

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`, plus the serial
        shard executor (one ``campaign``/``shard`` span per shard,
        keyed by its scenario key) and the transport's header read."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        units = {
            "inject_block": _block_packets,
            "send_message": _frame_bytes,
            "recv_message": _frame_bytes,
        }
        for layer, module_name, class_name, attr in BOUNDARIES:
            module = sys.modules[module_name]
            if class_name is None:
                original = getattr(module, attr)
                traced = self._wrap_function(
                    layer, attr, original, units.get(attr)
                )
                # ``from x import f`` copies the binding: patch every
                # repro module that holds this exact function object.
                for name, mod in list(sys.modules.items()):
                    if (
                        (name == "repro" or name.startswith("repro."))
                        and mod.__dict__.get(attr) is original
                    ):
                        self._replace(mod, attr, traced)
                continue
            owner = getattr(module, class_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(
                    self._wrap_function(layer, attr, raw.__func__)
                )
            else:
                traced = self._wrap_function(
                    layer, attr, raw, units.get(attr)
                )
            self._replace(owner, attr, traced)
        self._install_shard_span()
        self._install_wire_wait()

    def _install_shard_span(self) -> None:
        from repro.netdebug.campaign import SerialExecutor

        tracer = self
        original = SerialExecutor.__dict__["execute"]

        def execute(executor, jobs, shard_fn, on_result=None):
            def shard(job):
                # Run and replay job tuples both carry the Scenario
                # second: (epoch, scenario, ...).
                return tracer.call(
                    "campaign", SHARD_OP, shard_fn, (job,), {},
                    key=job[1].key,
                )

            return original(executor, jobs, shard, on_result)

        self._replace(SerialExecutor, "execute", execute)

    def _install_wire_wait(self) -> None:
        from repro.netdebug import transport

        tracer = self
        original = transport._recv_exact
        header = transport._HEADER.size

        def recv_exact(sock, size):
            if size != header:
                return original(sock, size)
            return tracer.call(WAIT_LAYER, "header", original,
                               (sock, size), {})

        self._replace(transport, "_recv_exact", recv_exact)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as one gzipped JSON line (done once, at the
        end of a traced run)."""
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _block_packets(args, kwargs, result) -> int:
    """Packets ``NetworkDevice.inject_block`` ran: one outcome each."""
    return len(result) if result is not None else 0


def _frame_bytes(args, kwargs, result) -> int:
    """Bytes of one JSON frame on the wire: header + body + HMAC tag.

    The body is ``json.dumps`` of the message (sent, or received and
    decoded), so re-encoding it recovers its exact length.
    """
    from repro.netdebug import transport

    message = args[1] if len(args) > 1 and isinstance(args[1], dict) \
        else result
    if message is None:
        return 0
    auth = kwargs.get("auth")
    return (
        transport._HEADER.size
        + len(json.dumps(message).encode())
        + (transport.TAG_BYTES if auth is not None else 0)
    )


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _layer, _op, start, end, _key, _units in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, []))
        for sid, _parent, _layer, _op, start, end, _key, _units in spans
    }


def summarize(spans) -> dict:
    """Per-layer and per-op aggregates of a span list.

    Returns ``{"self": {layer: s}, "op_self": {(layer, op): s},
    "calls": {(layer, op): n}, "units": {(layer, op): Σunits},
    "shard_wall": s, "shard_self": s, "shard_child_self": s,
    "shards": n}``; ``shard_child_self`` sums the self time of the
    :data:`CHILD_LAYERS` spans that ran inside a shard.
    """
    own = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    op_self: dict[tuple[str, str], float] = defaultdict(float)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    units: dict[tuple[str, str], int] = defaultdict(int)
    shard_wall = shard_self = shard_child_self = 0.0
    shards = 0
    for span in spans:
        sid, _parent, layer, op, start, end, key, work = span
        mine = own[sid]
        layer_self[layer] += mine
        op_self[(layer, op)] += mine
        calls[(layer, op)] += 1
        if work is not None:
            units[(layer, op)] += work
        if op == SHARD_OP:
            shards += 1
            shard_wall += end - start
            shard_self += mine
        elif key is not None and layer in CHILD_LAYERS:
            shard_child_self += mine
    return {
        "self": dict(layer_self),
        "op_self": dict(op_self),
        "calls": dict(calls),
        "units": dict(units),
        "shard_wall": shard_wall,
        "shard_self": shard_self,
        "shard_child_self": shard_child_self,
        "shards": shards,
    }
