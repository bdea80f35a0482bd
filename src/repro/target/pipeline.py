"""The staged pipeline: per-stage execution, tap points, fault hooks.

A :class:`StagedPipeline` decomposes a compiled program into hardware
pipeline stages::

    input -> parser -> ingress.0 .. ingress.N -> egress.0 .. -> deparser -> output

``input`` and ``output`` are pure tap points; every other stage carries
semantics. Between stages the pipeline applies injected faults
(:mod:`repro.target.faults`) and publishes :class:`PacketSnapshot`\\ s to
attached taps — this is NetDebug's internal visibility: checkers and
localization observe *between* stages, so execution itself needs no
tracing.

Two execution engines share this machinery:

* the **compiled fast path** (default) runs the closures produced by
  :mod:`repro.target.fastpath` and allocates no trace events at all;
* **tree-walking interpretation** (``use_compiled=False``) drives the
  spec-faithful :class:`~repro.p4.interpreter.Interpreter` stage by
  stage, traces included — the baseline the fast path is measured
  against in ``benchmarks/bench_line_rate.py``.

Packets may be injected at any stage (``inject_at``), which is how
NetDebug's generator bypasses the external ports and how active fault
bisection brackets a broken stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import TargetError
from ..p4.actions import CountPacket
from ..p4.control import Seq
from ..p4.expr import EvalContext
from ..p4.interpreter import (
    ExitPipeline,
    Interpreter,
    PipelineResult,
    RuntimeState,
    Trace,
    Verdict,
)
from ..packet.packet import Packet
from ..p4.types import standard_metadata_defaults
from .compiler import CompiledProgram
from .fastpath import ExecState, control_stages
from .faults import FaultInjector, FaultKind
from .limits import ArchLimits

__all__ = [
    "TAP_INPUT",
    "TAP_OUTPUT",
    "PacketSnapshot",
    "TargetRun",
    "StagedPipeline",
]

TAP_INPUT = "input"
TAP_OUTPUT = "output"

#: Stage descriptor kinds.
_KIND_INPUT = 0
_KIND_PARSER = 1
_KIND_STMT = 2
_KIND_DEPARSER = 3
_KIND_OUTPUT = 4

_EMPTY_SET: frozenset = frozenset()


@dataclass
class PacketSnapshot:
    """What a tap sees as a packet passes its stage.

    ``metadata`` is the live metadata mapping (including the tap-local
    ``_cycles_elapsed`` counter); ``alive`` is False when the packet
    died in this stage, with ``verdict_hint`` naming why
    (``parser_reject``, ``drop``, ``blackhole``).
    """

    stage: str
    wire: bytes | None
    packet: Packet | None
    metadata: dict
    alive: bool
    verdict_hint: str = ""


@dataclass
class TargetRun:
    """Everything one pipeline traversal produced."""

    result: PipelineResult
    stages_traversed: list[str]
    died_at: str | None
    latency_cycles: int
    injected_at: str = TAP_INPUT
    #: Serialized output, cached when an output tap already packed it.
    output_wire: bytes | None = None


class _FaultAwareInterpreter(Interpreter):
    """Tree-walking engine extended with stuck-table / frozen-counter
    faults. It runs under the compiled artifact's deviation model, so
    both execution modes stay behaviourally identical by construction."""

    def __init__(self, program, state, model, pipeline):
        super().__init__(program, state=state, model=model)
        self._pipeline = pipeline

    def apply_table(self, control, table_name, ctx, trace):
        if table_name in self._pipeline._current_stuck:
            table = control.table(table_name)
            trace.add(
                "table_apply",
                f"{table_name}: stuck-at-miss -> {table.default_action}",
                stage=control.name,
            )
            action = table.action(table.default_action)
            self.run_action(
                control.name, action, table.default_action_data, ctx, trace
            )
            return False
        return super().apply_table(control, table_name, ctx, trace)

    def run_primitive(self, stage, primitive, binding, ctx, trace):
        if (
            isinstance(primitive, CountPacket)
            and primitive.name in self._pipeline._current_frozen
        ):
            return
        super().run_primitive(stage, primitive, binding, ctx, trace)


class StagedPipeline:
    """Executes one compiled program as a tapped, faultable pipeline."""

    def __init__(
        self,
        compiled: CompiledProgram,
        limits: ArchLimits,
        state: RuntimeState | None = None,
        injector: FaultInjector | None = None,
        use_compiled: bool = True,
    ):
        self.compiled = compiled
        self.program = compiled.program
        self.limits = limits
        self.state = state or RuntimeState.for_program(self.program)
        self.injector = injector
        self.use_compiled = use_compiled
        self._fast = compiled.fast
        self._interp = _FaultAwareInterpreter(
            self.program, self.state, compiled.model, pipeline=self
        )
        self._current_stuck: frozenset | set = _EMPTY_SET
        self._current_frozen: frozenset | set = _EMPTY_SET

        # Stage topology: (name, kind, fast_fn, control, stmt, cost,
        # barrier). ``cost`` is the fixed cycle cost, or None for the
        # frame-size-dependent parser/deparser stages (resolved once per
        # packet). ``barrier`` marks the points where a set drop flag
        # discards the packet — entering egress and entering the
        # deparser — mirroring the interpreter, which always runs a
        # control to completion and only then honors ``drop`` (a later
        # statement may clear it, and post-drop statements still update
        # counters/registers).
        stages: list[tuple] = [
            (TAP_INPUT, _KIND_INPUT, None, None, None, 1, False)
        ]
        stages.append(("parser", _KIND_PARSER, None, None, None, None, False))
        for control, fast_stages in (
            (self.program.ingress,
             self._fast.ingress_stages if self._fast else None),
            (self.program.egress,
             self._fast.egress_stages if self._fast else None),
        ):
            for index, stmt in enumerate(control_stages(control)):
                fast_fn = fast_stages[index] if fast_stages else None
                stages.append(
                    (f"{control.name}.{index}", _KIND_STMT, fast_fn,
                     control, stmt, 12,
                     control.name == "egress" and index == 0)
                )
        stages.append(
            ("deparser", _KIND_DEPARSER, None, None, None, None, True)
        )
        stages.append((TAP_OUTPUT, _KIND_OUTPUT, None, None, None, 1, False))
        self._stages = stages
        self._stage_names = [s[0] for s in stages]
        self._stage_index = {
            name: index for index, name in enumerate(self._stage_names)
        }
        self._parser_index = self._stage_index["parser"]
        self._taps: dict[str, list] = {name: [] for name in self._stage_names}

        # Per-packet metadata template: standard + program metadata, all
        # zero, copied per packet instead of rebuilt key by key.
        template = standard_metadata_defaults()
        for name in self.program.env.metadata:
            template.setdefault(name, 0)
        self._metadata_template = template

    # ------------------------------------------------------------------
    # Topology and management
    # ------------------------------------------------------------------
    def stage_names(self) -> list[str]:
        """All stage/tap names, in traversal order."""
        return list(self._stage_names)

    def attach_tap(self, stage: str, callback) -> None:
        """Attach ``callback`` to observe snapshots at ``stage``."""
        try:
            self._taps[stage].append(callback)
        except KeyError:
            raise TargetError(f"no tap point {stage!r}") from None

    def detach_tap(self, stage: str, callback) -> None:
        try:
            callbacks = self._taps[stage]
        except KeyError:
            raise TargetError(f"no tap point {stage!r}") from None
        try:
            callbacks.remove(callback)
        except ValueError:
            raise TargetError(
                f"callback is not attached at tap {stage!r}"
            ) from None

    def has_taps(self) -> bool:
        """True when any tap is attached anywhere (the batch kernel
        cannot publish snapshots, so the device falls back to the
        per-packet path while observers are present)."""
        return any(self._taps.values())

    def stage_cycles(self, stage: str, frame_bytes: int) -> int:
        """Deterministic cycle cost of one stage for one frame."""
        if stage in (TAP_INPUT, TAP_OUTPUT):
            return 1
        if stage in ("parser", "deparser"):
            words = -(-max(1, frame_bytes) // self.limits.bus_bytes)
            return 4 + words
        return 12  # one match-action stage

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def process(
        self,
        wire: bytes,
        inject_at: str = TAP_INPUT,
        ingress_port: int = 0,
        timestamp: int = 0,
    ) -> TargetRun:
        """Run one frame through the pipeline starting at ``inject_at``.

        The frame is always parsed (a mid-pipeline injection still needs
        the parsed representation, and a spec-honoring target still
        rejects malformed input); stages upstream of the injection
        point are *not* traversed, so their faults and taps never see
        the packet.
        """
        try:
            start = self._stage_index[inject_at]
        except KeyError:
            raise TargetError(
                f"unknown injection point {inject_at!r}"
            ) from None

        metadata = dict(self._metadata_template)
        metadata["ingress_port"] = ingress_port
        metadata["packet_length"] = len(wire) & 0xFFFF
        metadata["ingress_global_timestamp"] = timestamp & 0xFFFFFFFFFFFF

        use_compiled = self.use_compiled
        trace = Trace()
        if use_compiled:
            packet, payload, accepted = self._fast.parse(wire, metadata)
        else:
            packet, payload, accepted = self._interp.run_parser(
                wire, metadata, trace
            )
        if accepted:
            packet.payload = payload

        # Malformed frame injected downstream of the parser stage: the
        # parsed representation does not exist, so the run ends as a
        # parser rejection without traversing anything.
        if not accepted and start > self._parser_index:
            return TargetRun(
                PipelineResult(Verdict.PARSER_REJECTED, None, metadata, trace),
                [],
                "parser",
                self.stage_cycles("parser", len(wire)),
                inject_at,
            )

        injector = self.injector
        if injector is not None and injector._active:
            faulty = True
            stuck = injector.stuck_tables()
            frozen = injector.frozen_counters()
        else:
            faulty = False
            stuck = frozen = _EMPTY_SET
        # The tree-walking engine consults these via the pipeline (the
        # compiled engine snapshots them in ExecState); save/restore so
        # a reentrant process() from a tap callback cannot clobber the
        # outer run's active fault view.
        previous_stuck = self._current_stuck
        previous_frozen = self._current_frozen
        self._current_stuck = stuck
        self._current_frozen = frozen

        if use_compiled:
            exec_state = ExecState(
                packet, metadata, self.state.counters,
                self.state.registers, stuck, frozen,
            )
            ctx = None
        else:
            exec_state = None
            ctx = EvalContext(packet, metadata)

        taps = self._taps
        frame_bytes = len(wire)
        # Parser/deparser cost for this frame, resolved once.
        word_cost = self.stage_cycles("parser", frame_bytes)
        cycles = 0
        traversed: list[str] = []
        alive = True
        hint = ""
        verdict: Verdict | None = None
        died_at: str | None = None
        out_packet: Packet | None = None
        output_wire: bytes | None = None
        exited = False

        drop_stage: str | None = None
        for index in range(start, len(self._stages)):
            name, kind, fast_fn, control, stmt, cost, barrier = \
                self._stages[index]

            # Drop barrier: a packet whose drop flag survived the
            # preceding control block is discarded here, before this
            # stage would run — the interpreter's "skip egress, don't
            # deparse" semantics.
            if barrier and alive and metadata["drop"]:
                alive = False
                hint = "drop"
                verdict = Verdict.DROPPED
                died_at = drop_stage or (traversed[-1] if traversed else name)
                break

            traversed.append(name)
            cycles += word_cost if cost is None else cost

            if kind == _KIND_STMT:
                if alive and not exited:
                    try:
                        if use_compiled:
                            if fast_fn is not None:
                                fast_fn(exec_state)
                        else:
                            self._interp.exec_stmt(control, stmt, ctx, trace)
                    except ExitPipeline:
                        exited = True
                    # Track where the (still-set) drop flag originated;
                    # a later statement may clear it again.
                    if metadata["drop"]:
                        if drop_stage is None:
                            drop_stage = name
                    else:
                        drop_stage = None
            elif kind == _KIND_PARSER:
                if not accepted:
                    alive = False
                    hint = "parser_reject"
                    verdict = Verdict.PARSER_REJECTED
            elif kind == _KIND_DEPARSER:
                if alive:
                    if use_compiled:
                        out_packet = self._fast.deparse(packet)
                    else:
                        out_packet = self._interp.deparse(packet, trace)
                    metadata["egress_port"] = metadata["egress_spec"]
            elif kind == _KIND_OUTPUT:
                if alive and out_packet is None:
                    # Injected past the deparser: still serialize.
                    if use_compiled:
                        out_packet = self._fast.deparse(packet)
                    else:
                        out_packet = self._interp.deparse(packet, trace)
                    metadata["egress_port"] = metadata["egress_spec"]

            if faulty:
                for fault in injector.faults_at(name):
                    fault_kind = fault.kind
                    subject = out_packet if out_packet is not None else packet
                    if fault_kind is FaultKind.BLACKHOLE:
                        if alive and (
                            fault.predicate is None
                            or fault.predicate(subject)
                        ):
                            alive = False
                            hint = "blackhole"
                            verdict = Verdict.DROPPED
                    elif fault_kind is FaultKind.CORRUPT_FIELD:
                        _corrupt_field(subject, fault)
                        if subject is not packet:
                            _corrupt_field(packet, fault)
                    elif fault_kind is FaultKind.MISROUTE:
                        if fault.port is not None:
                            metadata["egress_spec"] = fault.port & 0x1FF
                            metadata["egress_port"] = metadata["egress_spec"]
                    elif fault_kind is FaultKind.TRUNCATE_PAYLOAD:
                        if fault.length is not None:
                            subject.payload = subject.payload[:fault.length]
                            if subject is not packet:
                                packet.payload = packet.payload[:fault.length]
                    elif fault_kind is FaultKind.EXTRA_LATENCY:
                        cycles += fault.extra_cycles
                    # TABLE_STUCK_MISS / COUNTER_FREEZE act during stage
                    # execution via the stuck/frozen sets.

            callbacks = taps[name]
            if callbacks:
                metadata["_cycles_elapsed"] = cycles
                # A drop-marked packet is still in flight (a later
                # statement may clear the flag), but taps report it as
                # dead-in-this-stage so passive localization points at
                # the stage that commanded the drop.
                if alive and metadata["drop"]:
                    snapshot_alive = False
                    snapshot_hint = "drop"
                else:
                    snapshot_alive = alive
                    snapshot_hint = hint
                if kind == _KIND_OUTPUT:
                    if out_packet is not None and alive:
                        output_wire = out_packet.pack()
                    snapshot = PacketSnapshot(
                        name, output_wire, out_packet, metadata,
                        snapshot_alive, snapshot_hint,
                    )
                else:
                    snapshot = PacketSnapshot(
                        name, wire, packet, metadata,
                        snapshot_alive, snapshot_hint,
                    )
                for callback in list(callbacks):
                    callback(snapshot)

            if not alive:
                died_at = name
                break

        if verdict is None:
            verdict = Verdict.FORWARDED
            if out_packet is None:
                out_packet = (
                    self._fast.deparse(packet)
                    if use_compiled
                    else self._interp.deparse(packet, trace)
                )
                metadata["egress_port"] = metadata["egress_spec"]
            result_packet = out_packet
        else:
            result_packet = None

        self._current_stuck = previous_stuck
        self._current_frozen = previous_frozen

        result = PipelineResult(verdict, result_packet, metadata, trace)
        return TargetRun(
            result, traversed, died_at, cycles, inject_at, output_wire
        )


def _corrupt_field(target: Packet, fault) -> None:
    """Apply a CORRUPT_FIELD fault to ``target`` (no-op when absent)."""
    if fault.header is None or fault.field is None:
        return
    header = target.get_or_none(fault.header)
    if header is None or not header.valid:
        return
    if not header.spec.has_field(fault.field):
        return
    width = header.spec.field(fault.field).width
    header._values[fault.field] = (
        header._values[fault.field] ^ fault.mask
    ) & ((1 << width) - 1)
