"""Validation sessions: the unit of work the software tool executes.

A :class:`ValidationSession` declares *what to test*: the test streams to
inject, the programmable checks to run at a tap, and how expected outputs
are derived — explicitly, or from the **reference oracle**, which executes
the same program (and table state) under spec-faithful semantics and
predicts the exact output bytes and egress port. Divergence between the
oracle and the device under test is precisely how NetDebug catches target
bugs like the missing ``reject`` state.

:func:`run_session` is the one generator → device → checker loop: every
stream becomes wire frames once (:meth:`StreamSpec.wires`), each packet's
expectation is armed, the packet is injected, and the window is closed.
Regression replay (:func:`repro.netdebug.regression.replay_suite`) and
campaign shards run through it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

from ..exceptions import NetDebugError
from ..p4.interpreter import Interpreter, Verdict
from ..p4.program import P4Program
from ..target.device import FLOOD_PORT, NetworkDevice
from ..target.pipeline import PacketSnapshot, TAP_INPUT, TAP_OUTPUT
from .checker import CheckRule, ExpectedOutput, OutputChecker
from .generator import StreamSpec, inject_blocks
from .oracle import (
    ORACLES,
    OracleFactory,
    ReferenceOracle,
    StatelessOracle,
    require_known_oracle,
)
from .report import SessionReport

__all__ = [
    "reference_expectation",
    "ReferenceOracle",
    "StatelessOracle",
    "ORACLES",
    "require_known_oracle",
    "ValidationSession",
    "run_session",
]

# Interpreter and FLOOD_PORT are re-exported for historical importers
# (and the test seam that monkeypatches Interpreter.process); the oracle
# implementation itself lives in repro.netdebug.oracle.
_HISTORICAL_EXPORTS = (Interpreter, FLOOD_PORT)


def reference_expectation(
    program: P4Program,
    wire: bytes,
    ingress_port: int = 0,
    label: str = "",
    num_ports: int | None = None,
    timestamp: int = 0,
) -> ExpectedOutput:
    """Predict the spec-correct output for one packet, statelessly.

    A thin shim over :class:`~repro.netdebug.oracle.StatelessOracle` —
    one fresh-state prediction per call, byte-identical to the
    historical function. Anything predicting a packet *sequence* should
    hold an oracle object instead (see :mod:`repro.netdebug.oracle`);
    sequence consumers in this package all do.
    """
    return StatelessOracle(program, num_ports=num_ports).expect(
        wire, ingress_port=ingress_port, timestamp=timestamp, label=label
    )


@dataclass
class ValidationSession:
    """A declarative test specification.

    Attributes:
        name: Session name for reports.
        streams: Test streams to inject (in listed order).
        checks: Programmable rules evaluated on every observed packet.
        tap: Where the checker observes (default: the output tap).
        use_reference_oracle: Derive an expectation per injected packet
            from the spec-faithful interpreter (fresh state per packet
            unless ``oracle_factory`` overrides the construction).
        expectations: Explicit per-packet expectations (overrides the
            oracle when non-empty; must match the packet count, checked
            before the first injection).
        oracle_factory: How to build this session's oracle — called
            once per :func:`run_session` as ``factory(program,
            num_ports=...)`` and fed every packet in injection order.
            Pass :class:`~repro.netdebug.oracle.ReferenceOracle` for
            session-scoped stateful predictions; the default (``None``
            with ``use_reference_oracle``) is
            :class:`~repro.netdebug.oracle.StatelessOracle`, preserving
            the historical per-packet fresh-state semantics.
    """

    name: str
    streams: list[StreamSpec] = dc_field(default_factory=list)
    checks: list[CheckRule] = dc_field(default_factory=list)
    tap: str = TAP_OUTPUT
    use_reference_oracle: bool = False
    expectations: list[ExpectedOutput] = dc_field(default_factory=list)
    oracle_factory: OracleFactory | None = None


def _check_session(device: NetworkDevice, session: ValidationSession) -> None:
    """Refuse a malformed session before any packet is injected.

    A failure half-way through a run leaves earlier packets' effects in
    the device's state, so everything knowable up front is checked
    here: every stream has packets to send, every per-packet ingress
    port exists on the device (directional workloads pick ports without
    knowing it — int_probe spreads over four, tcp_bidir assumes {0, 1}),
    and explicit expectations match the packet count exactly.
    """
    if not session.streams:
        raise NetDebugError(f"session {session.name!r} has no streams")
    port_count = len(device.ports)
    for stream in session.streams:
        if stream.packets is None and stream.template is None:
            raise NetDebugError(
                f"stream {stream.stream_id}: no template or packet list"
            )
        for index, port in enumerate(stream.ingress_ports or ()):
            if not 0 <= port < port_count:
                raise NetDebugError(
                    f"session {session.name!r}: stream "
                    f"{stream.stream_id} ingress_ports[{index}] is "
                    f"{port}, but device {device.name!r} has only "
                    f"{port_count} ports (valid: 0..{port_count - 1})"
                )
    if session.expectations:
        packets = sum(stream.packet_count() for stream in session.streams)
        expected = len(session.expectations)
        if expected != packets:
            relation = "fewer" if expected < packets else "more"
            raise NetDebugError(
                f"session {session.name!r}: {relation} expectations than "
                f"injected packets ({expected} for {packets})"
            )


def _block_eligible(
    device: NetworkDevice, session: ValidationSession
) -> bool:
    """Whether the session can inject its streams in blocks.

    Block mode replays the lockstep protocol after the device has run
    each block, which is only equivalent when nothing needs to
    observe or perturb packets mid-flight: no taps, no armed faults,
    checking at the output tap and input-tap injection. Wrapped streams
    must be fully timed — an untimed probe's wire bytes embed the
    running clock, which is only known once earlier packets have run.
    Whether a block then runs on the batch kernel is the device's call
    (:meth:`~repro.target.device.NetworkDevice.inject_block`).

    A *stateful* ``oracle_factory`` oracle stays block-compatible: the
    device preserves arrival order for exactly the programs whose
    predictions depend on it, and the replay feeds the oracle in
    sequence order.
    """
    if session.tap != TAP_OUTPUT:
        return False
    if device.injector.active or device.pipeline.has_taps():
        return False
    return all(
        stream.inject_at == TAP_INPUT
        and (
            not stream.wrap
            or len(stream.timestamps or ()) >= stream.packet_count()
        )
        for stream in session.streams
    )


def _expectation_source(
    device: NetworkDevice, session: ValidationSession
) -> Callable[[StreamSpec, int, bytes, int], ExpectedOutput | None]:
    """The one rule choosing each packet's expectation.

    Explicit expectations are consumed in injection order (their count
    is checked up front). Otherwise the session's oracle — built once
    per run: ``oracle_factory`` when set, a :class:`StatelessOracle`
    for ``use_reference_oracle`` — predicts every packet in injection
    order, the arrival-order contract stateful oracles require.
    """
    if session.expectations:
        explicit = iter(session.expectations)
        return lambda stream, seq_no, wire, timestamp: next(explicit)
    factory = session.oracle_factory
    if factory is None and session.use_reference_oracle:
        factory = StatelessOracle
    if factory is None:
        return lambda stream, seq_no, wire, timestamp: None
    oracle = factory(device.program, num_ports=len(device.ports))

    def predict(stream, seq_no, wire, timestamp):
        return oracle.expect(
            wire,
            ingress_port=stream.port_at(seq_no),
            timestamp=timestamp,
            label=f"s{stream.stream_id}#{seq_no}",
        )

    return predict


def _observe_output(checker: OutputChecker, run) -> None:
    """Show ``checker`` the output-tap snapshot of a block-run packet.

    The output tap fires only for forwarded packets, so one synthesized
    snapshot per forwarded run is exactly what an attached checker
    would have seen.
    """
    result = run.result
    if result.verdict is not Verdict.FORWARDED:
        return
    if run.output_wire is None:
        run.output_wire = result.packet.pack()
    result.metadata["_cycles_elapsed"] = run.latency_cycles
    checker._on_snapshot(
        PacketSnapshot(
            TAP_OUTPUT, run.output_wire, result.packet, result.metadata, True
        )
    )


def run_session(
    device: NetworkDevice, session: ValidationSession
) -> SessionReport:
    """Execute a session on a device and collect the report.

    Injection and checking run in lockstep: for each test packet the
    expectation is armed, the packet is injected directly into the data
    plane, the tap observation (synchronous in this simulation) consumes
    the expectation, and the window is closed. The report aggregates
    check outcomes, stream statistics, latency samples and all findings.

    When nothing observes or perturbs packets mid-flight — no taps, no
    armed faults, checking at the output tap, input-tap streams, wrapped
    streams fully timed — each stream is injected in blocks
    (:meth:`~repro.target.device.NetworkDevice.inject_block`, on the
    batch kernel when the device has one) and the same arm → observe →
    disarm protocol is replayed over each block's outcomes. The choice
    depends on the session, the taps and the faults, never on the
    engine, and the report is identical byte for byte either way.
    """
    _check_session(device, session)
    checker = OutputChecker(device, tap=session.tap)
    for rule in session.checks:
        checker.add_check(rule)
    expectation_for = _expectation_source(device, session)
    block = _block_eligible(device, session)

    def clock() -> int:
        return device.clock_cycles

    sent_per_stream: dict[int, int] = {}
    if not block:
        checker.attach()
    try:
        for stream in session.streams:
            if block:
                frames = inject_blocks(device, stream, clock)
            else:
                frames = ((t, w, None) for t, w in stream.wires(clock))
            sent = 0
            for seq_no, (timestamp, wire, run) in enumerate(frames):
                expectation = expectation_for(
                    stream, seq_no, wire, timestamp
                )
                if expectation is not None:
                    checker.arm(expectation)
                if block:
                    _observe_output(checker, run)
                else:
                    device.inject(
                        wire, at=stream.inject_at,
                        port=stream.port_at(seq_no), timestamp=timestamp,
                    )
                if expectation is not None:
                    checker.disarm()
                sent += 1
            sent_per_stream[stream.stream_id] = sent
        checker.finalize(
            sent_per_stream if any(s.wrap for s in session.streams) else None
        )
    finally:
        checker.detach()

    return SessionReport(
        session=session.name,
        device=device.name,
        program=device.program.name,
        checks=checker.outcomes(),
        findings=list(checker.findings),
        streams=dict(checker.streams),
        latency=checker.latency,
        injected=sum(sent_per_stream.values()),
        observed=checker.observed,
    )
