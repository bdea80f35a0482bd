"""The in-device test packet generator.

The generator is one of NetDebug's two hardware modules (Figure 1). It is
*programmable*: a :class:`StreamSpec` describes a stream of test packets —
a template, field sweeps or fuzzing over template fields, rate, count,
wrapping mode and injection point — and the generator materializes and
injects them directly into the data plane under test, bypassing the
external interfaces.

In the paper the generator is itself written in P4; here its
programmability is expressed as declarative stream specifications whose
field programs (sweeps/fuzz) reference the same dotted ``header.field``
paths P4 uses. The substitution is documented in DESIGN.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterator

from ..exceptions import NetDebugError
from ..packet.checksum import update_all_checksums
from ..packet.packet import Packet
from ..target.device import NetworkDevice
from ..target.pipeline import TAP_INPUT, TargetRun
from .testpacket import make_probe

__all__ = ["FieldSweep", "FieldFuzz", "StreamSpec", "PacketGenerator"]


@dataclass(frozen=True)
class FieldSweep:
    """Sweep a template field through explicit values or a range.

    ``path`` is a dotted ``header.field`` reference into the template.
    Exactly one of ``values`` or (``start``, ``stop``, ``step``) is used.
    The sweep recycles when the stream is longer than the value list.
    """

    path: str
    values: tuple[int, ...] = ()
    start: int = 0
    stop: int = 0
    step: int = 1

    def value_at(self, index: int) -> int:
        if self.values:
            return self.values[index % len(self.values)]
        span = max(1, (self.stop - self.start + self.step - 1) // self.step)
        return self.start + (index % span) * self.step


@dataclass(frozen=True)
class FieldFuzz:
    """Randomize a template field uniformly over its width (seeded)."""

    path: str
    seed: int = 0


@dataclass
class StreamSpec:
    """One programmable test stream.

    Attributes:
        stream_id: Identifier carried in probe headers.
        template: The base packet every generated packet starts from.
        count: Packets to generate.
        sweeps: Field sweeps applied per packet index.
        fuzzes: Fields randomized per packet.
        wrap: When True the (possibly modified) template is carried
            inside a NetDebug probe; when False it is injected bare and
            the checker correlates by order.
        inject_at: Pipeline tap where packets enter (default: input).
        rate_pps: Injection rate for timed runs; ignored by the
            synchronous path.
        fix_checksums: Recompute IP/L4 checksums after sweeps/fuzzing.
        packets: Alternative to template+sweeps — an explicit list of
            packets (takes precedence when set). Entries may be
            :class:`Packet` objects or wire ``bytes``; bytes are
            injected exactly as given.
        timestamps: Optional per-packet injection timestamps (one per
            packet, device-clock units). Workloads with their own
            arrival process (e.g. poisson) carry it here; packets
            beyond the list fall back to the device clock.
        ingress_ports: Optional per-packet ingress ports. Bidirectional
            workloads (e.g. ``tcp_bidir``) carry the direction of each
            packet here; packets beyond the list fall back to port 0,
            the historical fixed ingress.
    """

    stream_id: int
    template: Packet | None = None
    count: int = 1
    sweeps: list[FieldSweep] = dc_field(default_factory=list)
    fuzzes: list[FieldFuzz] = dc_field(default_factory=list)
    wrap: bool = False
    inject_at: str = TAP_INPUT
    rate_pps: float = 1e6
    fix_checksums: bool = True
    packets: list[Packet | bytes] | None = None
    timestamps: list[int] | None = None
    ingress_ports: list[int] | None = None

    def timestamp_at(self, seq_no: int, default: int) -> int:
        """The injection timestamp for packet ``seq_no``: the stream's
        own arrival process when it defines one, else ``default`` (the
        device clock). Every injection path reads it through
        :meth:`wires`, so their fallback semantics cannot diverge."""
        if self.timestamps is not None and seq_no < len(self.timestamps):
            return self.timestamps[seq_no]
        return default

    def port_at(self, seq_no: int) -> int:
        """The ingress port for packet ``seq_no``: the stream's own
        per-packet ports when it defines them, else port 0 — the same
        fallback every injection path uses, so the oracle and the
        device always agree on where a packet entered."""
        if (
            self.ingress_ports is not None
            and seq_no < len(self.ingress_ports)
        ):
            return self.ingress_ports[seq_no]
        return 0

    def packet_count(self) -> int:
        """How many packets the stream injects."""
        return len(self.packets) if self.packets is not None else self.count

    def wires(self, clock: Callable[[], int]) -> Iterator[tuple[int, bytes]]:
        """Yield ``(timestamp, wire)`` per packet: the one place a
        stream becomes wire frames.

        ``clock()`` is read as each packet is reached, so a consumer
        that injects a frame before advancing stamps it at its own
        injection (see :meth:`timestamp_at`). Bytes entries pass through
        unchanged; a wrapped stream puts each frame in a probe carrying
        that timestamp.
        """
        entries = (
            self.packets if self.packets is not None else self.materialize()
        )
        for seq_no, entry in enumerate(entries):
            timestamp = self.timestamp_at(seq_no, clock())
            wire = entry if isinstance(entry, bytes) else entry.pack()
            if self.wrap:
                wire = make_probe(
                    self.stream_id, seq_no, timestamp=timestamp, inner=wire
                ).pack()
            yield timestamp, wire

    def materialize(self) -> Iterator[Packet]:
        """Produce the stream's packets, applying sweeps and fuzzing."""
        if self.packets is not None:
            yield from (p.copy() for p in self.packets)
            return
        if self.template is None:
            raise NetDebugError(
                f"stream {self.stream_id} has neither template nor packets"
            )
        rngs = {
            fuzz.path: random.Random(fuzz.seed ^ self.stream_id)
            for fuzz in self.fuzzes
        }
        for index in range(self.count):
            packet = self.template.copy()
            for sweep in self.sweeps:
                packet.set_field(sweep.path, sweep.value_at(index))
            for fuzz in self.fuzzes:
                header_name, _, field_name = fuzz.path.partition(".")
                header = packet.get(header_name)
                width = header.spec.field(field_name).width
                header[field_name] = rngs[fuzz.path].getrandbits(width)
            if self.fix_checksums and packet.has("ipv4"):
                update_all_checksums(packet)
            yield packet


#: Frames per :meth:`~repro.target.device.NetworkDevice.inject_block`
#: call. Checking each block before the next keeps fewer pipeline results
#: alive than one young gc generation holds; a whole 200-packet stream
#: gets promoted and rescanned, about 3x the gc work of lockstep.
BLOCK_FRAMES = 16


def inject_blocks(
    device: NetworkDevice, stream: StreamSpec, clock: Callable[[], int]
) -> Iterator[tuple[int, bytes, TargetRun]]:
    """Inject ``stream`` at the input tap in blocks of
    :data:`BLOCK_FRAMES`, yielding ``(timestamp, wire, run)`` per frame;
    each block continues the clock, as one whole-stream block would."""
    wires = [wire for _, wire in stream.wires(clock)]
    times, ports = stream.timestamps, stream.ingress_ports
    for start in range(0, len(wires), BLOCK_FRAMES):
        cut = slice(start, start + BLOCK_FRAMES)
        outcomes = device.inject_block(
            wires[cut],
            timestamps=times and times[cut],
            ports=ports and ports[cut],
        )
        for (timestamp, run), wire in zip(outcomes, wires[cut]):
            yield timestamp, wire, run


@dataclass
class InjectionRecord:
    """Bookkeeping for one injected test packet."""

    stream_id: int
    seq_no: int
    wire: bytes
    timestamp: int
    run: TargetRun | None = None


class PacketGenerator:
    """Materializes streams and injects them into a device's pipeline."""

    def __init__(self, device: NetworkDevice):
        self._device = device
        self._streams: dict[int, StreamSpec] = {}
        self.injected: list[InjectionRecord] = []

    def configure(self, stream: StreamSpec) -> None:
        """Install (or replace) a stream specification."""
        if stream.packets is None and stream.template is None:
            raise NetDebugError(
                f"stream {stream.stream_id}: no template or packet list"
            )
        self._streams[stream.stream_id] = stream

    def remove_stream(self, stream_id: int) -> None:
        try:
            del self._streams[stream_id]
        except KeyError:
            raise NetDebugError(f"no stream {stream_id}") from None

    @property
    def streams(self) -> list[StreamSpec]:
        return list(self._streams.values())

    def _stream(self, stream_id: int) -> StreamSpec:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise NetDebugError(f"no stream {stream_id}") from None

    def _clock(self) -> int:
        return self._device.clock_cycles

    # ------------------------------------------------------------------
    # Synchronous injection (functional testing)
    # ------------------------------------------------------------------
    def run_stream(
        self,
        stream_id: int,
        on_injected: Callable[[InjectionRecord], None] | None = None,
    ) -> list[InjectionRecord]:
        """Inject every packet of one stream back-to-back.

        Each injected packet's :class:`TargetRun` is recorded, mirroring
        the hardware generator's completion feedback to the software tool.
        """
        stream = self._stream(stream_id)
        # Bare input-tap streams with no per-packet callback go to the
        # device in blocks — the shape a hardware generator has,
        # emitting a compiled stream program back to back. The device
        # decides whether a block runs on the batch kernel.
        if (
            not stream.wrap
            and on_injected is None
            and stream.inject_at == TAP_INPUT
        ):
            records = [
                InjectionRecord(stream.stream_id, seq_no, wire, timestamp, run)
                for seq_no, (timestamp, wire, run) in enumerate(
                    inject_blocks(self._device, stream, self._clock)
                )
            ]
            self.injected.extend(records)
            return records

        records: list[InjectionRecord] = []
        for seq_no, (timestamp, wire) in enumerate(
            stream.wires(self._clock)
        ):
            record = InjectionRecord(
                stream.stream_id, seq_no, wire, timestamp
            )
            record.run = self._device.inject(
                wire, at=stream.inject_at, port=stream.port_at(seq_no),
                timestamp=timestamp,
            )
            records.append(record)
            self.injected.append(record)
            if on_injected is not None:
                on_injected(record)
        return records

    def run_all(self) -> list[InjectionRecord]:
        """Inject every configured stream, in stream-id order."""
        records: list[InjectionRecord] = []
        for stream_id in sorted(self._streams):
            records.extend(self.run_stream(stream_id))
        return records

    # ------------------------------------------------------------------
    # Timed injection (performance testing under a simulator)
    # ------------------------------------------------------------------
    def schedule_stream(self, stream_id: int, sim, start_ns: float = 0.0):
        """Schedule a stream's injections on a simulator at its rate.

        The events fire in sequence order, so each one takes the next
        frame of :meth:`StreamSpec.wires` — stamped with the device
        clock when it fires, unless the stream carries its own times.
        """
        stream = self._stream(stream_id)
        gap = 1e9 / stream.rate_pps
        frames = stream.wires(self._clock)
        count = stream.packet_count()

        for seq_no in range(count):
            def inject(seq_no=seq_no) -> None:
                timestamp, wire = next(frames)
                record = InjectionRecord(
                    stream.stream_id, seq_no, wire, timestamp
                )
                record.run = self._device.inject(
                    wire, at=stream.inject_at, port=stream.port_at(seq_no),
                    timestamp=timestamp,
                )
                self.injected.append(record)

            sim.schedule_at(start_ns + seq_no * gap, inject)
        return count
