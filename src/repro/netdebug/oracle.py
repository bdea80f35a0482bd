"""The reference oracle as a session-scoped protocol object.

Historically the oracle was a bare function
(:func:`repro.netdebug.session.reference_expectation`): every call built
a fresh spec-faithful interpreter, predicted one packet, and threw the
interpreter away. That is exactly right for stateless programs — and
exactly wrong for programs whose behaviour threads *connection state*
across the packet sequence: ``stateful_firewall``'s register-backed flow
table means the spec-correct prediction for an inbound packet depends on
every outbound packet that preceded it.

This module makes the oracle an object with an explicit lifetime:

* :class:`ReferenceOracle` owns one long-lived
  :class:`~repro.p4.interpreter.Interpreter` whose register file (and
  counters) persist across :meth:`~ReferenceOracle.expect` calls. Its
  contract is **arrival order**: feed it packets in exactly the order
  the device under test will process them, with the same per-packet
  ``ingress_port`` and ``timestamp``, and its predictions stay
  byte-exact for stateful programs.
* :class:`StatelessOracle` is the drop-in subclass reproducing the
  historical fresh-state-per-packet semantics byte for byte — the
  default everywhere, so existing campaigns and the committed golden
  baselines are unaffected unless a matrix opts into ``stateful``.

Everything that consumes expectations (sessions, campaigns, regression
recording) goes through an oracle object; ``reference_expectation``
survives only as a thin shim over :class:`StatelessOracle`.
"""

from __future__ import annotations

from typing import Callable

from ..exceptions import NetDebugError
from ..p4.interpreter import Interpreter, Verdict
from ..p4.program import P4Program
from ..target.device import FLOOD_PORT
from .checker import ExpectedOutput

__all__ = [
    "ReferenceOracle",
    "StatelessOracle",
    "ORACLES",
    "OracleFactory",
    "require_known_oracle",
]

#: The signature every oracle factory satisfies: build one oracle for a
#: session over ``program`` on a device with ``num_ports`` ports.
OracleFactory = Callable[..., "ReferenceOracle"]


class ReferenceOracle:
    """A session-scoped spec-faithful oracle with persistent state.

    One instance serves one validation session (or one campaign shard):
    its interpreter's registers and counters evolve with every
    :meth:`expect` call, exactly as the device's runtime state evolves
    with every injected packet. The **arrival-order contract**: call
    :meth:`expect` once per packet, in injection order, with the same
    ``ingress_port`` and ``timestamp`` the device will see — predictions
    for register-dependent behaviour are only meaningful under that
    discipline, which is also why campaign sharding keeps all packets
    of one session on one shard (state cannot thread across shards).
    """

    #: Whether predictions depend on the packets fed before them.
    stateful = True

    def __init__(
        self, program: P4Program, num_ports: int | None = None
    ) -> None:
        self.program = program
        self.num_ports = num_ports
        self._interpreter = self._fresh_interpreter()

    def _fresh_interpreter(self) -> Interpreter:
        return Interpreter(self.program)

    @property
    def interpreter(self) -> Interpreter:
        """The oracle's live interpreter (inspect ``.state`` for the
        predicted register file in tests)."""
        return self._interpreter

    def reset(self) -> None:
        """Forget all threaded state (fresh registers and counters)."""
        self._interpreter = self._fresh_interpreter()

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _process(self, wire: bytes, ingress_port: int, timestamp: int):
        return self._interpreter.process(
            wire, ingress_port=ingress_port, timestamp=timestamp
        )

    def expect(
        self,
        wire: bytes,
        ingress_port: int = 0,
        timestamp: int = 0,
        label: str = "",
    ) -> ExpectedOutput:
        """Predict the spec-correct outcome for the *next* packet.

        A drop/reject prediction becomes a ``forbid`` expectation; a
        unicast forward prediction pins the exact output bytes and
        egress port. ``timestamp`` is the planned injection time in
        device-clock cycles; programs whose output bytes depend on it
        (e.g. ``int_telemetry`` stamping ``ingress_ts``) validate
        byte-exactly only when the oracle sees the same timestamp the
        device will.

        A *flood* prediction (``egress_spec`` equal to
        :data:`~repro.target.device.FLOOD_PORT`) is expanded to the
        per-port expected outputs — every port except the ingress —
        which requires the oracle to know the device's port count:
        constructed without ``num_ports``, a flood prediction raises
        :class:`NetDebugError` instead of silently expanding to zero
        ports (an empty ``egress_ports`` checks nothing, the same false
        confidence the missing-``egress_spec`` guard below exists to
        prevent). Raises :class:`NetDebugError` likewise when the run
        produced no ``egress_spec`` metadata at all.
        """
        result = self._process(wire, ingress_port, timestamp)
        if result.verdict is not Verdict.FORWARDED:
            return ExpectedOutput(
                forbid=True,
                label=label or f"must-drop ({result.verdict.value})",
            )
        egress = result.metadata.get("egress_spec")
        if egress is None:
            raise NetDebugError(
                f"reference oracle forwarded a packet on "
                f"{self.program.name!r} without an egress_spec in its "
                "metadata; the oracle cannot predict an output port"
            )
        if egress == FLOOD_PORT:
            if self.num_ports is None:
                raise NetDebugError(
                    f"reference oracle predicted a flood on "
                    f"{self.program.name!r} but was built without "
                    "num_ports; an empty per-port expansion would "
                    "validate nothing — pass the device's port count"
                )
            ports = tuple(
                p for p in range(self.num_ports) if p != ingress_port
            )
            return ExpectedOutput(
                wire=result.packet.pack(),
                egress_ports=ports,
                label=label or "reference-flood",
            )
        return ExpectedOutput(
            wire=result.packet.pack(),
            egress_port=egress,
            label=label or "reference-output",
        )

    def expect_all(
        self,
        wires,
        ingress_ports=None,
        timestamps=None,
        label: str = "",
    ) -> list[ExpectedOutput]:
        """Predict a whole arrival sequence, in order.

        ``ingress_ports`` / ``timestamps`` cover a prefix (short or
        ``None`` falls back to port 0 / timestamp 0, matching the
        injection paths' fallbacks); ``label`` becomes ``label#i``.
        """
        ports_covered = len(ingress_ports) if ingress_ports else 0
        times_covered = len(timestamps) if timestamps else 0
        return [
            self.expect(
                wire,
                ingress_port=(
                    ingress_ports[i] if i < ports_covered else 0
                ),
                timestamp=timestamps[i] if i < times_covered else 0,
                label=f"{label}#{i}" if label else "",
            )
            for i, wire in enumerate(wires)
        ]


class StatelessOracle(ReferenceOracle):
    """The historical fresh-state-per-packet oracle, byte for byte.

    Every :meth:`~ReferenceOracle.expect` call runs on a brand-new
    interpreter, so predictions are independent of arrival order —
    correct for register-free programs, and the semantics every
    pre-existing campaign, regression suite and golden baseline were
    recorded under.
    """

    stateful = False

    def _process(self, wire: bytes, ingress_port: int, timestamp: int):
        return self._fresh_interpreter().process(
            wire, ingress_port=ingress_port, timestamp=timestamp
        )


#: Named oracle factories scenario matrices reference (``oracle=`` axis).
#: Module-level classes only: campaign job tuples carry the factory into
#: worker processes by pickle-by-reference.
ORACLES: dict[str, OracleFactory] = {
    "stateless": StatelessOracle,
    "stateful": ReferenceOracle,
}


def require_known_oracle(oracle: str, where: str) -> None:
    """Raise :class:`NetDebugError` unless ``oracle`` names a registered
    factory — the oracle-axis counterpart of ``require_known_target``."""
    if oracle not in ORACLES:
        known = ", ".join(sorted(ORACLES))
        raise NetDebugError(
            f"{where} references unknown oracle {oracle!r}; "
            f"registry offers: {known}"
        )
