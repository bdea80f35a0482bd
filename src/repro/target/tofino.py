"""The Tofino-like switch-ASIC target — a *differently* deviant backend.

Where the SDNet-like backend silently forgets the parser ``reject``
state, this toolchain implements ``reject`` faithfully and deviates on
two other axes instead:

* **TCAM quantization** (:data:`TCAM_QUANTIZED`) — the per-stage TCAM
  only implements patterns on power-of-two boundaries. Ternary masks
  are truncated to their leading contiguous run of care bits and range
  bounds are widened to the smallest covering aligned block
  (:func:`repro.bitutils.quantize_ternary_mask` /
  :func:`repro.bitutils.quantize_range`), so installed entries match a
  *superset* of the traffic the control plane asked for.
* **Deparse truncation** (:data:`DEPARSE_FIELD_BUDGET_EXCEEDED`) — the
  deparser has a fixed header-field budget per packet
  (:data:`DEPARSE_FIELD_BUDGET`); headers past the budget in the emit
  order are silently not serialized, so forwarded packets leave the
  device with bytes missing.

Both deviations are recorded as ground-truth tags on the compiled
artifact (``silent_deviations``) but — deliberately — never surface in
the user-visible diagnostics, mirroring :mod:`repro.target.sdnet`. Only
differential testing against the spec oracle exposes them, which is the
point: with two backends deviating in *different* stages, a 3-way
(program × target) sweep can localize which backend is broken and why
(:mod:`repro.netdebug.localization`).
"""

from __future__ import annotations

from ..p4.program import P4Program
from ..p4.table import MatchKind
from .compiler import TargetCompiler
from .device import NetworkDevice
from .limits import TOFINO_LIMITS

__all__ = [
    "TCAM_QUANTIZED",
    "DEPARSE_FIELD_BUDGET",
    "DEPARSE_FIELD_BUDGET_EXCEEDED",
    "TofinoCompiler",
    "make_tofino_device",
]

#: Ground-truth tag: ternary/range patterns quantized to power-of-two
#: boundaries by the per-stage TCAM.
TCAM_QUANTIZED = "ternary-range-quantized-pow2"

#: Ground-truth tag: headers past the deparser's field budget silently
#: not serialized.
DEPARSE_FIELD_BUDGET_EXCEEDED = "deparse-field-budget-exceeded"

#: Header-field budget of the generated deparser. Ethernet (3 fields)
#: plus IPv4 (13 fields) already exceeds it, so any program that emits
#: an L3 header forwards truncated packets on this target.
DEPARSE_FIELD_BUDGET = 14


class TofinoCompiler(TargetCompiler):
    """Tofino-like compiler: deep pipeline, quantized TCAM, short deparser.

    ``reject`` is honored — this backend's silent deviations are the
    TCAM quantization and the deparse field budget, both encoded in the
    compiled artifact's behavioural model and tagged in
    ``silent_deviations``, never in diagnostics.
    """

    honor_reject = True
    quantize_tcam = True
    deparse_field_budget = DEPARSE_FIELD_BUDGET

    def __init__(self) -> None:
        super().__init__(TOFINO_LIMITS)

    def deviations(self, program: P4Program) -> list[str]:
        tags: list[str] = []
        if any(
            key.kind in (MatchKind.TERNARY, MatchKind.RANGE)
            for table in program.all_tables().values()
            for key in table.keys
        ):
            tags.append(TCAM_QUANTIZED)
        emitted = program.deparser.emit_prefix(
            program.env, self.deparse_field_budget
        )
        if len(emitted) < len(program.deparser.emit_order):
            tags.append(DEPARSE_FIELD_BUDGET_EXCEEDED)
        return tags


def make_tofino_device(
    name: str = "tofino0",
    num_ports: int = 16,
    engine: str = "closure",
) -> NetworkDevice:
    """A Tofino-programmed switch: 16 ports, quantizing/truncating datapath."""
    return NetworkDevice(
        name,
        TofinoCompiler(),
        num_ports=num_ports,
        engine=engine,
    )
