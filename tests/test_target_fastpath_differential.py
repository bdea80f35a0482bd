"""Differential property suite: compiled fast path ≡ tree-walking.

The tentpole perf claim only counts if the compiled execution engine is
*semantically invisible*: for every stdlib program, on both targets,
over a workload mixing valid, malformed, multi-protocol and degenerate
frames, the closure-compiled pipeline must produce exactly the verdicts,
output bytes, egress ports and stateful-object contents that tree-walking
interpretation produces — and, for the reference target, exactly what
the raw spec interpreter produces.
"""

import pytest

from repro.controlplane import RuntimeAPI
from repro.p4.interpreter import Interpreter, RuntimeState, Verdict
from repro.p4.stdlib import PROGRAMS
from repro.p4.stdlib_ext import int_telemetry, stateful_firewall
from repro.packet.builder import ethernet_frame, tcp_packet, udp_packet, vlan_tagged
from repro.packet.headers import ipv4, mac
from repro.sim.traffic import default_flow, imix_stream, malformed_mix
from repro.target.reference import ReferenceCompiler, make_reference_device
from repro.target.sdnet import SDNetCompiler

ALL_FACTORIES = dict(PROGRAMS)
ALL_FACTORIES["stateful_firewall"] = stateful_firewall
ALL_FACTORIES["int_telemetry"] = int_telemetry


def workload() -> list[bytes]:
    """Valid, malformed, multi-protocol and degenerate frames."""
    frames = [
        packet.pack()
        for packet, _ in malformed_mix(default_flow(), 24, 0.5, seed=2018)
    ]
    frames += [p.pack() for p in imix_stream(default_flow(), 12, seed=7)]
    frames += [
        tcp_packet(ipv4("10.1.2.3"), ipv4("10.3.2.1"), 80, 4242).pack(),
        vlan_tagged(
            udp_packet(ipv4("10.0.0.9"), ipv4("10.9.0.0"), 53, 99), vid=5
        ).pack(),
        ethernet_frame(
            mac("02:00:00:00:00:02"), mac("02:00:00:00:00:01"), 0x0800
        ).pack(),
        ethernet_frame(1, 2, 0x88B5, payload=b"probe-ish").pack(),
    ]
    return frames


def install_entries(device) -> None:
    """Exercise the table paths: entries for every stdlib table shape."""
    control: RuntimeAPI = device.control_plane
    program = device.program
    tables = program.all_tables()
    if "ipv4_lpm" in tables:
        control.table_add(
            "ipv4_lpm", "route", [(ipv4("10.0.0.0"), 8)],
            [mac("aa:bb:cc:dd:ee:01"), 2],
        )
    if "dmac" in tables:
        control.table_add(
            "dmac", "forward", [mac("02:00:00:00:00:02")], [1]
        )
    if "acl" in tables:
        control.table_add(
            "acl", "deny",
            [
                (ipv4("10.0.0.0"), 0xFF000000),
                (0, 0),
                (17, 0xFF),
                (0, 0),
                (53, 0xFFFF),
            ],
            [],
            priority=10,
        )
    if "fwd" in tables:
        control.table_add(
            "fwd", "forward", [mac("02:00:00:00:00:02")], [3]
        )
    if "fec" in tables:
        control.table_add(
            "fec", "push_label", [(ipv4("10.0.0.0"), 8)], [42, 2]
        )
    if "vlan_fwd" in tables:
        control.table_add(
            "vlan_fwd", "forward", [5, mac("02:00:00:00:00:02")], [2]
        )
    if "ecmp_group" in tables:
        for bucket in range(4):
            control.table_add(
                "ecmp_group", "to_nexthop", [bucket],
                [mac("aa:00:00:00:00:01") + bucket, bucket],
            )


def run_one(device, wire: bytes, timestamp=None):
    """One frame through a device; normalizes outcome + raised errors."""
    try:
        run = device.inject(wire, timestamp=timestamp)
    except Exception as exc:  # deviant targets can hit runtime errors
        return ("raised", type(exc).__name__, str(exc))
    result = run.result
    return (
        result.verdict.value,
        result.metadata.get("egress_spec"),
        result.packet.pack() if result.packet is not None else None,
        run.died_at,
        run.latency_cycles,
    )


@pytest.mark.parametrize("compiler_cls", [ReferenceCompiler, SDNetCompiler])
@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
def test_compiled_matches_interpreted(name, compiler_cls):
    """Identical verdicts/outputs/state across every program and target."""
    from repro.exceptions import CompileError
    from repro.target.device import NetworkDevice

    devices = []
    for engine in ("closure", "tree"):
        device = NetworkDevice(
            f"diff-{name}-{engine}", compiler_cls(), num_ports=8,
            engine=engine,
        )
        try:
            device.load(ALL_FACTORIES[name]())
        except CompileError:
            pytest.skip(f"{name} does not fit {compiler_cls.__name__}")
        install_entries(device)
        devices.append(device)
    compiled_device, interpreted_device = devices

    for index, wire in enumerate(workload()):
        fast = run_one(compiled_device, wire)
        slow = run_one(interpreted_device, wire)
        assert fast == slow, f"{name} frame {index}: {fast} != {slow}"

    # Stateful objects must agree cell for cell after the whole run.
    fast_state = compiled_device.pipeline.state
    slow_state = interpreted_device.pipeline.state
    assert fast_state.counters == slow_state.counters
    assert fast_state.registers == slow_state.registers


@pytest.mark.parametrize("name", sorted(ALL_FACTORIES))
def test_compiled_matches_spec_interpreter(name):
    """On the reference target the fast path IS the spec semantics."""
    device = make_reference_device(f"spec-{name}")
    device.load(ALL_FACTORIES[name]())
    install_entries(device)
    program = ALL_FACTORIES[name]()
    # Mirror the device's installed entries onto the bare program.
    shadow = type(
        "Shadow", (), {"control_plane": None, "program": program}
    )()
    shadow.control_plane = RuntimeAPI(
        program, RuntimeState.for_program(program)
    )
    install_entries(shadow)
    interpreter = Interpreter(program, honor_reject=True)

    for index, wire in enumerate(workload()):
        # Pin the timestamp: the device clock advances per packet, the
        # bare interpreter's defaults to zero.
        fast = run_one(device, wire, timestamp=0)
        try:
            result = interpreter.process(wire)
        except Exception as exc:
            assert fast[0] == "raised", f"{name} frame {index}"
            assert fast[1] == type(exc).__name__
            continue
        assert fast[0] == result.verdict.value, f"{name} frame {index}"
        if result.verdict is Verdict.FORWARDED:
            assert fast[1] == result.metadata["egress_spec"]
            assert fast[2] == result.packet.pack()


def test_drop_then_clear_matches_interpreter():
    """A later ingress statement may clear the drop flag; the staged
    pipeline must honor the whole control block like the interpreter
    does (drop is a flag checked at the control boundary, not a kill
    switch at the statement that set it)."""
    from repro.p4.actions import Drop, Forward
    from repro.p4.dsl import ProgramBuilder
    from repro.p4.expr import Const
    from repro.packet.headers import ETHERNET

    def deny_then_allow():
        b = ProgramBuilder("deny_then_allow")
        b.header(ETHERNET)
        b.parser_state("start", extracts=["ethernet"]).accept()
        b.ingress.action("deny", [], [Drop()])
        b.ingress.action("allow", [], [Forward(Const(2, 9))])
        b.ingress.call("deny")
        b.ingress.call("allow")
        b.emit("ethernet")
        return b.build()

    wire = ethernet_frame(1, 2, 0x0800, payload=b"x").pack()
    expected = Interpreter(deny_then_allow()).process(wire)
    assert expected.verdict is Verdict.FORWARDED  # allow wins

    for engine in ("closure", "tree"):
        device = make_reference_device(f"dtc-{engine}", engine=engine)
        device.load(deny_then_allow())
        run = device.inject(wire, timestamp=0)
        assert run.result.verdict is Verdict.FORWARDED
        assert run.result.packet.pack() == expected.packet.pack()
        assert run.result.metadata["egress_spec"] == 2


def test_batched_paths_match_single_packet():
    """process_batch/inject_block are pure amortizations of the
    per-packet calls: outputs and stats must be identical."""
    frames = workload()

    def build():
        device = make_reference_device("batch")
        device.load(PROGRAMS["l2_switch"]())
        install_entries(device)
        return device

    single = build()
    single_outputs = [single.process(wire, 0) for wire in frames]
    batched = build()
    batched_outputs = batched.process_batch(frames, 0)
    assert single_outputs == batched_outputs
    assert single.stats == batched.stats
    assert [
        (p.rx_packets, p.tx_packets) for p in single.ports
    ] == [(p.rx_packets, p.tx_packets) for p in batched.ports]

    injected = build()
    runs = injected.inject_block(frames)
    assert len(runs) == len(frames)
    reference = build()
    for (timestamp, run), wire in zip(runs, frames):
        expected = reference.inject(wire)
        assert run.result.verdict == expected.result.verdict
        assert run.latency_cycles == expected.latency_cycles
    # Injection never touches the traffic ports, batched or not.
    assert all(p.rx_packets == 0 for p in injected.ports)
