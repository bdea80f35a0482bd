"""A distributed validation campaign on a localhost cluster.

The same declarative ScenarioMatrix the pool path sweeps is dispatched
here over the real socket transport: a private campaign service serves
shards to N worker processes as JSON frames, per-shard SessionReports
stream back as they finish (out of order) and render live through the
on_result hook, and the final CampaignReport is reassembled
deterministically — byte-identical to a serial run of the same matrix,
which this script verifies.

To spread the same campaign over real machines, run the service CLI:

    python -m repro.netdebug.service serve --listen 0.0.0.0:47816
    python -m repro.netdebug.service worker --connect host:47816
    python -m repro.netdebug.service submit --connect host:47816 ...
"""

import argparse

from repro.netdebug.campaign import ScenarioMatrix, run_campaign
from repro.netdebug.cluster import ProgressPrinter, run_cluster_campaign


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2,
                        help="local worker processes to launch")
    parser.add_argument("--count", type=int, default=8,
                        help="packets per scenario")
    # parse_known_args: stay runnable under test harnesses (runpy) that
    # leave their own flags in sys.argv.
    args, _ = parser.parse_known_args()

    matrix = ScenarioMatrix(
        programs=["strict_parser", "acl_firewall"],
        targets=["reference", "sdnet", "tofino"],
        workloads=["udp", "malformed"],
        count=args.count,
        seed=2018,
        setup="acl_gate",
    )

    print(f"dispatching {len(matrix.expand())} scenario shards to "
          f"{args.workers} socket-connected workers...\n")
    printer = ProgressPrinter()
    report = run_cluster_campaign(
        matrix,
        workers=args.workers,
        name="cluster-sweep",
        on_result=printer,
        timeout=300,
    )

    print()
    print(report.summary())
    print()
    print(f"time to first streamed result: {printer.first_result_s:.3f}s")

    serial = run_campaign(matrix, workers=1, name="cluster-sweep")
    identical = serial.to_json() == report.to_json()
    print(f"byte-identical to the serial run: {identical}")
    if not identical:
        raise SystemExit("cluster determinism contract violated!")


if __name__ == "__main__":
    main()
