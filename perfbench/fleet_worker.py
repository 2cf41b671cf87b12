"""Fleet worker launcher for the benchmark's ``fleet`` workload.

Runs one ``CampaignWorker`` against the coordinator at ``--url`` until
the service shuts down, then writes its peak RSS, its in-band host
probe samples (see ``hostprobe.py``) and, with ``--trace``, its spans
to ``--out``. With ``--trace`` the same layer
wrappers the repetition uses are installed before the worker starts,
so job bodies, lease round-trips and golden fetches in the worker are
timed too.

    python3 perfbench/fleet_worker.py --url http://127.0.0.1:PORT \
        --id w0 --out worker0.json [--trace --rep 1]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from hostprobe import ProbeClock  # noqa: E402
from repro import CampaignWorker  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--url", required=True)
    parser.add_argument("--id", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    clock = ProbeClock()
    tracer = None
    if args.trace:
        tracer = spans.Tracer(args.rep)
        tracer.install()
        clock.sample = tracer.wrap(clock.sample, "host.probe")
    spans.install_probes(clock)
    clock.sample()
    counters = CampaignWorker(args.url, worker_id=args.id).run()
    clock.sample()
    report = {
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counters": counters,
        "probes": clock.samples,
        "spans": tracer.closed_spans() if tracer else [],
    }
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
