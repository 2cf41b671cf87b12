"""The benchmark's workloads as plain data.

Every workload runs the same matrix: two chips, one per ISA (``gtx480``
is SASS, ``hd7970`` is Southern Islands), three kernels at scale
``small``, and the paper's two datapath structures, with
``checkpoint_interval="auto"``. This module imports nothing from
``repro``: the driver reads it too, and the driver never imports the
program.
"""

from __future__ import annotations

import random

CHIPS = ("gtx480", "hd7970")
KERNELS = ("vectoradd", "histogram", "reduction")
STRUCTURES = ("register_file", "local_memory")
SCALE = "small"

#: name -> input set. ``seeds`` campaign seeds are drawn from the run
#: seed; each fault model runs once per campaign seed. Run time grows
#: with the number of fault plans that survive pruning, which varies
#: from seed to seed (about 4% of stuck-at plans, 2% of transient and
#: MBU ones), so the seed counts are as large as one run's time allows.
WORKLOADS = {
    # Each golden run is computed once and reused by all 40 children,
    # so the liveness-prune simulation inside plan jobs dominates.
    "sweep": {"fault_models": ("transient", "mbu"), "seeds": 20,
              "samples": 12},
    # Persistent faults: shard jobs (restore, suffix re-simulation,
    # digest, memo) dominate and plan jobs are a small share.
    "stuckat": {"fault_models": ("stuck_at",), "seeds": 5, "samples": 150},
    # The stuckat input (its first four campaign seeds) served by a
    # CampaignService to a local worker fleet over HTTP, one worker per
    # CPU but the coordinator's; the small shard size gives each cell
    # many leases, so the difference to stuckat is the service layer.
    # Each run also computes a local twin of the input, hence fewer
    # seeds.
    "fleet": {"fault_models": ("stuck_at",), "seeds": 4, "samples": 150,
              "shard_size": 4},
}


def campaign_seeds(workload: str, run_seed: int) -> list[int]:
    """The campaign seeds one run uses, chosen once from its run seed
    (``fleet`` gets the first ones ``stuckat`` gets)."""
    return random.Random(run_seed).sample(range(1, 1 << 30),
                                          WORKLOADS[workload]["seeds"])


def expected_cells(workload: str) -> int:
    spec = WORKLOADS[workload]
    return (len(CHIPS) * len(KERNELS) * spec["seeds"]
            * len(spec["fault_models"]))


def expected_injections(workload: str) -> int:
    """Samples x structures x cells for one repetition."""
    return (WORKLOADS[workload]["samples"] * len(STRUCTURES)
            * expected_cells(workload))
