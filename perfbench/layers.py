"""Per-layer metrics from one traced repetition's spans and counters.

Every metric name, unit and direction lives in :data:`PER_LAYER`
(``BENCHMARK.json`` lists the same), and :data:`INTERACTIONS` records
which end-to-end metric each layer metric should move, on which
workload. Pure data processing: nothing here imports ``repro``.
"""

from __future__ import annotations

import statistics

from spans import covered, rollup

#: name -> (unit, better). ``first_cell_s`` (campaign start to the
#: first cell result) and ``resume_s`` (re-running a finished store)
#: are latencies users see, but they do not repeat within a tenth from
#: seed to seed: the first hangs on one cell's surviving fault plans,
#: the second lasts a few tens of milliseconds. ``run.py`` reports both
#: from the untraced repetition of a traced run.
PER_LAYER = {
    "first_cell_s": ("s", "lower"),
    "resume_s": ("s", "lower"),
    "kernels.build_s": ("s", "lower"),
    "faultmodels.sample_s": ("s", "lower"),
    "reliability.golden_s": ("s", "lower"),
    "reliability.golden_runs": ("count", "lower"),
    "reliability.prune_s": ("s", "lower"),
    "reliability.prune_share": ("frac", "lower"),
    "reliability.live_frac": ("frac", "lower"),
    "reliability.resims": ("count", "lower"),
    "reliability.resim_s": ("s", "lower"),
    "reliability.resim_per_s": ("1/s", "higher"),
    "checkpoint.capture_s": ("s", "lower"),
    "checkpoint.rebuild_s": ("s", "lower"),
    "checkpoint.restore_s": ("s", "lower"),
    "checkpoint.digest_s": ("s", "lower"),
    "checkpoint.digest_calls": ("count", "lower"),
    "checkpoint.early_exit_frac": ("frac", "higher"),
    "checkpoint.memo_s": ("s", "lower"),
    "checkpoint.memo_hit_frac": ("frac", "higher"),
    "sim.winstr.sass": ("count", "lower"),
    "sim.winstr.si": ("count", "lower"),
    "sim.winstr_per_s.sass": ("1/s", "higher"),
    "sim.winstr_per_s.si": ("1/s", "higher"),
    "engine.reduce_s": ("s", "lower"),
    "engine.scheduler.overhead_s": ("s", "lower"),
    "engine.store.put_s": ("s", "lower"),
    "engine.store.puts": ("count", "lower"),
    "engine.store.bytes": ("B", "lower"),
    "engine.store.load_s": ("s", "lower"),
    "engine.fingerprint_s": ("s", "lower"),
    "engine.service.lease_rtt_s.p50": ("s", "lower"),
    "engine.service.lease_rtt_s.p90": ("s", "lower"),
    "engine.service.job_overhead_s.p50": ("s", "lower"),
    "engine.service.worker_idle_frac": ("frac", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.coverage_frac": ("frac", "higher"),
}

#: layer metric -> (end-to-end metrics it should move, on which workloads)
INTERACTIONS = {
    "first_cell_s": ((), "all; moved by the metrics that name it below"),
    "resume_s": ((), "all; moved by the metrics that name it below"),
    "kernels.build_s": (("setup_s", "first_cell_s"), "all (small)"),
    "faultmodels.sample_s": (("inj_per_s",), "sweep"),
    "reliability.golden_s": (("first_cell_s",), "all"),
    "reliability.golden_runs": (("first_cell_s",), "all"),
    "reliability.prune_s": (("inj_per_s",), "sweep (~60%); stuckat ~5%"),
    "reliability.prune_share": (("inj_per_s",), "sweep"),
    "reliability.live_frac": (("inj_per_s",), "all (explains it)"),
    "reliability.resims": (("inj_per_s",), "stuckat, fleet"),
    "reliability.resim_s": (("inj_per_s",), "stuckat, fleet"),
    "reliability.resim_per_s": (("inj_per_s",), "stuckat, fleet"),
    "checkpoint.capture_s": (("first_cell_s",), "stuckat"),
    "checkpoint.rebuild_s": (("inj_per_s",), "fleet"),
    "checkpoint.restore_s": (("inj_per_s",), "stuckat"),
    "checkpoint.digest_s": (("inj_per_s",), "stuckat"),
    "checkpoint.digest_calls": (("inj_per_s",), "stuckat"),
    "checkpoint.early_exit_frac": (("inj_per_s",), "stuckat"),
    "checkpoint.memo_s": (("inj_per_s",), "stuckat; nothing on sweep"),
    "checkpoint.memo_hit_frac": (("inj_per_s",), "stuckat; nothing on sweep"),
    "sim.winstr.sass": (("inj_per_s",), "stuckat (most), sweep"),
    "sim.winstr.si": (("inj_per_s",), "stuckat (most), sweep"),
    "sim.winstr_per_s.sass": (("inj_per_s",), "stuckat (most), sweep"),
    "sim.winstr_per_s.si": (("inj_per_s",), "stuckat (most), sweep"),
    "engine.reduce_s": (("first_cell_s",), "all"),
    "engine.scheduler.overhead_s": (("inj_per_s",), "sweep (many small jobs)"),
    "engine.store.put_s": (("inj_per_s",), "fleet"),
    "engine.store.puts": (("inj_per_s",), "fleet"),
    "engine.store.bytes": (("inj_per_s",), "fleet"),
    "engine.store.load_s": (("resume_s",), "all"),
    "engine.fingerprint_s": (("resume_s",), "all"),
    "engine.service.lease_rtt_s.p50": (("inj_per_s", "first_cell_s"),
                                       "fleet only"),
    "engine.service.lease_rtt_s.p90": (("inj_per_s", "first_cell_s"),
                                       "fleet only"),
    "engine.service.job_overhead_s.p50": (("inj_per_s",), "fleet only"),
    "engine.service.worker_idle_frac": (("inj_per_s",), "fleet only"),
    "trace.overhead_frac": ((), "-"),
    "trace.coverage_frac": ((), "-"),
}

JOB_SPANS = ("reliability.golden", "reliability.prune", "engine.shard",
             "engine.reduce")
LEASE_PATH = "/v1/lease"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _fleet(processes: list[list[dict]]) -> dict:
    """Lease round-trips, per-job overhead (lease to push, less the job
    body and host probes) and idle share in the fleet workers."""
    rtts, overheads = [], []
    busy = alive = 0.0
    for spans in processes:
        leases = [s for s in spans if s["name"] == "engine.service.request"
                  and s.get("path") == LEASE_PATH]
        rtts += [_duration(s) for s in leases]
        # Inside an execute span: the job body and any host probe.
        inner: dict = {}
        for s in spans:
            if s["name"] in JOB_SPANS or s["name"] == "host.probe":
                inner[s["parent"]] = inner.get(s["parent"], 0.0) \
                    + _duration(s)
        for span in spans:
            if span["name"] == "engine.service.worker":
                alive += _duration(span)
            if span["name"] != "engine.service.execute":
                continue
            busy += _duration(span)
            granted = [s for s in leases
                       if s.get("job") and s["end"] <= span["start"]]
            lease_s = _duration(max(granted, key=lambda s: s["end"])) \
                if granted else 0.0
            overheads.append(lease_s + _duration(span)
                             - inner.get(span["id"], 0.0))
    return {
        "engine.service.lease_rtt_s.p50": percentile(rtts, 0.5),
        "engine.service.lease_rtt_s.p90": percentile(rtts, 0.9),
        "engine.service.job_overhead_s.p50": percentile(overheads, 0.5),
        "engine.service.worker_idle_frac":
            1.0 - busy / alive if alive else 0.0,
    }


def coverage(processes: list[list[dict]]) -> float:
    """Share of each process's working span (the campaign in the
    driver, the worker loop in fleet workers) covered by its direct
    children, over all processes."""
    roots = {"engine.campaign", "engine.service.worker"}
    inside = total = 0.0
    for spans in processes:
        for root in (s for s in spans if s["name"] in roots):
            total += _duration(root)
            inside += covered(
                (max(s["start"], root["start"]), min(s["end"], root["end"]))
                for s in spans if s["parent"] == root["id"])
    return inside / total if total else 0.0


def layer_metrics(processes: list[list[dict]], profile: dict,
                  store: dict, traced_s: float, untraced_s: float) -> dict:
    """Every :data:`PER_LAYER` metric for one traced repetition.

    ``processes`` holds one span list per process (driver first),
    ``profile`` the program's per-ISA instruction counters, ``store``
    the store summary from ``checks.store_summary``, and the two
    campaign times (at reference host speed) give the tracing overhead.
    """
    roll = rollup(processes)

    def self_s(name: str) -> float:
        return roll.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return roll.get(name, {}).get("total_s", 0.0)

    def count(name: str) -> int:
        return roll.get(name, {}).get("count", 0)

    spans = [s for process in processes for s in process]
    resims = count("reliability.resim")
    converged = sum(1 for s in spans if s["name"] == "checkpoint.suffix"
                    and s.get("raised") == "ConvergedToGolden")
    observes = [s for s in spans if "hit" in s]
    jobs_s = sum(total_s(name) for name in JOB_SPANS)
    metrics = {
        "kernels.build_s": self_s("kernels.build"),
        "faultmodels.sample_s": self_s("faultmodels.sample"),
        "reliability.golden_s": self_s("reliability.golden"),
        "reliability.golden_runs": count("reliability.golden"),
        "reliability.prune_s": self_s("reliability.prune"),
        "reliability.prune_share":
            total_s("reliability.prune") / jobs_s if jobs_s else 0.0,
        "reliability.live_frac": store["live"] / store["injections"],
        "reliability.resims": resims,
        "reliability.resim_s":
            self_s("reliability.resim") + self_s("checkpoint.suffix"),
        "reliability.resim_per_s":
            resims / total_s("reliability.resim") if resims else 0.0,
        "checkpoint.capture_s": self_s("checkpoint.capture"),
        "checkpoint.rebuild_s": self_s("checkpoint.rebuild"),
        "checkpoint.restore_s": self_s("checkpoint.restore"),
        "checkpoint.digest_s": self_s("checkpoint.digest"),
        "checkpoint.digest_calls": count("checkpoint.digest"),
        "checkpoint.early_exit_frac": converged / resims if resims else 0.0,
        "checkpoint.memo_s": self_s("checkpoint.memo"),
        "checkpoint.memo_hit_frac":
            sum(1 for s in observes if s["hit"]) / len(observes)
            if observes else 0.0,
        "engine.reduce_s": self_s("engine.reduce"),
        "engine.scheduler.overhead_s": self_s("engine.campaign"),
        "engine.store.put_s": self_s("engine.store.put"),
        "engine.store.puts": count("engine.store.put"),
        "engine.store.bytes": store["bytes"],
        "engine.store.load_s": self_s("engine.store.load"),
        "engine.fingerprint_s": self_s("engine.fingerprint"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.coverage_frac": coverage(processes),
        **_fleet(processes),
    }
    for isa in ("sass", "si"):
        counters = profile.get(isa, {"winstr": 0, "sim_s": 0.0})
        metrics[f"sim.winstr.{isa}"] = counters["winstr"]
        metrics[f"sim.winstr_per_s.{isa}"] = (
            counters["winstr"] / counters["sim_s"] if counters["sim_s"]
            else 0.0)
    return metrics


def mean_metrics(per_rep: list[dict]) -> dict:
    """Per-repetition metrics averaged over the traced repetitions."""
    return {name: statistics.fmean(rep[name] for rep in per_rep)
            for name in per_rep[0]}
