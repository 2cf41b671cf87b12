"""One repetition of a benchmark workload, in a fresh interpreter.

The driver (``run.py``) starts this script once per repetition, so
every repetition pays the same process start-up and begins with cold
golden and snapshot caches. It builds the workload's campaign specs,
runs them through the workload's entry point (``run_sweep``,
``run_campaign`` or a ``CampaignService`` with a local worker fleet),
re-runs the finished store several times as resumes, and writes one
JSON record to ``--out``: each window's raw seconds and the host-speed
factor its in-band probe samples give (``hostprobe.py``). With
``--trace`` it also installs the layer wrappers from ``spans.py``,
turns on the program's own profile counters, and adds the spans and
counters to the record.

``--twin`` instead runs the given seeds' campaigns on a local process
pool and writes nothing: the store a repetition's store is checked
against. With ``--reference`` the twin runs on the program's
per-lane reference interpreter with the suffix memo off, the slow
path the fast one must match bit for bit.

    python3 perfbench/rep.py --workload stuckat --seeds 7,9 \
        --store .perfbench/s.jsonl --out .perfbench/r.json \
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hostprobe import ProbeClock, probe_time, window_factor  # noqa: E402

#: This process's in-band probe samples. The first one is taken before
#: repro is imported, so the two samples around set-up bracket it.
CLOCK = ProbeClock()
if __name__ == "__main__":
    CLOCK.sample()

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from repro import (  # noqa: E402
    CampaignService,
    CampaignSpec,
    MemoryTelemetrySink,
    ResultStore,
    run_campaign,
    run_sweep,
)
from repro.engine.scheduler import CampaignStats  # noqa: E402


#: Times a repetition re-runs its finished store (resume_s is their median).
RESUMES = 9


def build_specs(workload: str, seeds: list[int],
                reference: bool = False) -> list:
    """One spec per fault model and campaign seed. ``reference``: on
    the per-lane interpreter with the suffix memo off."""
    params = wl.WORKLOADS[workload]
    base = CampaignSpec(
        gpus=wl.CHIPS, workloads=wl.KERNELS, scale=wl.SCALE,
        structures=wl.STRUCTURES, checkpoint_interval="auto",
        samples=params["samples"], shard_size=params.get("shard_size"))
    if reference:
        base = base.replace(backend="python", suffix_memo=False)
    return [base.replace(fault_model=model, seed=seed)
            for model in params["fault_models"] for seed in seeds]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def fleet_size() -> int:
    """Fleet workers: one CPU fewer than the host has, so that the
    coordinator (this process) has a CPU of its own. With as many
    workers as CPUs the coordinator's work takes CPU from the workers,
    their in-band probes see that as a slower host, and normalising
    would divide a service-layer slowdown out of ``inj_per_s``."""
    return max(1, nproc() - 1)


class Repetition:
    """Runs one workload's campaign and resumes, timing each window."""

    def __init__(self, args, specs: list):
        self.args = args
        self.specs = specs
        self.clock = CLOCK
        self.tracer = None
        self.sink = None
        self.record: dict = {"resume_s": [], "resume_f": [],
                             "resume_executed": []}
        self.first_cell: float | None = None
        self.workers: list = []
        self.worker_reports: list = []

    def trace(self) -> None:
        """Install the layer wrappers and turn the profile counters on."""
        self.tracer = spans.Tracer(self.args.rep)
        self.tracer.install()
        self.clock.sample = self.tracer.wrap(self.clock.sample, "host.probe")
        self.sink = MemoryTelemetrySink()

    def on_cell(self, _cell) -> None:
        if self.first_cell is None:
            self.first_cell = time.monotonic()

    def span(self, name: str):
        return self.tracer.begin(name) if self.tracer else None

    def end(self, span) -> None:
        if span is not None:
            self.tracer.end(span)

    def window(self, start: float, end: float,
               fleet: bool = False) -> tuple[float, float]:
        """(raw seconds less probing, host factor) of one window.

        The factor comes from the processes that did the window's
        work: the fleet workers (``fleet``) or this process. Probing
        in this process is subtracted exactly; fleet workers probe in
        parallel, so the mean of their probing time is.
        """
        clocks = [report["probes"] for report in self.worker_reports] \
            if fleet else []
        probing = probe_time(self.clock.samples, start, end)
        if clocks:
            probing += statistics.fmean(
                probe_time(samples, start, end) for samples in clocks)
        return (end - start - probing,
                window_factor(clocks or [self.clock.samples], start, end))

    def setup_done(self) -> None:
        """Close the set-up window: process start until now."""
        ready = time.monotonic()
        self.clock.sample()
        self.record["setup_s"], self.record["setup_f"] = self.window(
            self.args.spawned_at, ready)

    def timed(self, name: str, body) -> tuple[float, float]:
        """Run ``body`` between two probe samples; returns its
        (start, end) on the monotonic clock."""
        self.clock.sample()
        span = self.span(name)
        start = time.monotonic()
        end = body()
        self.end(span)
        self.clock.sample()
        return start, end

    # -- local entry points ---------------------------------------------
    def run_local(self, store, progress=None, sink=None) -> int:
        """One pass over the input through run_sweep / run_campaign;
        returns the number of jobs executed."""
        stats = CampaignStats()
        if self.args.workload == "sweep":
            params = wl.WORKLOADS["sweep"]
            # The axes set every child's fault model and seed.
            run_sweep(self.specs[0],
                      {"fault_model": list(params["fault_models"]),
                       "seed": self.args.seeds},
                      store=store, workers=1, progress=progress, stats=stats,
                      telemetry=sink or False, profile=bool(sink))
        else:
            for spec in self.specs:
                run_campaign(spec, store=store, workers=1, progress=progress,
                             stats=stats, telemetry=sink or False,
                             profile=bool(sink))
        return stats.executed

    def pass_local(self, progress=None, sink=None) -> int:
        """run_local on the store path (run_sweep opens it itself)."""
        if self.args.workload == "sweep":
            return self.run_local(self.args.store, progress, sink)
        with ResultStore(self.args.store) as store:
            return self.run_local(store, progress, sink)

    def campaign_local(self) -> tuple[float, float]:
        def body():
            self.pass_local(self.on_cell, self.sink)
            return time.monotonic()
        return self.timed("engine.campaign", body)

    def resume_local(self) -> tuple[float, float, int]:
        executed = []

        def body():
            executed.append(self.pass_local())
            return time.monotonic()
        start, end = self.timed("engine.resume", body)
        return start, end, executed[0]

    # -- fleet ------------------------------------------------------------
    def start_fleet(self, store) -> CampaignService:
        """Serve the specs and wait until every worker has registered."""
        service = CampaignService(store, self.specs, telemetry=self.sink,
                                  profile=bool(self.sink),
                                  progress=self.on_cell)
        service.server.start()
        # run() starts the server itself; it is already serving so the
        # workers can register before the campaign window opens.
        service.server.start = lambda: None
        stem = Path(self.args.out).with_suffix("")
        for index in range(fleet_size()):
            out = f"{stem}.worker{index}.json"
            command = [sys.executable, str(HERE / "fleet_worker.py"),
                       "--url", service.url, "--id", f"w{index}",
                       "--out", out, "--rep", str(self.args.rep)]
            if self.tracer:
                command.append("--trace")
            with open(f"{stem}.worker{index}.log", "w") as log:
                self.workers.append((subprocess.Popen(
                    command, stdout=subprocess.DEVNULL, stderr=log), out))
        deadline = time.monotonic() + 120
        while service.backend.counters["workers_registered"] \
                < fleet_size():
            if time.monotonic() > deadline or any(
                    p.poll() is not None for p, _ in self.workers):
                raise RuntimeError("fleet workers failed to register")
            time.sleep(0.005)
        return service

    @staticmethod
    def run_service(service) -> tuple[float, int]:
        """service.run() until its last campaign returns, which is
        before the service lingers for worker shutdown acks and stops
        its server; returns (that time, jobs executed)."""
        finished = []
        service.run(on_campaign=lambda _spec, result: finished.append(
            (time.monotonic(), result.stats.executed)))
        return finished[-1][0], sum(n for _, n in finished)

    def stop_workers(self) -> None:
        for process, out in self.workers:
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            if process.returncode != 0:
                raise RuntimeError(
                    f"fleet worker exited with code {process.returncode}")
            self.worker_reports.append(json.loads(Path(out).read_text()))
        self.workers = []

    def kill_workers(self) -> None:
        for process, _ in self.workers:
            if process.poll() is None:
                process.kill()
            process.wait()
        self.workers = []

    def campaign_fleet(self) -> tuple[float, float]:
        store = ResultStore(self.args.store)
        try:
            service = self.start_fleet(store)
            self.setup_done()
            start, end = self.timed(
                "engine.campaign", lambda: self.run_service(service)[0])
            self.stop_workers()
        finally:
            self.kill_workers()
            store.close()
        return start, end

    def resume_fleet(self) -> tuple[float, float, int]:
        executed = []

        def body():
            with ResultStore(self.args.store) as store:
                end, count = self.run_service(CampaignService(store,
                                                              self.specs))
            executed.append(count)
            return end
        start, end = self.timed("engine.resume", body)
        return start, end, executed[0]

    # -- the whole repetition -------------------------------------------
    def run(self) -> dict:
        record = self.record
        fleet = self.args.workload == "fleet"
        if not fleet:
            self.setup_done()
        spans.install_probes(self.clock)
        if fleet:
            start, end = self.campaign_fleet()
            resume = self.resume_fleet
        else:
            start, end = self.campaign_local()
            resume = self.resume_local
        record["campaign_s"], record["campaign_f"] = self.window(
            start, end, fleet)
        record["first_cell_s"], record["first_cell_f"] = self.window(
            start, self.first_cell, fleet)
        for _ in range(RESUMES):
            resume_start, resume_end, executed = resume()
            seconds, factor = self.window(resume_start, resume_end)
            record["resume_s"].append(seconds)
            record["resume_f"].append(factor)
            record["resume_executed"].append(executed)
        record["probe_s"] = [
            seconds for samples in [self.clock.samples] + [
                report["probes"] for report in self.worker_reports]
            for _, _, seconds in samples]
        record["rss_kb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + sum(
                report["rss_kb"] for report in self.worker_reports)
        if self.tracer is not None:
            record["spans"] = [self.tracer.closed_spans()] + [
                report["spans"] for report in self.worker_reports]
            record["profile"] = profile_summary(self.sink)
        return record


def profile_summary(sink) -> dict:
    """isa -> {winstr, sim_s} from the program's cell_profile counters:
    warp instructions dispatched, and the golden + prune + suffix
    simulation seconds of the cells on that ISA's chip."""
    out: dict = {}
    for event in sink.of_type("cell_profile"):
        profile = event["profile"]
        sim_s = sum(profile["phases"].get(phase, 0.0)
                    for phase in ("golden", "prune", "suffix_sim"))
        for isa, classes in profile["dispatch"].items():
            entry = out.setdefault(isa, {"winstr": 0, "sim_s": 0.0})
            entry["winstr"] += sum(classes.values())
            entry["sim_s"] += sim_s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        required=True)
    parser.add_argument("--seeds", required=True,
                        type=lambda s: [int(x) for x in s.split(",")])
    parser.add_argument("--store", required=True)
    parser.add_argument("--out")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--twin", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)

    specs = build_specs(args.workload, args.seeds, args.reference)
    if args.twin:
        with ResultStore(args.store) as store:
            for spec in specs:
                run_campaign(spec, store=store, workers=nproc())
        return 0
    rep = Repetition(args, specs)
    if args.trace:
        rep.trace()
    Path(args.out).write_text(json.dumps(rep.run()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
