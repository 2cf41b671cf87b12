"""Campaign benchmark driver: fixed-work repetitions at reference host speed.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The run seed picks the workload's
campaign seeds once; every repetition then runs that same input in a
fresh process (``rep.py``), so repetitions do equal work and none
profits from another's in-process caches. Repetitions start while the
measuring time allows another one. Before them a twin run computes
the store the first repetition is checked against (``checks.py``).
Every host-time metric is reported at reference host speed, each
timed window scaled by the host probe samples taken around it
(``hostprobe.py``).

End-to-end metrics (``--trace 0``), from whole repetitions:

* ``inj_per_s``    injections / seconds inside the campaign entry point
* ``setup_s``      process start until repro is imported and the specs
                   are built; for ``fleet``, until every worker has
                   registered (median)
* ``peak_rss_mb``  sum of the peak RSS of every process of a repetition

``--trace 1`` runs one untraced repetition, then traced ones, and
reports the per-layer metrics of ``layers.py`` (no end-to-end number
comes from a traced repetition), plus two latencies from the untraced
one that vary with the seed by more than an end-to-end bound allows:
``first_cell_s``, campaign start to the first cell result, and
``resume_s``, reopening the finished store and re-running it with 0
jobs to do (median of several). The last stdout line is the JSON
result; the full record, raw values beside normalised ones, goes to
``.perfbench/results/``. This driver never imports ``repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostprobe  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402

#: name -> (unit, better)
END_TO_END = {
    "inj_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: A run must exit within this many seconds; no repetition may outlive it.
RUN_LIMIT_S = 170


class Run:
    """One benchmark run: twin, repetitions, probes and their checks."""

    def __init__(self, args, root: Path):
        self.args = args
        self.started = time.monotonic()
        self.seeds = wl.campaign_seeds(args.workload, args.seed)
        self.work = (root / ".perfbench" / "work"
                     / f"{args.workload}-{args.seed}-{os.getpid()}")
        self.work.mkdir(parents=True, exist_ok=True)
        self.diff_stores = checks.load_diff_stores(root)
        self.reps: list[dict] = []
        self.ledger = checks.Ledger()
        self.twin_ok = False

    def spawn(self, name: str, extra: list[str], seeds=None) -> int:
        """Run ``rep.py`` on ``seeds`` (default: the run's) in its own
        process group; kill the group on timeout so no fleet worker
        outlives the run."""
        command = [sys.executable, str(HERE / "rep.py"),
                   "--workload", self.args.workload,
                   "--seeds", ",".join(map(str, seeds or self.seeds)),
                   "--store", str(self.work / f"{name}.jsonl"), *extra]
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        with open(self.work / f"{name}.log", "w") as log:
            process = subprocess.Popen(
                [*command, "--spawned-at", repr(time.monotonic())],
                stdout=subprocess.DEVNULL, stderr=log,
                start_new_session=True)
            try:
                return process.wait(timeout=max(1.0, timeout))
            except subprocess.TimeoutExpired:
                return -1
            finally:
                with_group_killed(process)

    def twin(self) -> None:
        """The store the first repetition is checked against: for
        ``fleet`` its whole input on a local process pool, otherwise
        the first campaign seed on the reference interpreter."""
        if self.args.workload == "fleet":
            code = self.spawn("twin", ["--twin"])
        else:
            code = self.spawn("twin", ["--twin", "--reference"],
                              self.seeds[:1])
        self.ledger.record([] if code == 0 else [f"twin exited with {code}"])
        self.twin_ok = code == 0

    def repetition(self, traced: bool) -> None:
        index = len(self.reps) + 1
        name = f"rep{index}"
        extra = ["--out", str(self.work / f"{name}.json"),
                 "--rep", str(index)] + (["--trace"] if traced else [])
        began = time.monotonic()
        code = self.spawn(name, extra)
        duration = time.monotonic() - began
        if code != 0:
            log = (self.work / f"{name}.log").read_text()[-2000:]
            self.ledger.record(
                [f"repetition {index} exited with {code}: {log}"])
            self.reps.append({"duration_s": duration})
            return
        record = json.loads((self.work / f"{name}.json").read_text())
        store = self.work / f"{name}.jsonl"
        summary = checks.store_summary(store, self.diff_stores)
        reference = next((r["store"]["digest"] for r in self.reps
                          if "store" in r), summary["digest"])
        problems = checks.repetition_failures(
            summary, reference, wl.expected_cells(self.args.workload),
            wl.expected_injections(self.args.workload))
        if index == 1 and self.twin_ok:
            compare = checks.twin_failure \
                if self.args.workload == "fleet" else checks.reference_failure
            diff = compare(self.diff_stores, self.work / "twin.jsonl", store)
            if diff is not None:
                problems.append(f"store differs from its twin: {diff}")
        self.ledger.record(problems)
        for resume, executed in enumerate(record["resume_executed"], 1):
            self.ledger.record(checks.resume_failures(resume, executed))
        record.update(traced=traced, store=summary,
                      duration_s=duration)
        self.reps.append(record)

    def measure(self) -> None:
        deadline = self.started + self.args.seconds
        self.twin()
        minimum = 2 if self.args.trace else 1
        while True:
            self.repetition(traced=self.args.trace and len(self.reps) > 0)
            longest = max(rep["duration_s"] for rep in self.reps)
            if len(self.reps) >= minimum \
                    and time.monotonic() + longest > deadline:
                break
            if time.monotonic() - self.started + longest > RUN_LIMIT_S - 10:
                break


def with_group_killed(process: subprocess.Popen) -> None:
    """Kill what is left of ``process``'s group and reap the process."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def median_pair(pairs) -> tuple[float, float]:
    """(median raw, median normalised) of (raw, normalised) pairs."""
    pairs = list(pairs)
    return (statistics.median(raw for raw, _ in pairs),
            statistics.median(norm for _, norm in pairs))


def end_to_end(reps: list[dict]) -> dict:
    """name -> (raw, at reference host speed) over whole untraced
    repetitions; each window is scaled by its own host factor."""
    injections = sum(r["store"]["injections"] for r in reps)
    rss = statistics.median(r["rss_kb"] for r in reps) / 1024
    return {
        "inj_per_s": (
            injections / sum(r["campaign_s"] for r in reps),
            injections / sum(r["campaign_s"] * r["campaign_f"]
                             for r in reps)),
        "setup_s": median_pair(
            (r["setup_s"], r["setup_s"] * r["setup_f"]) for r in reps),
        "peak_rss_mb": (rss, rss),
    }


def per_layer(reps: list[dict]) -> dict:
    """name -> (raw, at reference host speed), averaged over the traced
    repetitions; times and rates scale by their campaign's factor."""
    untraced = [r for r in reps if not r["traced"]]
    baseline = statistics.median(r["campaign_s"] * r["campaign_f"]
                                 for r in untraced)
    traced = [r for r in reps if r["traced"]]
    raw = layers.mean_metrics([
        layers.layer_metrics(r["spans"], r["profile"], r["store"],
                             r["campaign_s"] * r["campaign_f"], baseline)
        for r in traced])
    factor = statistics.fmean(r["campaign_f"] for r in traced)
    pairs = {name: (value, hostprobe.normalise(
        value, layers.PER_LAYER[name][0], factor))
        for name, value in raw.items()}
    pairs["first_cell_s"] = median_pair(
        (r["first_cell_s"], r["first_cell_s"] * r["first_cell_f"])
        for r in untraced)
    pairs["resume_s"] = median_pair(
        (s, s * f) for r in untraced
        for s, f in zip(r["resume_s"], r["resume_f"]))
    return pairs


def host_record(reps: list[dict]) -> dict:
    """The host: its speed (the campaigns' mean probe factor), the
    spread of the probe samples, and what the host is."""
    probes = [seconds for r in reps for seconds in r["probe_s"]]
    q1, _, q3 = statistics.quantiles(probes, n=4)
    median = statistics.median(probes)
    return {
        "speed": statistics.fmean(r["campaign_f"] for r in reps),
        "probe_median_s": median,
        "probe_iqr_frac": (q3 - q1) / median,
        "probes": len(probes),
        "reference_probe_s": hostprobe.REFERENCE_PROBE_S,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    for needed in ("src/repro/__init__.py", "scripts/diff_stores.py"):
        if not (root / needed).is_file():
            print(f"error: run from the root of a repro checkout "
                  f"({needed} is missing)", file=sys.stderr)
            return 2

    run = Run(args, root)
    try:
        run.measure()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    # Repetitions that ran to the end; what their checks found is in
    # the ledger.
    good = [r for r in run.reps if "store" in r]
    if args.trace:
        good_traced = [r for r in good if r["traced"]]
        if not good_traced or len(good_traced) == len(good):
            print("error: no complete traced and untraced repetition",
                  file=sys.stderr)
            return 1
        pairs = per_layer(good)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        if not good:
            print("error: no repetition completed", file=sys.stderr)
            return 1
        pairs = end_to_end(good)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    host = host_record(good)
    metrics = {name: {"value": value, "unit": units[name], "raw": raw}
               for name, (raw, value) in pairs.items()}
    if any(name == "repro" or name.startswith("repro.")
           for name in sys.modules):
        raise RuntimeError("the driver imported repro; its probe and "
                           "checks must stay independent of the program")

    ledger = run.ledger
    result = {"correct": not ledger.failures, "attempted": ledger.attempted,
              "failed": len(ledger.failures),
              "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in metrics.items()}}
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "campaign_seeds": run.seeds, "host": host, "metrics": metrics,
        "failures": ledger.failures,
        "elapsed_s": time.monotonic() - run.started,
        "repetitions": [{key: value for key, value in rep.items()
                         if key not in ("spans", "profile")}
                        for rep in run.reps],
        **{key: result[key] for key in ("correct", "attempted", "failed")},
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
               f"{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1))
    for failure in ledger.failures:
        print(f"FAILED: {failure}")
    print(f"{args.workload} seed={args.seed}: {len(good)} repetitions, "
          f"host.speed={host['speed']:.3f} "
          f"(probe IQR {host['probe_iqr_frac']:.1%})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
