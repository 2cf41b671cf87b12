"""Wrappers around the program's layer calls: spans, and probe points.

A traced repetition (and, for ``fleet``, each worker process) installs
wrappers around the functions listed in :data:`LAYER_CALLS`, patched at
the name each caller looks up, so nothing under ``src/`` changes. Each
wrapper records one span: name, start, end, parent (the enclosing span
on the same thread) and a few attributes. Spans stay in memory and are
written out once, when the process is done. Every repetition, traced or
not, also patches :data:`PROBE_POINTS` so the in-band host probe
(``hostprobe.ProbeClock``) samples between jobs.

The rollup half (:func:`self_times`, :func:`rollup`) imports nothing
from ``repro``, so the driver can use it.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

#: (module, attribute path, span name, note) for every timed call.
#: ``note(span, args, result)`` adds attributes after a call returns.
#: Digests are timed where the convergence check looks them up; the
#: golden-side digest inside a capture is part of ``checkpoint.capture``.
LAYER_CALLS = (
    ("repro.engine.matrix", "get_workload", "kernels.build", None),
    ("repro.engine.jobs", "get_workload", "kernels.build", None),
    ("repro.faultmodels.transient", "TransientBitFlip.sample",
     "faultmodels.sample", None),
    ("repro.faultmodels.mbu", "MultiBitUpset.sample",
     "faultmodels.sample", None),
    ("repro.faultmodels.stuckat", "StuckAt.sample",
     "faultmodels.sample", None),
    ("repro.engine.jobs", "run_golden_job", "reliability.golden", None),
    ("repro.engine.jobs", "run_plan_job", "reliability.prune", None),
    ("repro.engine.jobs", "run_shard_job", "engine.shard", None),
    ("repro.engine.jobs", "resimulate_plan", "reliability.resim", None),
    ("repro.engine.jobs", "reduce_cell_job", "engine.reduce", None),
    ("repro.checkpoint", "run_faulty_from_checkpoints",
     "checkpoint.suffix", None),
    ("repro.checkpoint.restore", "restore_machine", "checkpoint.restore",
     None),
    ("repro.checkpoint.capture", "CheckpointRecorder._capture",
     "checkpoint.capture", None),
    ("repro.checkpoint.capture", "capture_snapshots", "checkpoint.rebuild",
     None),
    ("repro.checkpoint.convergence", "digest_machine", "checkpoint.digest",
     None),
    ("repro.checkpoint.convergence", "digest_machine_pair",
     "checkpoint.digest", None),
    ("repro.checkpoint.memo", "SuffixMemo.should_digest", "checkpoint.memo",
     None),
    ("repro.checkpoint.memo", "SuffixMemo.observe", "checkpoint.memo",
     lambda span, args, result: span.update(hit=result is not None)),
    ("repro.engine.store", "ResultStore.put", "engine.store.put", None),
    ("repro.engine.store", "ResultStore.__init__", "engine.store.load", None),
    ("repro.engine.matrix", "fingerprint", "engine.fingerprint", None),
    ("repro.engine.service.worker", "CoordinatorClient._request",
     "engine.service.request", lambda span, args, result: span.update(
         path=args[2], job=bool(result.get("job")))),
    ("repro.engine.service.worker", "CampaignWorker._execute",
     "engine.service.execute", None),
    ("repro.engine.service.worker", "CampaignWorker.run",
     "engine.service.worker", None),
)

#: Where the in-band host probe samples: after each job body and each
#: re-simulated fault, in whichever process runs them.
PROBE_POINTS = tuple(("repro.engine.jobs", name) for name in (
    "run_golden_job", "run_plan_job", "run_shard_job", "resimulate_plan"))


class Tracer:
    """Collects spans for one process; parents follow each thread's stack."""

    def __init__(self, rep: int):
        self.rep = rep
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self, name: str, **attrs) -> dict:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span = {"id": len(self.spans), "name": name,
                    "parent": stack[-1]["id"] if stack else None,
                    "thread": threading.get_ident(), "rep": self.rep,
                    "start": time.perf_counter(), "end": None, **attrs}
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, fn, name: str, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                # Control-flow exceptions (ConvergedToGolden, MemoHit)
                # are how the suffix simulation reports early exits.
                span["raised"] = type(error).__name__
                raise
            finally:
                self.end(span)
            if note is not None:
                note(span, args, result)
            return result
        return traced

    def install(self) -> None:
        """Patch every entry of :data:`LAYER_CALLS` (and the worker's
        job table) with a span-recording wrapper."""
        for module_name, path, name, note in LAYER_CALLS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = (owner.__dict__[attribute] if isinstance(owner, type)
                        else getattr(owner, attribute))
            setattr(owner, attribute, self.wrap(original, name, note))
        # The fleet worker runs the same job bodies from its own table.
        from repro.engine.service.worker import WORKER_FUNCTIONS
        job_spans = {path: name for module, path, name, _ in LAYER_CALLS
                     if module == "repro.engine.jobs"}
        for kind, function in WORKER_FUNCTIONS.items():
            WORKER_FUNCTIONS[kind] = self.wrap(
                function, job_spans[function.__name__])

    def closed_spans(self) -> list[dict]:
        """Spans whose call returned (all of them, once work is done)."""
        return [span for span in self.spans if span["end"] is not None]


# ----------------------------------------------------------------------
# Rollup (pure; no repro import)
# ----------------------------------------------------------------------

def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """span id -> duration minus the time its children cover.

    ``spans`` come from one process (ids and parents are local to it).
    Children are clipped to their parent's interval.
    """
    by_id = {span["id"]: span for span in spans}
    children: dict[int, list] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            children.setdefault(parent["id"], []).append(
                (max(span["start"], parent["start"]),
                 min(span["end"], parent["end"])))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], ()))
        for span in spans
    }


def rollup(processes: list[list[dict]]) -> dict[str, dict]:
    """name -> {count, total_s, self_s} summed over processes."""
    out: dict[str, dict] = {}
    for spans in processes:
        own = self_times(spans)
        for span in spans:
            entry = out.setdefault(span["name"],
                                   {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span["end"] - span["start"]
            entry["self_s"] += own[span["id"]]
    return out


def install_probes(clock) -> None:
    """Sample ``clock`` (a ``hostprobe.ProbeClock``) after every call
    at :data:`PROBE_POINTS` and every fleet worker job."""
    for module_name, attribute in PROBE_POINTS:
        module = importlib.import_module(module_name)
        setattr(module, attribute, clock.after(getattr(module, attribute)))
    from repro.engine.service.worker import WORKER_FUNCTIONS
    for kind, function in WORKER_FUNCTIONS.items():
        WORKER_FUNCTIONS[kind] = clock.after(function)
