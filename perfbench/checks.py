"""Correctness checks on a repetition's outputs, counted as failed operations.

* every repetition's canonical digest of its cell payloads equals the
  run's first repetition's;
* the first repetition's store holds every record of a twin run that
  took another path: for ``sweep`` and ``stuckat`` the first campaign
  seed on the program's per-lane reference interpreter with the suffix
  memo off, so a fast-path change that alters outcomes fails here even
  when a run has a single repetition;
* the injection count equals samples x structures x cells;
* each resume executes 0 jobs;
* ``fleet``'s store matches a local twin of the same input under the
  order-insensitive comparison of ``scripts/diff_stores.py
  --ignore-order`` (its own function, loaded from the checkout).

Wall-time fields are dropped before comparing, with the script's own
``strip_times``. Nothing here imports ``repro``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path


class Ledger:
    """Operations attempted and the ones that failed, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, problems: list[str]) -> None:
        """One operation; it failed if it has any problem."""
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))


def load_diff_stores(root: Path):
    """``scripts/diff_stores.py`` of the checkout at ``root``, as a module."""
    path = root / "scripts" / "diff_stores.py"
    spec = importlib.util.spec_from_file_location("diff_stores", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def store_summary(path: Path, diff_stores) -> dict:
    """Digest, cell and injection counts of one finished store."""
    cells = [record["payload"] for record in diff_stores.load(path).values()
             if record["kind"] == "cell"]
    canonical = sorted(json.dumps(diff_stores.strip_times(payload),
                                  sort_keys=True) for payload in cells)
    estimates = [est for payload in cells for est in payload["fi"].values()]
    return {
        "digest": hashlib.sha256("\n".join(canonical).encode()).hexdigest(),
        "cells": len(cells),
        "injections": sum(est["samples"] for est in estimates),
        "live": sum(est["resimulated"] for est in estimates),
        "bytes": path.stat().st_size,
    }


def repetition_failures(summary: dict, reference_digest: str,
                        cells: int, injections: int) -> list[str]:
    """Why one repetition's store is wrong (empty when it is right)."""
    problems = []
    if summary["digest"] != reference_digest:
        problems.append("cell payload digest differs from repetition 1")
    if summary["cells"] != cells:
        problems.append(f"{summary['cells']} cells, expected {cells}")
    if summary["injections"] != injections:
        problems.append(f"{summary['injections']} injections, "
                        f"expected {injections}")
    return problems


def resume_failures(resume: int, executed: int) -> list[str]:
    """The problem with one resume, if it executed any job."""
    return [f"resume {resume} executed {executed} jobs"] if executed else []


def reference_failure(diff_stores, reference: Path,
                      store: Path) -> str | None:
    """Why ``store`` disagrees with ``reference``, a twin of part of its
    input: each twin record must be in ``store`` and equal to it but
    for wall-time fields. Simulation records match by fingerprint,
    cells by campaign identity, as ``diff_stores.diff`` matches them."""
    def keyed(path: Path) -> dict:
        return {(record["kind"], diff_stores.cell_key(record["payload"])
                 if record["kind"] == "cell" else fp):
                diff_stores.strip_times(record["payload"])
                for fp, record in diff_stores.load(path).items()}
    twin, ours = keyed(reference), keyed(store)
    if not twin:
        return "the reference twin stored nothing"
    wrong = [key for key, payload in twin.items() if ours.get(key) != payload]
    if not wrong:
        return None
    kind, key = wrong[0]
    state = "missing" if wrong[0] not in ours else "different"
    return (f"{len(wrong)} of {len(twin)} reference records missing or "
            f"different, first: {kind} {key} {state}")


def twin_failure(diff_stores, twin: Path, store: Path) -> str | None:
    """The diff report when ``store`` and its local twin disagree."""
    report = io.StringIO()
    with contextlib.redirect_stdout(report), \
            contextlib.redirect_stderr(report):
        status = diff_stores.diff(twin, store, ignore_order=True)
    return None if status == 0 else report.getvalue().strip()
