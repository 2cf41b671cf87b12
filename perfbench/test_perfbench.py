"""Tests for the benchmark's own code: normalisation, failure counting,
span rollup and the metric tables. None of them runs a campaign.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostprobe  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, rollup, self_times  # noqa: E402

ROOT = HERE.parent


# -- normalisation -------------------------------------------------------

def test_normalise_scales_times_and_rates_oppositely():
    # A host at half reference speed (probe twice as slow, factor 0.5):
    # its raw seconds are twice reference seconds, its rates half.
    factor = 0.5
    assert hostprobe.normalise(4.0, "s", factor) == pytest.approx(2.0)
    assert hostprobe.normalise(100.0, "1/s", factor) == pytest.approx(200.0)
    assert hostprobe.normalise(512.0, "MB", factor) == 512.0
    assert hostprobe.normalise(7, "count", factor) == 7


def test_window_factor_weights_segments_by_overlap():
    ref = hostprobe.REFERENCE_PROBE_S
    # One process: a fast segment [1, 3] (probes ref/2 on both ends)
    # and a slow one [3.1, 4] (probes 2ref, ends averaged).
    samples = [(0.9, 1.0, ref / 2), (3.0, 3.1, ref / 2), (4.0, 4.1, 2 * ref)]
    assert hostprobe.window_factor([samples], 1.0, 3.0) == pytest.approx(2.0)
    # [2, 4]: 1 s at factor 2, 0.9 s at factor ref / mean(ref/2, 2ref) = 0.8
    assert hostprobe.window_factor([samples], 2.0, 4.0) \
        == pytest.approx((1.0 * 2.0 + 0.9 * 0.8) / 1.9)
    # A second process covering the window counts just as much.
    other = [(0.0, 1.0, ref), (3.0, 3.1, ref)]
    assert hostprobe.window_factor([samples, other], 1.0, 3.0) \
        == pytest.approx(1.5)
    with pytest.raises(ValueError):
        hostprobe.window_factor([samples], 5.0, 6.0)


def test_probe_clock_samples_after_calls_once_the_gap_has_passed(
        monkeypatch):
    monkeypatch.setattr(hostprobe, "PROBE_GAP_S", 3600)
    clock = hostprobe.ProbeClock()
    work = clock.after(lambda x: x + 1)
    assert [work(1), work(2)] == [2, 3]
    assert len(clock.samples) == 1  # the first call, then the gap holds
    start, end, seconds = clock.samples[0]
    assert end - start >= seconds > 0
    assert hostprobe.probe_time(clock.samples, start, end) \
        == pytest.approx(end - start)
    assert hostprobe.probe_time(clock.samples, end, end + 1) == 0.0
    monkeypatch.setattr(hostprobe, "PROBE_GAP_S", 0)
    work(3)
    assert len(clock.samples) == 2


# -- correctness checks counted as failed operations ---------------------

def _cell(seed: int, masked: int, wall: float) -> dict:
    return {"gpu": "GTX 480", "workload": "vectoradd", "scale": "small",
            "scheduler": "rr", "samples": 10, "seed": seed,
            "fault_model": "transient", "fi_time_s": wall,
            "fi": {"register_file": {"samples": 10, "masked": masked,
                                     "resimulated": 3, "wall_time_s": wall}}}


def _store(path: Path, cells: list[dict]) -> Path:
    records = [{"fp": f"g{i}", "kind": "golden", "payload": {"cycles": i}}
               for i in range(2)]
    records += [{"fp": f"c{i}", "kind": "cell", "payload": cell}
                for i, cell in enumerate(cells)]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


@pytest.fixture
def diff_stores():
    return checks.load_diff_stores(ROOT)


def test_wall_times_do_not_change_the_digest(tmp_path, diff_stores):
    first = checks.store_summary(
        _store(tmp_path / "a.jsonl", [_cell(1, 9, 0.5), _cell(2, 8, 0.1)]),
        diff_stores)
    second = checks.store_summary(
        _store(tmp_path / "b.jsonl", [_cell(2, 8, 3.0), _cell(1, 9, 2.0)]),
        diff_stores)
    assert first["digest"] == second["digest"]
    assert (first["cells"], first["injections"], first["live"]) == (2, 20, 6)
    assert checks.repetition_failures(second, first["digest"], 2, 20) == []


def test_corrupted_cell_payload_counts_as_failed(tmp_path, diff_stores):
    good = checks.store_summary(
        _store(tmp_path / "a.jsonl", [_cell(1, 9, 0.5), _cell(2, 8, 0.1)]),
        diff_stores)
    bad = checks.store_summary(
        _store(tmp_path / "b.jsonl", [_cell(1, 9, 0.5), _cell(2, 7, 0.1)]),
        diff_stores)
    ledger = checks.Ledger()
    ledger.record(checks.repetition_failures(good, good["digest"], 2, 20))
    ledger.record(checks.repetition_failures(bad, good["digest"], 2, 20))
    assert (ledger.attempted, len(ledger.failures)) == (2, 1)
    assert "digest" in ledger.failures[0]


def test_wrong_injection_count_counts_as_failed(tmp_path, diff_stores):
    summary = checks.store_summary(
        _store(tmp_path / "a.jsonl", [_cell(1, 9, 0.5)]), diff_stores)
    problems = checks.repetition_failures(summary, summary["digest"], 2, 20)
    assert len(problems) == 2  # one cell short, so 10 injections short


def test_resume_that_executes_jobs_counts_as_failed():
    ledger = checks.Ledger()
    for resume, executed in enumerate([0, 3, 0], 1):
        ledger.record(checks.resume_failures(resume, executed))
    assert ledger.attempted == 3
    assert ledger.failures == ["resume 2 executed 3 jobs"]


def test_reference_twin_must_be_contained_unchanged(tmp_path, diff_stores):
    # The twin ran part of the input (seed 1) on the reference path.
    twin = _store(tmp_path / "twin.jsonl", [_cell(1, 9, 0.5)])
    whole = _store(tmp_path / "whole.jsonl", [_cell(2, 8, 0.1),
                                              _cell(1, 9, 2.0)])
    changed = _store(tmp_path / "changed.jsonl", [_cell(1, 8, 0.5),
                                                  _cell(2, 8, 0.1)])
    missing = _store(tmp_path / "missing.jsonl", [_cell(2, 8, 0.1)])
    assert checks.reference_failure(diff_stores, twin, whole) is None
    assert "cell" in checks.reference_failure(diff_stores, twin, changed)
    assert "missing" in checks.reference_failure(diff_stores, twin, missing)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert checks.reference_failure(diff_stores, empty, whole) is not None


def test_twin_comparison_ignores_order_but_not_content(tmp_path,
                                                       diff_stores):
    twin = _store(tmp_path / "twin.jsonl", [_cell(1, 9, 0.5),
                                            _cell(2, 8, 0.1)])
    same = _store(tmp_path / "same.jsonl", [_cell(2, 8, 1.0),
                                            _cell(1, 9, 1.0)])
    other = _store(tmp_path / "other.jsonl", [_cell(1, 9, 0.5),
                                              _cell(2, 6, 0.1)])
    assert checks.twin_failure(diff_stores, twin, same) is None
    assert "differ" in checks.twin_failure(diff_stores, twin, other)


# -- spans ---------------------------------------------------------------

def _span(span_id, name, start, end, parent=None):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "campaign", 0.0, 10.0),
        _span(1, "job", 1.0, 4.0, parent=0),
        _span(2, "job", 3.0, 6.0, parent=0),   # overlaps span 1
        _span(3, "digest", 2.0, 3.0, parent=1),
        _span(4, "store", 9.5, 11.0, parent=0),  # clipped to the parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)


def test_rollup_sums_names_across_processes():
    driver = [_span(0, "campaign", 0.0, 4.0), _span(1, "job", 1.0, 2.0, 0)]
    worker = [_span(0, "job", 5.0, 8.0), _span(1, "digest", 6.0, 7.0, 0)]
    roll = rollup([driver, worker])
    assert roll["job"] == {"count": 2, "total_s": pytest.approx(4.0),
                           "self_s": pytest.approx(3.0)}
    assert roll["campaign"]["self_s"] == pytest.approx(3.0)


def test_tracer_records_parents_and_control_flow_exceptions():
    tracer = Tracer(rep=1)

    def inner():
        raise KeyError("converged")

    outer = tracer.wrap(lambda: tracer.wrap(inner, "inner")(), "outer")
    with pytest.raises(KeyError):
        outer()
    first, second = tracer.closed_spans()
    assert (first["name"], second["parent"]) == ("outer", first["id"])
    assert second["raised"] == "KeyError"
    assert first["rep"] == second["rep"] == 1


def test_layer_metrics_cover_every_declared_metric():
    driver = [
        _span(0, "engine.campaign", 0.0, 10.0),
        _span(1, "reliability.golden", 0.0, 2.0, 0),
        _span(2, "reliability.prune", 2.0, 5.0, 0),
        _span(3, "engine.shard", 5.0, 9.0, 0),
        {**_span(4, "reliability.resim", 5.0, 7.0, 3)},
        {**_span(5, "checkpoint.suffix", 5.5, 7.0, 4),
         "raised": "ConvergedToGolden"},
        _span(6, "reliability.resim", 7.0, 9.0, 3),
    ]
    store = {"live": 2, "injections": 8, "bytes": 100}
    profile = {"sass": {"winstr": 1000, "sim_s": 2.0}}
    metrics = layers.layer_metrics([driver], profile, store, 10.0, 8.0)
    assert set(metrics) | {"first_cell_s", "resume_s"} \
        == set(layers.PER_LAYER)
    assert metrics["reliability.resims"] == 2
    assert metrics["checkpoint.early_exit_frac"] == pytest.approx(0.5)
    assert metrics["reliability.prune_share"] == pytest.approx(3.0 / 9.0)
    assert metrics["engine.scheduler.overhead_s"] == pytest.approx(1.0)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.25)
    assert metrics["trace.coverage_frac"] == pytest.approx(0.9)
    assert metrics["sim.winstr_per_s.sass"] == pytest.approx(500.0)
    assert metrics["engine.service.lease_rtt_s.p50"] == 0.0


# -- the declared benchmark ------------------------------------------------

def test_benchmark_json_lists_the_driver_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == layers.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} \
        == set(run.wl.WORKLOADS)
    assert set(layers.INTERACTIONS) == set(layers.PER_LAYER)


def test_driver_never_imports_repro():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] "
            "== 'repro'))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
