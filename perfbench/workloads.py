"""The three workloads: set-up, the timed loop, the traced run, the checks.

All three are serial closed loops with one caller: each call starts when
the previous one returns.  A run makes whole passes over the workload's
files until ``seconds`` have gone by, and every file of every pass is one
latency sample.  ``course-batch`` runs its files through
``explain_many(jobs=1)``, with a fresh empty store per pass, and takes each
file's latency from ``BatchEntry.elapsed_seconds``; its traced run also
times one ``explain_many(jobs=<cpus>)`` pass for the ``parallel.*``
metrics.  Timed at ``jobs=<cpus>``, its end-to-end figures spread by a
fifth across seeds on a 2-vCPU host: two worker processes share the host
unevenly, and a calibration cannot follow both.

End-to-end timings are scaled to the reference speed of :mod:`calibrate`:
passes calibrate every :data:`CALIBRATE_EVERY` files and scale each block
of calls by the calibrations on either side of it.  Per-layer self times
are left unscaled: they are shares of one traced run.

Answers are logged as they arrive (outside the timed calls) and checked
against the reference after the timed region; see :mod:`reference`.
"""

from __future__ import annotations

import gc
import os
import pickle
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.seminal import ExplainResult, explain, explain_many
from repro.corpus.grading import grade_seminal
from repro.obs import MetricsRegistry

from calibrate import kernel_seconds, slowdown
from inputs import Item, course_items, deep_items, deep_side, fig7_items
from layers import INFER_CALLS, LayerTrace
from reference import AnswerLog

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Files explained once at the end of set-up, so lazy imports and first-use
#: costs are paid before timing.
WARMUP_FILES = 3
#: Files timed between two calibrations in a serial pass.
CALIBRATE_EVERY = 16
#: Empty stores made per course-batch set-up: one per timed pass, at most
#: (a traced run uses three).
COURSE_STORES = 4

#: Where runs keep their stores; removed when the run ends.
WORK_ROOT = Path(__file__).resolve().parent / ".work"

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_files_per_s": "1/s",
    "good_message_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "parse.self_s": "s",
    "parse.calls": "count",
    "searcher.self_s": "s",
    "searcher.oracle_calls": "count",
    "searcher.accept_ratio": "ratio",
    "enumerator.self_s": "s",
    "enumerator.candidates": "count",
    "oracle.self_s": "s",
    "oracle.calls": "count",
    "oracle.reuse_ratio": "ratio",
    "depth_probe.self_s": "s",
    "depth_probe.calls": "count",
    "keyer.self_s": "s",
    "keyer.calls": "count",
    "infer.self_s": "s",
    "infer.calls": "count",
    "infer.decls_checked": "count",
    "infer.decls_replayed": "count",
    "ranker.self_s": "s",
    "render.self_s": "s",
    "store.open_s": "s",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.flush_s": "s",
    "store.hits": "count",
    "store.writes": "count",
    "store.hit_ratio": "ratio",
    "parallel.worker_busy_s": "s",
    "parallel.overhead_s": "s",
    "parallel.result_bytes": "bytes",
    "parallel.serial_reruns": "count",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


@dataclass
class RunResult:
    """What one benchmark run reports."""

    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    #: Human-readable lines printed before the JSON result.
    notes: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _latency_metrics(samples: List[float]) -> Dict[str, float]:
    if len(samples) > 1:
        p90 = statistics.quantiles(samples, n=10)[8]
    else:
        p90 = samples[0]
    return {
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_p90_ms": p90 * 1e3,
    }


def _is_good(item: Item, result) -> bool:
    """Whether the displayed report grades 2 (good location, accurate)."""
    if not isinstance(result, ExplainResult):
        return False
    return grade_seminal(item.truth, result).score == 2


def _layer_metrics(
    trace: LayerTrace,
    registry: MetricsRegistry,
    passes: int,
    traced_wall: float,
    overhead_frac: float,
    parallel: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics per pass over the workload's files."""
    self_s = trace.self_s
    calls = trace.calls

    def per_pass(value: float) -> float:
        return value / passes

    checks = calls["oracle.checks"]
    real_calls = registry.value("oracle.calls")
    # Checks a reuse tier answered: trail speculation, decl-table replay and
    # the copying snapshot path, each entered once per check it serves.
    reused = calls["infer.speculate"] + calls["infer.replay"] + calls["infer.snapshot_check"]
    hits = registry.value("oracle.store.hits")
    misses = registry.value("oracle.store.misses")
    values = {
        "parse.self_s": per_pass(self_s["parse"]),
        "parse.calls": per_pass(calls["parse.calls"]),
        "searcher.self_s": per_pass(self_s["searcher"]),
        "searcher.oracle_calls": per_pass(checks),
        "searcher.accept_ratio": _ratio(calls["oracle.accepted"], checks),
        "enumerator.self_s": per_pass(self_s["enumerator"]),
        "enumerator.candidates": per_pass(calls["enumerator.candidates"]),
        "oracle.self_s": per_pass(self_s["oracle"]),
        "oracle.calls": per_pass(real_calls),
        "oracle.reuse_ratio": _ratio(reused, real_calls),
        "depth_probe.self_s": per_pass(self_s["depth_probe"]),
        "depth_probe.calls": per_pass(calls["depth_probe.calls"]),
        "keyer.self_s": per_pass(self_s["keyer"]),
        "keyer.calls": per_pass(calls["keyer.calls"]),
        "infer.self_s": per_pass(self_s["infer"]),
        "infer.calls": per_pass(sum(calls[name] for name in INFER_CALLS)),
        "infer.decls_checked": per_pass(registry.value("oracle.decl.checked")),
        "infer.decls_replayed": per_pass(registry.value("oracle.decl.replayed")),
        "ranker.self_s": per_pass(self_s["ranker"]),
        "render.self_s": per_pass(self_s["render"]),
        "store.open_s": per_pass(self_s["store.open"]),
        "store.get_s": per_pass(self_s["store.get"]),
        "store.put_s": per_pass(self_s["store.put"]),
        "store.flush_s": per_pass(self_s["store.flush"]),
        "store.hits": per_pass(hits),
        "store.writes": per_pass(registry.value("oracle.store.writes")),
        "store.hit_ratio": _ratio(hits, hits + misses),
        "parallel.worker_busy_s": 0.0,
        "parallel.overhead_s": 0.0,
        "parallel.result_bytes": 0.0,
        "parallel.serial_reruns": 0.0,
        "trace.coverage": _ratio(trace.covered_s, traced_wall),
        "trace.overhead_frac": overhead_frac,
    }
    values.update(parallel)
    return values


def _checked(log: AnswerLog, jobs: int, metrics: Dict[str, float],
             notes: List[str]) -> RunResult:
    """Check the logged answers against the reference (untimed)."""
    start = time.perf_counter()
    failed = log.failed(jobs)
    notes.append(f"reference check of {len(log.first)} distinct sources: "
                 f"{time.perf_counter() - start:.1f} s")
    return RunResult(len(log.attempts), failed, _with_units(metrics), notes, log.problems)


def _raw_notes(raw: List[float], scaled: List[float], throughput: float) -> List[str]:
    """The timings as measured, before scaling to the reference speed."""
    values = _latency_metrics(raw)
    return [
        f"unscaled: p50 {values['latency_p50_ms']:.3f} ms, "
        f"p90 {values['latency_p90_ms']:.3f} ms, {throughput:.3f} files/s; host "
        f"{statistics.median(raw) / statistics.median(scaled):.2f}x slower than "
        f"the reference speed"
    ]


def _layer_notes(trace: LayerTrace, passes: int, traced_wall: float) -> List[str]:
    shares = sorted(trace.self_s.items(), key=lambda kv: -kv[1])
    return ["self time by layer per pass (share of traced wall clock):"] + [
        f"  {bucket:<12} {seconds / passes:9.4f} s  {_ratio(seconds, traced_wall):6.1%}"
        for bucket, seconds in shares
    ]


# ---------------------------------------------------------------------------
# Serial workloads: fig7-corpus and deep-weak
# ---------------------------------------------------------------------------


@dataclass
class SerialInputs:
    items: List[Item]
    #: One explain call on an item; keyword arguments go to ``explain``.
    call: Callable


def _serial_setup(make_items: Callable[[], List[Item]], as_ast: bool) -> SerialInputs:
    items = make_items()
    if as_ast:
        def call(item, **kwargs):
            return explain(item.program, **kwargs)
    else:
        def call(item, **kwargs):
            return explain(item.source, **kwargs)
    for item in items[:WARMUP_FILES]:
        call(item)
    return SerialInputs(items, call)


def _serial_pass(inputs: SerialInputs, samples: List[float], raw: List[float],
                 record: Callable[[Item, object], None], **kwargs) -> Tuple[float, float]:
    """One pass over every file, calibrating every :data:`CALIBRATE_EVERY`
    files.  Appends each call's scaled and raw seconds; returns the pass's
    summed raw and scaled call wall clock."""
    clock = time.perf_counter
    call = inputs.call
    items = inputs.items
    raw_wall = scaled_wall = 0.0
    before = kernel_seconds()
    for first in range(0, len(items), CALIBRATE_EVERY):
        block = []
        for item in items[first:first + CALIBRATE_EVERY]:
            start = clock()
            try:
                result = call(item, **kwargs)
            except Exception as err:  # a raising call is a failed attempt
                result = err
            block.append(clock() - start)
            record(item, result)
        after = kernel_seconds()
        factor = slowdown((before + after) / 2)
        before = after
        raw.extend(block)
        samples.extend(seconds / factor for seconds in block)
        raw_wall += sum(block)
        scaled_wall += sum(block) / factor
    return raw_wall, scaled_wall


def _group_notes(items: List[Item], samples: List[float],
                 group: Callable[[Item], str]) -> List[str]:
    """Median latency per group of files (samples are in item order)."""
    by_group: Dict[str, List[float]] = {}
    for index, sample in enumerate(samples):
        by_group.setdefault(group(items[index % len(items)]), []).append(sample)
    return [
        f"  {name}: {len(values)} samples, p50 {statistics.median(values) * 1e3:.3f} ms"
        for name, values in sorted(by_group.items())
    ]


def _run_serial(inputs: SerialInputs, seconds: float, traced: bool,
                group: Optional[Callable[[Item], str]] = None) -> RunResult:
    log = AnswerLog()
    samples: List[float] = []
    raw: List[float] = []
    grades: List[bool] = []
    walls: List[Tuple[float, float]] = []
    traced_walls: List[Tuple[float, float]] = []
    trace = LayerTrace()
    registry = MetricsRegistry()

    def record(item: Item, result) -> None:
        log.record(item.source, result)
        if len(grades) < len(inputs.items):
            grades.append(_is_good(item, result))

    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(_serial_pass(inputs, samples, raw, record))
        if traced:
            # Answers of the traced pass are logged once the wrappers are
            # gone, so rendering them for the check is not traced.
            pending: List[Tuple[Item, object]] = []
            with trace.installed():
                traced_walls.append(_serial_pass(
                    inputs, [], [],
                    lambda item, result: pending.append((item, result)),
                    metrics=registry,
                ))
            for item, result in pending:
                log.record(item.source, result)
    peak_rss = _peak_rss_mb()
    files = len(inputs.items)
    notes = [f"files {files}, passes {len(walls)} untraced"
             + (f" + {len(traced_walls)} traced" if traced else "")
             + ", serial closed loop with one caller"]
    if traced:
        traced_raw = sum(wall for wall, _ in traced_walls)
        overhead = (statistics.median(scaled for _, scaled in traced_walls)
                    / statistics.median(scaled for _, scaled in walls) - 1.0)
        metrics = _layer_metrics(trace, registry, len(traced_walls), traced_raw,
                                 overhead, {})
        notes += _layer_notes(trace, len(traced_walls), traced_raw)
    else:
        metrics = _latency_metrics(samples)
        metrics["throughput_files_per_s"] = files / statistics.median(
            scaled for _, scaled in walls)
        metrics["good_message_rate"] = sum(grades) / files
        metrics["peak_rss_mb"] = peak_rss
        notes.append(f"latency samples {len(samples)} (every call of every pass)")
        notes += _raw_notes(raw, samples,
                            files / statistics.median(wall for wall, _ in walls))
        if group is not None:
            notes += _group_notes(inputs.items, samples, group)
    return _checked(log, cpu_count(), metrics, notes)


# ---------------------------------------------------------------------------
# course-batch
# ---------------------------------------------------------------------------


@dataclass
class CourseInputs:
    items: List[Item]
    #: Empty store directories, one per timed pass.
    stores: List[str]


def _course_setup(seed: int, scale: float, work: Path) -> CourseInputs:
    items = course_items(seed, scale)
    stores = [tempfile.mkdtemp(prefix="store-", dir=work) for _ in range(COURSE_STORES)]
    warm = tempfile.mkdtemp(prefix="warm-", dir=work)
    explain_many([item.source for item in items[:WARMUP_FILES]], jobs=1, store=warm)
    shutil.rmtree(warm)
    return CourseInputs(items, stores)


def _course_pass(items: List[Item], store: str, **kwargs):
    """One serial pass through ``explain_many(jobs=1)``, called on blocks of
    :data:`CALIBRATE_EVERY` files (the same calls one ``jobs=1`` call makes)
    with a calibration between blocks.  Returns the entries, the raw and
    scaled wall clock, and each file's scaled latency."""
    entries: list = []
    scaled: List[float] = []
    raw_wall = scaled_wall = 0.0
    before = kernel_seconds()
    for first in range(0, len(items), CALIBRATE_EVERY):
        block = items[first:first + CALIBRATE_EVERY]
        start = time.perf_counter()
        got = explain_many([item.source for item in block],
                           [item.label for item in block],
                           jobs=1, store=store, **kwargs)
        elapsed = time.perf_counter() - start
        after = kernel_seconds()
        factor = slowdown((before + after) / 2)
        before = after
        entries += got
        scaled += [entry.elapsed_seconds / factor for entry in got]
        raw_wall += elapsed
        scaled_wall += elapsed / factor
    return entries, raw_wall, scaled_wall, scaled


def _log_entries(items: List[Item], entries, log: AnswerLog) -> None:
    for item, entry in zip(items, entries):
        log.record_entry(item.source, entry)


def _run_course(inputs: CourseInputs, seconds: float, traced: bool) -> RunResult:
    jobs = cpu_count()
    items = inputs.items
    stores = list(inputs.stores)
    log = AnswerLog()
    unique = len({item.source for item in items})
    notes = [
        f"files {len(items)}, distinct sources {unique}, repeats of an earlier "
        f"source {len(items) - unique} ({_ratio(len(items) - unique, len(items)):.1%}); "
        f"explain_many into a fresh empty store per pass",
    ]
    if traced:
        start = time.perf_counter()
        entries = explain_many([item.source for item in items],
                               [item.label for item in items],
                               jobs=jobs, store=stores.pop())
        wall = time.perf_counter() - start
        _log_entries(items, entries, log)
        busy = sum(entry.elapsed_seconds for entry in entries)
        parallel = {
            "parallel.worker_busy_s": busy,
            "parallel.overhead_s": jobs * wall - busy,
            "parallel.result_bytes": float(sum(len(pickle.dumps(e)) for e in entries)),
            "parallel.serial_reruns": float(
                sum(1 for entry in entries if entry.worker_pid == os.getpid())
            ),
        }
        entries, _, untraced_wall, _ = _course_pass(items, stores.pop())
        _log_entries(items, entries, log)
        trace = LayerTrace()
        registry = MetricsRegistry()
        with trace.installed():
            entries, traced_raw, traced_wall, _ = _course_pass(
                items, stores.pop(), metrics=registry
            )
        _log_entries(items, entries, log)
        metrics = _layer_metrics(trace, registry, 1, traced_raw,
                                 traced_wall / untraced_wall - 1, parallel)
        notes.append(f"layers from one serial pass; parallel.* from one "
                     f"explain_many(jobs={jobs}) pass")
        notes += _layer_notes(trace, 1, traced_raw)
    else:
        samples: List[float] = []
        walls: List[Tuple[float, float]] = []
        good = 0
        start = time.perf_counter()
        while stores and (not walls or time.perf_counter() - start < seconds):
            entries = None  # free the last pass's results before the next
            entries, raw_wall, scaled_wall, scaled = _course_pass(items, stores.pop())
            walls.append((raw_wall, scaled_wall))
            samples.extend(scaled)
            if len(walls) == 1:
                good = sum(_is_good(i, e.result) for i, e in zip(items, entries))
            _log_entries(items, entries, log)
        files = len(items)
        metrics = _latency_metrics(samples)
        metrics["throughput_files_per_s"] = files / statistics.median(
            scaled for _, scaled in walls)
        metrics["good_message_rate"] = good / files
        metrics["peak_rss_mb"] = _peak_rss_mb()
        notes.append(f"passes {len(walls)}, latency samples {len(samples)} "
                     f"(BatchEntry.elapsed_seconds of every file of every pass)")
        raw = [entry.elapsed_seconds for entry in entries]
        notes += _raw_notes(raw, scaled,
                            files / statistics.median(raw for raw, _ in walls))
    return _checked(log, jobs, metrics, notes)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


WORKLOADS = ("fig7-corpus", "deep-weak", "course-batch")


def _with_units(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    units = {**END_TO_END_UNITS, **LAYER_UNITS}
    return {name: (float(value), units[name]) for name, value in values.items()}


def _timed_setup(make: Callable[[], object]) -> Tuple[object, float]:
    """Run set-up :data:`SETUP_REPEATS` times; keep the last inputs and the
    median set-up time, scaled to the reference speed.

    The inputs are then frozen out of the cyclic garbage collector.  A real
    caller holds one program, not a corpus; left in the tracked heap, the
    benchmark's own inputs would make every full collection during the
    timed calls scan them (about a quarter of fig7-corpus wall clock).
    """
    times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        before = kernel_seconds()
        start = time.perf_counter()
        inputs = make()
        elapsed = time.perf_counter() - start
        times.append(elapsed / slowdown((before + kernel_seconds()) / 2))
    gc.collect()
    gc.freeze()
    return inputs, statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale: float = 1.0) -> RunResult:
    """One benchmark run.  ``scale`` shrinks the inputs (tests only)."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        if name == "fig7-corpus":
            inputs, setup_s = _timed_setup(
                lambda: _serial_setup(lambda: fig7_items(seed, scale), as_ast=True)
            )
            result = _run_serial(inputs, seconds, traced)
        elif name == "deep-weak":
            inputs, setup_s = _timed_setup(
                lambda: _serial_setup(lambda: deep_items(seed, scale), as_ast=False)
            )
            result = _run_serial(inputs, seconds, traced, group=deep_side)
            early = sum(1 for item in inputs.items if deep_side(item) == "early")
            result.notes.append(
                f"ill-typed decl in the first fifth: {early} files, "
                f"in the last fifth: {len(inputs.items) - early} files"
            )
        elif name == "course-batch":
            inputs, setup_s = _timed_setup(lambda: _course_setup(seed, scale, work))
            result = _run_course(inputs, seconds, traced)
        else:
            raise ValueError(f"unknown workload {name!r}")
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    if not traced:
        result.metrics["setup_s"] = (setup_s, "s")
    return result
