import contextlib
import json
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
import types

import pytest

from qrcensus import kernel, laws
from qrcensus.census import ResidueCensus
from qrcensus.laws import (
    CheckpointError,
    Classification,
    LawReport,
    SweepOutcome,
    ThresholdMode,
    sweep,
)
from qrcensus.modmath import OddModulus
from qrcensus.redundancy import CollisionPair
from qrcensus.report import TableSpec


class _Stop(Exception):
    """Stands in for an interrupt that lands right after a checkpoint."""


def _stop_after_writes(monkeypatch, writes):
    """Make laws._write_checkpoint raise _Stop once its `writes`-th real
    write is on disk; later writes go through."""
    real = laws._write_checkpoint
    done = 0

    def write(*args):
        nonlocal done
        real(*args)
        done += 1
        if done == writes:
            raise _Stop

    monkeypatch.setattr(laws, "_write_checkpoint", write)


def _record_writes(monkeypatch):
    """The next_unscanned of each checkpoint laws._write_checkpoint writes."""
    real = laws._write_checkpoint
    written = []

    def write(path, mode, lo, hi, next_unscanned, counterexamples):
        real(path, mode, lo, hi, next_unscanned, counterexamples)
        written.append(next_unscanned)

    monkeypatch.setattr(laws, "_write_checkpoint", write)
    return written


class TestSweepBasics:
    def test_corrected_3_51(self):
        out = sweep(3, 51, ThresholdMode.CORRECTED)
        assert out.counterexamples == (9,)
        assert out.scanned == 25

    def test_strict_3_51_finds_4k1_primes(self):
        out = sweep(3, 51, ThresholdMode.STRICT_QUARTER)
        assert out.counterexamples == (5, 13, 17, 29, 37, 41)

    def test_floor_3_51(self):
        out = sweep(3, 51, ThresholdMode.FLOOR_GEQ)
        assert out.counterexamples == (9, 15, 27)

    def test_single_modulus(self):
        out = sweep(3, 3, ThresholdMode.CORRECTED)
        assert out.counterexamples == () and out.scanned == 1

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            sweep(51, 3)
        with pytest.raises(ValueError):
            sweep(4, 9)
        with pytest.raises(ValueError):
            sweep(3, 9, workers=0)
        with pytest.raises(ValueError):
            sweep(3, 9, resume=True)  # no checkpoint path

    def test_rejects_hi_at_census_ceiling(self, tmp_path):
        path = tmp_path / "sweep.json"
        with pytest.raises(ValueError, match="2\\*\\*31"):
            sweep(3, kernel.MAX_DENSE_MODULUS + 1, checkpoint=str(path))
        assert not path.exists()

    def test_counterexamples_stream_in_order(self, small_chunks):
        seen = []
        small_chunks(64)
        out = sweep(3, 2001, ThresholdMode.FLOOR_GEQ, on_counterexample=seen.append)
        assert seen == list(out.counterexamples) == [9, 15, 27]


class TestPoolImport:
    def test_import_does_not_load_process_pool(self):
        code = (
            "import qrcensus, sys; "
            "assert 'concurrent.futures.process' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))

    def test_cli_import_loads_no_dataclasses_pool_or_logging(self):
        # Only what the import itself adds counts: site may preload modules.
        code = (
            "import sys; before = set(sys.modules); import qrcensus.cli; "
            "heavy = {'dataclasses', 'concurrent.futures', 'logging'}; "
            "loaded = sorted(heavy & (set(sys.modules) - before)); "
            "assert not loaded, loaded"
        )
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


# Each public record with valid arguments, and arguments it must reject.
_RECORDS = [
    pytest.param(OddModulus, (7,),
                 [((8,), ValueError), ((1,), ValueError), ((True,), TypeError),
                  ((7.0,), TypeError)], id="OddModulus"),
    pytest.param(ResidueCensus, (7, frozenset({1, 2, 4}), 2, 1, 1, 2, 7, 14, 3, 3, 4, 11,
                                 frozenset()), [], id="ResidueCensus"),
    pytest.param(Classification, (9, ThresholdMode.CORRECTED, 2, True, False), [],
                 id="Classification"),
    pytest.param(LawReport, ("L1_EXACT_4K1", (("p", 5),), 1, 1, True), [], id="LawReport"),
    pytest.param(SweepOutcome, (3, 51, ThresholdMode.CORRECTED, (9,), 25, 0.5), [],
                 id="SweepOutcome"),
    pytest.param(CollisionPair, (35, 6, 1, 1),
                 [((35, 6, 2, 1), ValueError), ((35, 1, 6, 1), ValueError),
                  ((35, 6, 1, 2), ValueError), ((36, 6, 1, 1), ValueError),
                  ((35.0, 6, 1, 1), TypeError)], id="CollisionPair"),
    pytest.param(TableSpec, (7,), [], id="TableSpec"),
]


@pytest.mark.parametrize("record, args, rejects", _RECORDS)
def test_records_are_immutable_validated_values(record, args, rejects):
    rec = record(*args)
    with pytest.raises(AttributeError):
        setattr(rec, record._fields[0], args[0])
    twin = record(*args)
    assert rec == twin and hash(rec) == hash(twin)
    for bad, exc in rejects:
        with pytest.raises(exc):
            record(*bad)
        with pytest.raises(exc):
            rec._replace(**dict(zip(record._fields, bad)))


_USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)


def _pool(workers):
    """The sizes pool_sizes records for one pool sweep asking for `workers`
    processes: none where one CPU is all there is."""
    size = min(workers, _USABLE_CPUS) - 1
    return [size] if size else []


@pytest.fixture
def pool_sizes(monkeypatch):
    """Pools every range of more than one chunk, however few its walk steps
    (laws._POOL_MIN_STEPS = 0); the sizes of the pools the sweeps start."""
    import concurrent.futures

    monkeypatch.setattr(laws, "_POOL_MIN_STEPS", 0)
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.fixture
def inline_pool(monkeypatch):
    """A stand-in pool that records its sizes and the chunks submitted to it,
    and runs each chunk inline: a real pool would fork every requested
    worker at its first submit."""
    import concurrent.futures

    record = types.SimpleNamespace(sizes=[], submitted=[], shutdowns=[])

    class InlinePool:
        def __init__(self, max_workers, initializer=None):
            record.sizes.append(max_workers)

        def shutdown(self, wait=True, *, cancel_futures=False):
            record.shutdowns.append(cancel_futures)

        def submit(self, fn, *args):
            record.submitted.append(args[:2])
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return record


class TestParallelSweep:
    def test_workers_do_not_change_the_result(self, pool_sizes, small_chunks):
        small_chunks(128)
        serial = sweep(3, 4001, ThresholdMode.STRICT_QUARTER)
        parallel = sweep(3, 4001, ThresholdMode.STRICT_QUARTER, workers=4)
        assert serial.counterexamples == parallel.counterexamples
        assert serial.scanned == parallel.scanned
        assert pool_sizes == _pool(4)

    def test_workers_with_callback_order(self, pool_sizes, small_chunks):
        seen = []
        small_chunks(32)
        sweep(3, 4001, ThresholdMode.FLOOR_GEQ, workers=3, on_counterexample=seen.append)
        assert seen == [9, 15, 27]
        assert pool_sizes == _pool(3)

    def test_pool_size_clamped_to_usable_cpus(self, monkeypatch, pool_sizes, inline_pool,
                                              small_chunks):
        cut = []
        real_cut = laws._chunk_ranges

        def recording_cut(*args):
            for chunk in real_cut(*args):
                cut.append(chunk)
                yield chunk

        monkeypatch.setattr(laws, "_chunk_ranges", recording_cut)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        small_chunks(50)
        out = sweep(3, 2001, ThresholdMode.FLOOR_GEQ, workers=10**6)
        # Three usable CPUs: the caller scans beside a pool of two workers,
        # and scans at least one chunk of the pool's own cut itself, the
        # last among them.
        assert inline_pool.sizes == [2]
        assert cut == list(real_cut(3, 2001, 50, 3))
        assert 0 < len(inline_pool.submitted) < len(cut)
        assert cut[-1] not in inline_pool.submitted
        assert out.jobs == 3
        assert out.counterexamples == (9, 15, 27)

    def test_caller_and_pool_match_the_serial_run(self, pool_sizes, small_chunks):
        serial_seen, pool_seen = [], []
        small_chunks(32)
        serial = sweep(3, 4001, ThresholdMode.STRICT_QUARTER,
                       on_counterexample=serial_seen.append)
        pooled = sweep(3, 4001, ThresholdMode.STRICT_QUARTER, workers=2,
                       on_counterexample=pool_seen.append)
        assert pooled.counterexamples == serial.counterexamples
        assert pool_seen == serial_seen == list(serial.counterexamples)
        assert serial.jobs == 1
        assert pooled.jobs == min(2, _USABLE_CPUS)
        assert pool_sizes == _pool(2)

    @pytest.mark.parametrize("over", [False, True], ids=["under", "over"])
    def test_pool_starts_at_the_backend_threshold(self, monkeypatch, inline_pool,
                                                  small_chunks, over):
        # The odd moduli 3..2m+1 hold m(m+1)/2 walk steps: take the largest
        # m that stays under the backend's threshold, or the next one.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(laws, "_scan_chunk", lambda lo, hi, mode: [])
        threshold = laws._POOL_MIN_STEPS
        m = (math.isqrt(8 * threshold - 7) - 1) // 2 + over
        hi = 2 * m + 1
        assert (_steps(3, hi) >= threshold) == over
        small_chunks(256)
        out = sweep(3, hi, workers=2)
        assert out.jobs == 1 + over
        assert inline_pool.sizes == ([1] if over else [])


def _steps(a, b):
    """Walk steps of the odd moduli in [a, b]: n takes (n-1)/2."""
    return sum((n - 1) // 2 for n in range(a, b + 1, 2))


def _moduli_cut(start, hi, chunk_size):
    """The cut by moduli alone: chunk_size moduli a chunk, the rest last."""
    a = start
    while a <= hi:
        b = min(a + 2 * (chunk_size - 1), hi)
        yield a, b
        a = b + 2


class TestChunkRanges:
    def test_chunks_tile_the_range_within_size_and_share(self):
        rng = random.Random(9)
        for _ in range(400):
            lo = 2 * rng.randrange(1, 5000) + 1
            hi = lo + 2 * rng.randrange(0, 3000)
            chunk_size = rng.choice([1, 2, 7, 64, 2048, 10**6])
            parts = rng.randrange(1, 9)
            chunks = list(laws._chunk_ranges(lo, hi, chunk_size, parts))
            assert chunks[0][0] == lo and chunks[-1][1] == hi
            assert all(c == b + 2 for (_, b), (c, _) in zip(chunks, chunks[1:]))
            share = -(-_steps(lo, hi) // parts)
            for a, b in chunks:
                assert a <= b and (b - a) // 2 + 1 <= chunk_size
                # A chunk reaches past a share boundary by its first modulus
                # at most.
                assert _steps(a, b) <= share + (a - 1) // 2, (lo, hi, parts, a, b)
            assert list(laws._chunk_ranges(lo, hi, chunk_size)) == list(
                _moduli_cut(lo, hi, chunk_size))

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_pool_cut_bounds_the_largest_chunk(self, workers):
        chunks = list(laws._chunk_ranges(3, 10001, laws.DEFAULT_CHUNK, workers))
        largest = max(_steps(a, b) for a, b in chunks)
        assert largest <= _steps(3, 10001) / workers + (10001 - 1) // 2
        # By moduli alone the largest of the three chunks holds half the steps.
        assert max(_steps(a, b) for a, b in _moduli_cut(3, 10001, laws.DEFAULT_CHUNK)) \
            > _steps(3, 10001) / 2

    def test_short_pool_sweep_splits_the_steps_between_pool_and_caller(
            self, monkeypatch, pool_sizes, inline_pool):
        # Pool chunks that are done at once leave the caller the same chunk
        # as slow ones: the pool gets the first half of the steps, the
        # caller the last chunk, the other half.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        sweep(3, 10001, ThresholdMode.STRICT_QUARTER, workers=2)
        assert inline_pool.sizes == [1]
        assert inline_pool.submitted == [(3, 4097), (4099, 7071)]
        assert _steps(3, 7071) * 2 == pytest.approx(_steps(3, 10001), rel=1e-3)

    def test_long_range_keeps_the_moduli_cut(self):
        # 2048 moduli below 60001 hold at most 14 % of the steps: shares of
        # a half or a quarter would only add chunks.
        for parts in (2, 4):
            assert list(laws._chunk_ranges(3, 60001, 2048, parts)) == list(
                _moduli_cut(3, 60001, 2048))

    def test_default_pool_sweep_matches_serial(self, pool_sizes):
        serial_seen, pool_seen = [], []
        serial = sweep(3, 10001, ThresholdMode.STRICT_QUARTER,
                       on_counterexample=serial_seen.append)
        pooled = sweep(3, 10001, ThresholdMode.STRICT_QUARTER, workers=2,
                       on_counterexample=pool_seen.append)
        assert len(serial.counterexamples) == 609
        assert pooled.counterexamples == serial.counterexamples
        assert pool_seen == serial_seen == list(serial.counterexamples)
        assert pool_sizes == _pool(2)


class TestCheckpoints:
    def test_checkpoint_written_and_complete(self, tmp_path):
        path = tmp_path / "sweep.json"
        out = sweep(3, 501, ThresholdMode.CORRECTED, checkpoint=str(path))
        doc = json.loads(path.read_text())
        assert doc == {
            "schema_version": 1,
            "mode": "corrected",
            "lo": 3,
            "hi": 501,
            "next_unscanned": 503,
            "counterexamples": [9],
        }
        assert out.counterexamples == (9,)

    def test_resume_completed_run_is_noop(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.json"
        sweep(3, 501, checkpoint=str(path))
        done = path.read_bytes()
        written = _record_writes(monkeypatch)
        out = sweep(3, 501, checkpoint=str(path), resume=True)
        assert out.counterexamples == (9,)
        assert out.scanned == 250
        assert written == [] and path.read_bytes() == done

    @pytest.mark.parametrize("hi, writes", [(10001, [8195, 10003]), (8193, [8195])])
    def test_one_write_per_cadence_and_one_at_the_end(self, tmp_path, monkeypatch,
                                                       hi, writes):
        # Chunks of 2048 moduli: the cadence of 4096 falls after the second,
        # which ends 3..8193 itself, so that range is written once.
        written = _record_writes(monkeypatch)
        sweep(3, hi, checkpoint=str(tmp_path / "sweep.json"))
        assert written == writes

    def test_chunk_and_cadence_read_at_call_time(self, tmp_path, monkeypatch, small_chunks):
        scanned = []
        real_scan = laws._scan_chunk

        def scan(a, b, mode):
            scanned.append((a, b))
            return real_scan(a, b, mode)

        monkeypatch.setattr(laws, "_scan_chunk", scan)
        written = _record_writes(monkeypatch)
        small_chunks(10, 20)
        out = sweep(3, 101, checkpoint=str(tmp_path / "sweep.json"))
        assert scanned == list(_moduli_cut(3, 101, 10))
        assert written == [43, 83, 103]
        assert out.counterexamples == (9,)

    def test_interrupt_and_resume_matches_uninterrupted(self, tmp_path, monkeypatch,
                                                        small_chunks):
        path = tmp_path / "sweep.json"
        uninterrupted = sweep(3, 3001, ThresholdMode.FLOOR_GEQ)
        _stop_after_writes(monkeypatch, 4)
        small_chunks(100, 100)
        with pytest.raises(_Stop):
            sweep(3, 3001, ThresholdMode.FLOOR_GEQ, checkpoint=str(path))
        partial = json.loads(path.read_text())
        assert partial["next_unscanned"] < 3002
        small_chunks(100)
        resumed = sweep(3, 3001, ThresholdMode.FLOOR_GEQ, checkpoint=str(path),
                        resume=True)
        assert resumed.counterexamples == uninterrupted.counterexamples

    def test_resume_without_file_starts_fresh(self, tmp_path):
        path = tmp_path / "missing.json"
        out = sweep(3, 51, checkpoint=str(path), resume=True)
        assert out.counterexamples == (9,)

    def test_mode_mismatch_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        sweep(3, 501, ThresholdMode.CORRECTED, checkpoint=str(path))
        with pytest.raises(CheckpointError, match="mode"):
            sweep(3, 501, ThresholdMode.FLOOR_GEQ, checkpoint=str(path), resume=True)

    def test_range_mismatch_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        sweep(3, 501, checkpoint=str(path))
        with pytest.raises(CheckpointError, match="range"):
            sweep(3, 999, checkpoint=str(path), resume=True)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text("not json")
        with pytest.raises(CheckpointError, match="JSON"):
            sweep(3, 501, checkpoint=str(path), resume=True)
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(CheckpointError, match="schema"):
            sweep(3, 501, checkpoint=str(path), resume=True)
        path.write_text(json.dumps({
            "schema_version": 1, "mode": "corrected", "lo": 3, "hi": 501,
            "next_unscanned": 10, "counterexamples": [],
        }))
        with pytest.raises(CheckpointError, match="inconsistent"):
            sweep(3, 501, checkpoint=str(path), resume=True)

    def test_bool_in_int_field_rejected(self, tmp_path):
        # true == 1, so a bool schema_version would pass an equality test
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "schema_version": True, "mode": "corrected", "lo": 3, "hi": 501,
            "next_unscanned": 3, "counterexamples": [],
        }))
        with pytest.raises(CheckpointError, match="bool"):
            sweep(3, 501, checkpoint=str(path), resume=True)

    def test_fsync_before_replace_leaves_no_temp(self, tmp_path, monkeypatch, small_chunks):
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(laws.os, "fsync", fsync)
        monkeypatch.setattr(laws.os, "replace", replace)
        path = tmp_path / "sweep.json"
        small_chunks(50, 50)
        sweep(3, 501, checkpoint=str(path))
        assert calls and calls[0] == "fsync"
        assert calls == ["fsync", "replace"] * (len(calls) // 2)
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]

    def test_failed_replace_removes_temp(self, tmp_path, monkeypatch):
        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(laws.os, "replace", replace)
        with pytest.raises(CheckpointError, match="disk full"):
            sweep(3, 501, checkpoint=str(tmp_path / "sweep.json"))
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_checkpoint_raises(self, tmp_path):
        target = tmp_path / "no-such-dir" / "sweep.json"
        with pytest.raises(CheckpointError, match="write"):
            sweep(3, 501, checkpoint=str(target))

    def test_unwritable_checkpoint_fails_before_the_first_chunk(self, tmp_path, monkeypatch):
        scanned = []
        monkeypatch.setattr(laws, "_scan_chunk", lambda a, b, mode: scanned.append((a, b)))
        target = tmp_path / "no-such-dir" / "sweep.json"
        with pytest.raises(CheckpointError, match=f"checkpoint write to {target} failed"):
            sweep(3, 300001, checkpoint=str(target))
        assert scanned == []

    def test_parallel_interrupt_then_parallel_resume(self, tmp_path, monkeypatch,
                                                     pool_sizes, small_chunks):
        path = tmp_path / "sweep.json"
        uninterrupted = sweep(3, 4001, ThresholdMode.STRICT_QUARTER)
        _stop_after_writes(monkeypatch, 7)
        small_chunks(50, 50)
        with pytest.raises(_Stop):
            sweep(3, 4001, ThresholdMode.STRICT_QUARTER, workers=3, checkpoint=str(path))
        small_chunks(50)
        resumed = sweep(3, 4001, ThresholdMode.STRICT_QUARTER, workers=3,
                        checkpoint=str(path), resume=True)
        assert resumed.counterexamples == uninterrupted.counterexamples
        assert pool_sizes == _pool(3) * 2

    def test_abort_checkpoint_precedes_the_pool_wait(self, tmp_path, monkeypatch,
                                                      pool_sizes, inline_pool, small_chunks):
        # The checkpoint of an interrupted pool sweep is on disk before the
        # pool waits for its running chunks, and the queued ones are cancelled.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        events = []
        real = laws._write_checkpoint

        def write(*args):
            real(*args)
            events.append(("checkpoint", len(inline_pool.shutdowns)))

        def interrupt(n):
            raise KeyboardInterrupt

        monkeypatch.setattr(laws, "_write_checkpoint", write)
        path = tmp_path / "sweep.json"
        small_chunks(100)
        with pytest.raises(KeyboardInterrupt):
            sweep(3, 4001, ThresholdMode.STRICT_QUARTER, workers=2,
                  checkpoint=str(path), on_counterexample=interrupt)
        assert inline_pool.sizes == [1]
        assert events == [("checkpoint", 0)]
        assert inline_pool.shutdowns == [True]
        assert json.loads(path.read_text())["next_unscanned"] == 3

    def test_single_chunk_with_many_workers(self, small_chunks):
        small_chunks(10_000)
        out = sweep(3, 101, workers=4)
        assert out.counterexamples == (9,)


class TestChunkStreaming:
    # 200,000 one-modulus chunks: held as a list they take about 25 MB.

    def test_serial_sweep_does_not_hold_its_chunks(self, tmp_path, monkeypatch,
                                                   small_chunks):
        _stop_after_writes(monkeypatch, 1)
        small_chunks(1, 1)
        tracemalloc.start()
        try:
            with pytest.raises(_Stop):
                sweep(3, 400001, checkpoint=str(tmp_path / "sweep.json"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_pool_sweep_draws_chunks_as_it_submits(self, tmp_path, monkeypatch, pool_sizes,
                                                   small_chunks):
        drawn = 0
        real = laws._chunk_ranges

        def counting(*args):
            nonlocal drawn
            for chunk in real(*args):
                drawn += 1
                yield chunk

        monkeypatch.setattr(laws, "_chunk_ranges", counting)
        _stop_after_writes(monkeypatch, 1)
        small_chunks(1, 1)
        with pytest.raises(_Stop):
            sweep(3, 400001, workers=2, checkpoint=str(tmp_path / "sweep.json"))
        assert 0 < drawn < 1000
        assert pool_sizes == _pool(2)


_ABORTED = (3, 30001)  # strict: every prime p = 1 (mod 4) is a counterexample
_needs_a_pool = pytest.mark.skipif(_USABLE_CPUS < 2, reason="a pool sweep needs two usable CPUs")


@pytest.fixture(scope="module")
def uninterrupted():
    return sweep(*_ABORTED, ThresholdMode.STRICT_QUARTER, workers=2).counterexamples


@_needs_a_pool
class TestAborts:
    """An interrupt or a lost pool worker leaves a checkpoint of the merged
    prefix, and a resume from it finds what an uninterrupted run finds."""

    def test_lost_worker(self, tmp_path, uninterrupted, pool_sizes):
        from concurrent.futures.process import BrokenProcessPool

        path = str(tmp_path / "ck.json")

        def kill_the_pool(n):
            # The executor may reap a worker that an earlier call killed.
            for worker in multiprocessing.active_children():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(worker.pid, signal.SIGKILL)

        with pytest.raises(laws.WorkerLost) as lost:
            sweep(*_ABORTED, ThresholdMode.STRICT_QUARTER, workers=2,
                  checkpoint=path, on_counterexample=kill_the_pool)
        assert isinstance(lost.value.__cause__, BrokenProcessPool)
        assert pool_sizes == [1]
        with open(path, encoding="utf-8") as fh:
            assert 3 < json.load(fh)["next_unscanned"] <= _ABORTED[1]
        resumed = sweep(*_ABORTED, ThresholdMode.STRICT_QUARTER, workers=2,
                        checkpoint=path, resume=True)
        assert resumed.counterexamples == uninterrupted

    def test_sigint_to_the_cli(self, tmp_path, uninterrupted):
        path = tmp_path / "ck.json"
        argv = [sys.executable, "-m", "qrcensus", "sweep", "--from", str(_ABORTED[0]),
                "--to", str(_ABORTED[1]), "--mode", "strict", "--jobs", "2",
                "--checkpoint", str(path)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        # A shell may start this process with SIGINT ignored, which the child
        # would inherit; give it the default, so Python raises KeyboardInterrupt.
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        deadline = time.monotonic() + 120
        while not path.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)  # after the first cadence checkpoint
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert err.splitlines() == [f"qrcensus sweep: interrupted; resume from checkpoint {path}"]
        assert json.loads(path.read_text())["next_unscanned"] <= _ABORTED[1]
        resumed = subprocess.run(argv + ["--resume"], env=env, capture_output=True,
                                 text=True, timeout=120)
        assert resumed.returncode == 3
        summary = json.loads(resumed.stdout.splitlines()[-1])
        assert summary["counterexamples"] == list(uninterrupted)
