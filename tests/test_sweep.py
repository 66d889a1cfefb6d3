import json
import os
import subprocess
import sys
import tracemalloc

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

    def test_counterexamples_stream_in_order(self):
        seen = []
        out = sweep(3, 2001, ThresholdMode.FLOOR_GEQ, chunk_size=64,
                    on_counterexample=seen.append)
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


class TestParallelSweep:
    def test_workers_do_not_change_the_result(self):
        serial = sweep(3, 4001, ThresholdMode.STRICT_QUARTER, chunk_size=128)
        parallel = sweep(3, 4001, ThresholdMode.STRICT_QUARTER, workers=4,
                         chunk_size=128)
        assert serial.counterexamples == parallel.counterexamples
        assert serial.scanned == parallel.scanned

    def test_workers_with_callback_order(self):
        seen = []
        sweep(3, 4001, ThresholdMode.FLOOR_GEQ, workers=3, chunk_size=32,
              on_counterexample=seen.append)
        assert seen == [9, 15, 27]

    def test_pool_size_clamped_to_usable_cpus(self, monkeypatch):
        # A stand-in pool that records its size and runs each chunk inline:
        # a real pool would fork every requested worker at its first submit.
        import concurrent.futures

        sizes = []
        submits = 0

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                nonlocal submits
                submits += 1
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        out = sweep(3, 2001, ThresholdMode.FLOOR_GEQ, workers=10**6, chunk_size=50)
        # Three usable CPUs: the caller scans beside a pool of two workers.
        assert sizes == [2]
        assert 0 < submits < len(list(laws._chunk_ranges(3, 2001, 50)))
        assert out.jobs == 3
        assert out.counterexamples == (9, 15, 27)

    def test_caller_and_pool_match_the_serial_run(self):
        serial_seen, pool_seen = [], []
        serial = sweep(3, 4001, ThresholdMode.STRICT_QUARTER, chunk_size=32,
                       on_counterexample=serial_seen.append)
        pooled = sweep(3, 4001, ThresholdMode.STRICT_QUARTER, workers=2,
                       chunk_size=32, on_counterexample=pool_seen.append)
        assert pooled.counterexamples == serial.counterexamples
        assert pool_seen == serial_seen == list(serial.counterexamples)
        assert serial.jobs == 1
        assert pooled.jobs == min(2, len(os.sched_getaffinity(0)))


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

    def test_resume_completed_run_is_noop(self, tmp_path):
        path = tmp_path / "sweep.json"
        sweep(3, 501, checkpoint=str(path))
        out = sweep(3, 501, checkpoint=str(path), resume=True)
        assert out.counterexamples == (9,)
        assert out.scanned == 250

    def test_interrupt_and_resume_matches_uninterrupted(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.json"
        uninterrupted = sweep(3, 3001, ThresholdMode.FLOOR_GEQ)
        _stop_after_writes(monkeypatch, 4)
        with pytest.raises(_Stop):
            sweep(3, 3001, ThresholdMode.FLOOR_GEQ, checkpoint=str(path),
                  chunk_size=100, checkpoint_every=100)
        partial = json.loads(path.read_text())
        assert partial["next_unscanned"] < 3002
        resumed = sweep(3, 3001, ThresholdMode.FLOOR_GEQ, checkpoint=str(path),
                        resume=True, chunk_size=100)
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

    def test_fsync_before_replace_leaves_no_temp(self, tmp_path, monkeypatch):
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
        sweep(3, 501, checkpoint=str(path), chunk_size=50, checkpoint_every=50)
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

    def test_parallel_interrupt_then_parallel_resume(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.json"
        uninterrupted = sweep(3, 4001, ThresholdMode.STRICT_QUARTER)
        _stop_after_writes(monkeypatch, 7)
        with pytest.raises(_Stop):
            sweep(3, 4001, ThresholdMode.STRICT_QUARTER, workers=3,
                  checkpoint=str(path), chunk_size=50, checkpoint_every=50)
        resumed = sweep(3, 4001, ThresholdMode.STRICT_QUARTER, workers=3,
                        checkpoint=str(path), resume=True, chunk_size=50)
        assert resumed.counterexamples == uninterrupted.counterexamples

    def test_single_chunk_with_many_workers(self):
        out = sweep(3, 101, workers=4, chunk_size=10_000)
        assert out.counterexamples == (9,)


class TestChunkStreaming:
    # 200,000 one-modulus chunks: held as a list they take about 25 MB.

    def test_serial_sweep_does_not_hold_its_chunks(self, tmp_path, monkeypatch):
        _stop_after_writes(monkeypatch, 1)
        tracemalloc.start()
        try:
            with pytest.raises(_Stop):
                sweep(3, 400001, chunk_size=1, checkpoint_every=1,
                      checkpoint=str(tmp_path / "sweep.json"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_pool_sweep_draws_chunks_as_it_submits(self, tmp_path, monkeypatch):
        drawn = 0
        real = laws._chunk_ranges

        def counting(*args):
            nonlocal drawn
            for chunk in real(*args):
                drawn += 1
                yield chunk

        monkeypatch.setattr(laws, "_chunk_ranges", counting)
        _stop_after_writes(monkeypatch, 1)
        with pytest.raises(_Stop):
            sweep(3, 400001, workers=2, chunk_size=1, checkpoint_every=1,
                  checkpoint=str(tmp_path / "sweep.json"))
        assert 0 < drawn < 1000
