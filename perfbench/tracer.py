"""Spans around the calls into each qrcensus layer, recorded from outside.

The tracer replaces a public function under the name its caller looks it
up by (``qrcensus.laws.tallies`` is what the law checks call, so that is
the attribute that gets wrapped) and records one span per call:
``[name, start, end, parent, op, value]``.  ``parent`` is the index of the
enclosing span or -1, ``op`` numbers the benchmark operation, and
``value`` is a count taken at the same boundary (walk steps, the modulus,
the law id, items or bytes returned).  Spans stay in memory until the
caller writes them out.

Nothing inside ``src/`` changes.  A module or name of PATCHES that the
package no longer has is an error (TracerError), not a metric that silently
reads 0: a change that renames an entry point updates PATCHES with it.
"""

import contextlib
import functools
import importlib
import os
import time

_now = time.perf_counter


class TracerError(RuntimeError):
    """An entry point the tracer wraps is missing from the package."""


def _steps_range(args, kwargs, result):
    lo, hi = args[0], args[1]
    # sum of (n-1)/2 over odd n in [lo, hi] = sum of k over k in [a, b]
    a, b = (lo - 1) // 2, (hi - 1) // 2
    return (a + b) * (b - a + 1) // 2


def _steps_modulus(args, kwargs, result):
    return (args[0] - 1) // 2


def _first_arg(args, kwargs, result):
    return int(args[0]) if args else None


def _law_id(args, kwargs, result):
    return result.law_id


def _length(args, kwargs, result):
    return len(result)


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8")) if isinstance(result, str) else 0


def _file_bytes(args, kwargs, result):
    try:
        return os.path.getsize(args[0])
    except OSError:
        return 0


# (module, attribute, span name, value taken at the boundary, is a generator)
PATCHES = (
    ("qrcensus.kernel", "small_residue_counts", "kernel.small_residue_counts", _steps_range, False),
    ("qrcensus.kernel", "census_tallies", "kernel.census_tallies", _steps_modulus, False),
    ("qrcensus.kernel", "residue_bitmap", "kernel.residue_bitmap", _steps_modulus, False),
    ("qrcensus.laws", "is_prime_oracle", "modmath.is_prime_oracle", None, False),
    ("qrcensus.report", "is_prime_oracle", "modmath.is_prime_oracle", None, False),
    ("qrcensus.laws", "sieve_primes", "modmath.sieve_primes", None, False),
    ("qrcensus.redundancy", "factorize", "modmath.factorize", None, False),
    ("qrcensus.laws", "tallies", "census.tallies", _first_arg, False),
    ("qrcensus.census", "tallies", "census.tallies", _first_arg, False),
    ("qrcensus.cli", "census", "census.census", None, False),
    ("qrcensus.census", "quadratic_residue_set", "census.quadratic_residue_set", None, False),
    ("qrcensus.report", "quadratic_residue_set", "census.quadratic_residue_set", None, False),
    ("qrcensus.census", "residue_details", "census.residue_details", None, False),
    ("qrcensus.report", "residue_details", "census.residue_details", None, False),
    ("qrcensus.cli", "collision_pairs", "redundancy.collision_pairs", _length, False),
    ("qrcensus.report", "collision_pairs", "redundancy.collision_pairs", _length, False),
    ("qrcensus.cli", "collision_classes", "redundancy.collision_classes", None, False),
    ("qrcensus.cli", "zero_square_roots", "redundancy.zero_square_roots", None, False),
    ("qrcensus.report", "zero_square_roots", "redundancy.zero_square_roots", None, False),
    ("qrcensus.cli", "witness", "redundancy.witness", None, False),
    ("qrcensus.cli", "sweep", "laws.sweep", None, False),
    ("qrcensus.laws", "wait", "laws.wait", None, False),
    ("qrcensus.laws", "_write_checkpoint", "laws.write_checkpoint", _file_bytes, False),
    ("qrcensus.cli", "check_law", "laws.check_law", _law_id, False),
    ("qrcensus.cli", "qualifying_params", "laws.qualifying_params", None, True),
    ("qrcensus.cli", "classify", "laws.classify", None, False),
    ("qrcensus.cli", "render_mult_table", "report.render_mult_table", _text_bytes, False),
    ("qrcensus.cli", "render_annex1", "report.render_annex1", _text_bytes, False),
    ("qrcensus.cli", "render_annex2", "report.render_annex2", _text_bytes, False),
    ("qrcensus.cli", "export_census", "report.export_census", _text_bytes, False),
    ("qrcensus.cli", "census_row", "report.census_row", None, False),
)


class Tracer:
    """Records spans while installed; a forked child (a pool worker) stops
    recording, because its spans could never reach the parent."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._saved = []
        self._recording = False
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self):
        self._recording = False

    def _open(self, name):
        stack = self._stack
        rec = [name, _now(), 0.0, stack[-1] if stack else -1, self.op, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = _now()
        self._stack.pop()

    def wrap(self, name, fn, value=None, generator=False):
        """A stand-in for fn that records a span per call (per step, for a
        generator), tagged with value(args, kwargs, result)."""
        if generator:
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not self._recording:
                        yield from it
                        return
                    rec = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if value is not None:
                rec[5] = value(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark itself opens around a block."""
        rec = self._open(name) if self._recording else None
        try:
            yield
        finally:
            if rec is not None:
                self._close(rec)

    def install(self):
        for mod_name, attr, name, value, generator in PATCHES:
            try:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError) as exc:
                self.uninstall()
                raise TracerError(f"cannot trace {mod_name}.{attr}: {exc}") from exc
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn, value, generator))
        self._recording = True

    def uninstall(self):
        self._recording = False
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

