"""Command line surface.

Exit codes: 0 success (and agreement), 1 usage error or out of memory,
2 I/O or checkpoint error, an interrupt or a lost pool worker,
3 counterexample found (classify / sweep), 4 exact-law violation (laws).
Data goes to --output (default stdout) as JSON lines or CSV; timing and
progress go to stderr so the data stream stays parseable.
"""

import argparse
import functools
import json
import os
import stat
import sys
import time
from types import SimpleNamespace

from qrcensus import _LAZY as _PUBLIC, __version__, kernel
from qrcensus.census import census, small_zero_roots, tallies

# The handlers call these names as module globals because the benchmark's
# tracer (perfbench/tracer.py) wraps them here.  Each module loads only
# when a command runs it: main() binds the names of its command's modules
# first, and __getattr__ binds them for callers from outside.  The homes
# are the package's own, plus those of the names it does not export.
_LAZY = _PUBLIC | {
    "Fraction": "fractions",
    "resolve_law_id": "qrcensus.laws",
    "census_row": "qrcensus.report",
}


def _bind(module_name):
    """Bind the names of one module, keeping any already set (a wrapper)."""
    __import__(module_name)
    module = sys.modules[module_name]
    names = globals()
    for name, home in _LAZY.items():
        if home == module_name:
            names.setdefault(name, getattr(module, name))


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_LAW_VIOLATION = 4

# The parser's choices, as literals so that it needs neither laws nor
# report: the values of ThresholdMode, Ordering, TableFormat and HighlightMode.
_MODE_CHOICES = ("corrected", "floor", "strict")
_ORDER_CHOICES = ("natural", "residues-first")
_TABLE_FORMAT_CHOICES = ("ansi", "plain", "csv", "html")
_HIGHLIGHT_CHOICES = ("residues", "small", "none")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _num(value, csv=False):
    """A law report's value as JSON text, or with csv=True as a CSV field.

    The values are ints, bools, None and Fractions: an int as itself, a
    bool as true/false, None as null (CSV: empty), and a Fraction as its
    int when integral, else as the string "a/b" (CSV: a/b).
    """
    if type(value) is int:
        return str(value)
    if type(value) is Fraction:
        if value.denominator == 1:
            return str(value.numerator)
        return str(value) if csv else f'"{value}"'
    if value is None:
        return "" if csv else "null"
    if type(value) is bool:
        return "true" if value else "false"
    raise TypeError(f"no report text for {type(value).__name__}")


def _diag(msg):
    print(msg, file=sys.stderr, flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qrcensus", description=__doc__.splitlines()[0])
    backend = kernel.BACKEND
    if kernel.FALLBACK_REASON:
        backend += f"; {kernel.FALLBACK_REASON}"
    parser.add_argument("--version", action="version",
                        version=f"qrcensus {__version__} (kernel: {backend})")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p, formats, default):
        p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--output", metavar="PATH", help="write to PATH instead of stdout")

    p = sub.add_parser("census", help="residue census of one modulus")
    p.add_argument("n", type=int)
    p.add_argument("--details", action="store_true",
                   help="include residues, least roots and zero-square roots (JSON only)")
    add_common(p, ["json", "csv"], "json")

    p = sub.add_parser("classify", help="residue-count verdict vs the primality oracle")
    p.add_argument("n", type=int)
    p.add_argument("--mode", choices=_MODE_CHOICES, default="corrected")
    add_common(p, ["json", "csv"], "json")

    p = sub.add_parser("sweep", help="classify every odd n in a range")
    p.add_argument("--from", dest="lo", type=int, required=True, metavar="A")
    p.add_argument("--to", dest="hi", type=int, required=True, metavar="B")
    p.add_argument("--mode", choices=_MODE_CHOICES, default="corrected")
    p.add_argument("--jobs", type=int, default=1,
                   help="scanning processes: this one plus a pool of JOBS - 1 "
                        "workers, at most one per usable CPU; a range too short "
                        "to gain from a pool runs in this one (default 1)")
    p.add_argument("--checkpoint", metavar="PATH")
    p.add_argument("--resume", action="store_true")
    add_common(p, ["json", "csv"], "json")

    p = sub.add_parser("laws", help="check identities over qualifying parameters")
    p.add_argument("--law", default="all",
                   help="a law id (e.g. L7 or L7_SUMRB_7MOD8) or 'all'")
    p.add_argument("--from", dest="lo", type=int, default=3, metavar="A")
    p.add_argument("--to", dest="hi", type=int, default=1000, metavar="B")
    add_common(p, ["json", "csv"], "json")

    p = sub.add_parser("table", help="modular multiplication table")
    p.add_argument("n", type=int)
    p.add_argument("--order", choices=_ORDER_CHOICES, default="natural")
    p.add_argument("--highlight", choices=_HIGHLIGHT_CHOICES,
                   default="residues",
                   help="mark residues (default), mark values <= (n-1)/2, or no marks")
    add_common(p, _TABLE_FORMAT_CHOICES, "plain")

    p = sub.add_parser("pairs", help="square collisions, witnesses and zero squares")
    p.add_argument("n", type=int)
    p.add_argument("--classes", action="store_true",
                   help="group colliding values per shared square (JSON only)")
    add_common(p, ["json", "csv", "plain"], "json")

    p = sub.add_parser("annex", help="regenerate an archived listing")
    p.add_argument("--which", choices=["1", "2"], required=True)
    add_common(p, ["plain"], "plain")

    return parser


# main() parses with one parser per process.  A parser is a few hundred
# objects in reference cycles, which only a full collection frees: building
# one per call grew a process that called main() 300 times by about 800 KB.
_parser = functools.cache(build_parser)


def _cmd_census(args, out):
    if args.details and args.format == "csv":
        raise ValueError("--details is only available with --format json")
    n = kernel.dense_modulus(args.n)
    if args.details:
        rec = census(n, want_details=True)
    else:  # the record without its residue set, a Python object per residue
        rec = SimpleNamespace(n=n, **tallies(n)._asdict(),
                              zero_square_roots=small_zero_roots(n))
    if args.format == "csv":
        out.write(export_census([rec], ExportFormat.CSV))
        return EXIT_OK
    doc = census_row(rec)
    doc["zero_square_roots"] = sorted(rec.zero_square_roots)
    if args.details:
        doc["residues"] = [d.y for d in rec.details]
        doc["details"] = [[d.y, d.smallest_root] for d in rec.details]
    out.write(json.dumps(doc) + "\n")
    return EXIT_OK


def _cmd_classify(args, out):
    c = classify(args.n, ThresholdMode(args.mode))
    doc = {
        "n": c.n,
        "mode": c.mode.value,
        "r_b": c.r_b,
        "predicted_prime": c.predicted_prime,
        "oracle_prime": c.oracle_prime,
        "agree": c.agree,
    }
    if args.format == "csv":
        out.write(",".join(doc) + "\n")
        out.write(",".join(str(v).lower() if isinstance(v, bool) else str(v)
                           for v in doc.values()) + "\n")
    else:
        out.write(json.dumps(doc) + "\n")
    return EXIT_OK if c.agree else EXIT_COUNTEREXAMPLE


def _cmd_sweep(args, out):
    mode = ThresholdMode(args.mode)
    csv = args.format == "csv"
    out.header = "n\n" if csv else ""

    def on_ce(n):
        out.write(f"{n}\n" if csv else json.dumps({"counterexample": n}) + "\n")
        out.flush()

    outcome = sweep(
        args.lo,
        args.hi,
        mode,
        workers=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
        on_counterexample=on_ce,
    )
    if not csv:
        out.write(json.dumps({
            "lo": outcome.lo,
            "hi": outcome.hi,
            "mode": outcome.mode.value,
            "scanned": outcome.scanned,
            "counterexamples": list(outcome.counterexamples),
        }) + "\n")
    _diag(f"sweep [{outcome.lo}, {outcome.hi}] mode={outcome.mode.value} "
          f"backend={kernel.BACKEND} jobs={outcome.jobs}: scanned {outcome.scanned} "
          f"moduli in {outcome.elapsed:.2f}s")
    return EXIT_COUNTEREXAMPLE if outcome.counterexamples else EXIT_OK


def _report_line(rep):
    """One report as a JSON line.  Law ids and parameter and note names are
    ASCII identifiers, so they need no escaping."""
    params = ", ".join([f'"{name}": {_num(v)}' for name, v in rep.params])
    line = (f'{{"law": "{rep.law_id}", "params": {{{params}}}, '
            f'"lhs": {_num(rep.lhs)}, "rhs": {_num(rep.rhs)}, "holds": {_num(rep.holds)}')
    if rep.rel_error is not None:
        line += f', "rel_error": {_num(rep.rel_error)}'
    if rep.notes:
        notes = ", ".join([f'"{name}": {_num(v)}' for name, v in rep.notes])
        line += f', "notes": {{{notes}}}'
    return line + "}\n"


def _cmd_laws(args, out):
    law_ids = list(LAW_IDS) if args.law == "all" else [resolve_law_id(args.law)]
    csv = args.format == "csv"
    violations = 0
    checked = 0
    out.header = "law,params,lhs,rhs,holds,rel_error\n" if csv else ""
    for law_id in law_ids:
        t0 = time.perf_counter()
        before = checked
        for params in qualifying_params(law_id, args.lo, args.hi):
            rep = check_law(law_id, **params)
            checked += 1
            if rep.holds is False:
                violations += 1
            if csv:
                ptxt = ";".join(f"{k}={v}" for k, v in rep.params)
                out.write(f"{rep.law_id},{ptxt},{_num(rep.lhs, csv)},"
                          f"{_num(rep.rhs, csv)},{_num(rep.holds, csv)},"
                          f"{_num(rep.rel_error, csv)}\n")
            else:
                out.write(_report_line(rep))
        _diag(json.dumps({"law": law_id, "reports": checked - before,
                          "seconds": round(time.perf_counter() - t0, 6)}))
    _diag(f"laws: {checked} reports, {violations} violations")
    return EXIT_LAW_VIOLATION if violations else EXIT_OK


def _cmd_table(args, out):
    spec = TableSpec(
        n=args.n,
        ordering=Ordering(args.order),
        fmt=TableFormat(args.format),
        highlight_mode=HighlightMode(args.highlight),
    )
    out.write(render_mult_table(spec))
    return EXIT_OK


def _cmd_pairs(args, out):
    if args.classes and args.format != "json":
        raise ValueError("--classes is only available with --format json")
    n = args.n
    pairs = collision_pairs(n)
    zeros_full = sorted(zero_square_roots(n))
    half = (n - 1) // 2
    if args.format == "csv":
        out.write("a,b,shared_square,witness_low,witness_high\n")
        for p in pairs:
            out.write(f"{p.a},{p.b},{p.shared_square},{p.witness_low},{p.witness_high}\n")
        return EXIT_OK
    if args.format == "plain":
        for p in pairs:
            w = witness(p)
            out.write(
                f"{p.a}^2 = {p.b}^2 = {p.shared_square} (mod {n}): "
                f"({p.a}-{p.b})({p.a}+{p.b}) = {w.factor_low}*{w.factor_high} "
                f"= {w.product} and {n} | {w.product}\n"
            )
        out.write(f"zero squares in [1, {half}]: "
                  f"{', '.join(str(z) for z in zeros_full if z <= half) or 'none'}\n")
        return EXIT_OK
    doc = {
        "n": n,
        "pairs": [
            {
                "a": p.a,
                "b": p.b,
                "shared_square": p.shared_square,
                "witness_low": p.witness_low,
                "witness_high": p.witness_high,
                "modulus_divides": witness(p).modulus_divides,
            }
            for p in pairs
        ],
        "zero_square_roots_small": [z for z in zeros_full if z <= half],
        "zero_square_roots": zeros_full,
    }
    if args.classes:
        doc["classes"] = [
            {"shared_square": s, "members": members}
            for s, members in collision_classes(n)
        ]
    out.write(json.dumps(doc) + "\n")
    return EXIT_OK


def _cmd_annex(args, out):
    out.write(render_annex1() if args.which == "1" else render_annex2())
    return EXIT_OK


# Each command's handler and the modules whose names it calls.
_COMMANDS = {
    "census": (_cmd_census, ("qrcensus.report",)),
    "classify": (_cmd_classify, ("qrcensus.laws",)),
    "sweep": (_cmd_sweep, ("qrcensus.laws",)),
    "laws": (_cmd_laws, ("qrcensus.laws", "fractions")),
    "table": (_cmd_table, ("qrcensus.report",)),
    "pairs": (_cmd_pairs, ("qrcensus.redundancy",)),
    "annex": (_cmd_annex, ("qrcensus.report",)),
}


class _Output:
    """The one writer of a command's data: stdout, or the file at a path
    other than "-".  The file is opened (created if missing) before the
    command runs, and emptied at the first write if it is a regular file
    (not /dev/null or a FIFO), so a command that fails its checks leaves it
    as it was.  `header` (a CSV header) goes out with the first write."""

    def __init__(self, path):
        self.header = ""
        self._file = path and path != "-"
        self._fh = open(path, "a", encoding="utf-8") if self._file else sys.stdout
        self._truncate = self._file and stat.S_ISREG(os.fstat(self._fh.fileno()).st_mode)

    def write(self, text):
        if self._truncate:
            self._fh.truncate(0)
            self._truncate = False
        text, self.header = self.header + text, ""
        return self._fh.write(text)

    def flush(self):
        self._fh.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._file:
            self._fh.close()


def _resume_hint(args):
    checkpoint = getattr(args, "checkpoint", None)
    return f"; resume from checkpoint {checkpoint}" if checkpoint else ""


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    handler, modules = _COMMANDS[args.command]
    for module in modules:
        _bind(module)
    try:
        with _Output(args.output) as out:
            code = handler(args, out)
            out.write("")  # a run with no rows: its CSV header, or an emptied file
        return code
    except ValueError as exc:
        _diag(f"qrcensus {args.command}: error: {exc}")
        return EXIT_USAGE
    except MemoryError:
        _diag(f"qrcensus {args.command}: error: out of memory")
        return EXIT_USAGE
    # An except clause's class is looked up whenever an exception reaches
    # it, and a command that runs no laws code has no laws names bound.
    except globals().get("CheckpointError", ()) as exc:
        _diag(f"qrcensus {args.command}: checkpoint error: {exc}")
        return EXIT_IO
    except OSError as exc:
        _diag(f"qrcensus {args.command}: i/o error: {exc}")
        return EXIT_IO
    except KeyboardInterrupt:
        _diag(f"qrcensus {args.command}: interrupted{_resume_hint(args)}")
        return EXIT_IO
    except globals().get("WorkerLost", ()) as exc:
        _diag(f"qrcensus {args.command}: {exc}{_resume_hint(args)}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
