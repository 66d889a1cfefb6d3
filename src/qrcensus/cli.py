"""Command line surface.

Exit codes: 0 success (and agreement), 1 usage error, 2 I/O or checkpoint
error, an interrupt or a lost pool worker, 3 counterexample found
(classify / sweep), 4 exact-law violation (laws).  Data goes to --output
(default stdout) as JSON lines or CSV; timing and progress go to stderr so
the data stream stays parseable.
"""

import argparse
import functools
import json
import sys
import time

from qrcensus import __version__, kernel
from qrcensus.census import census

# The handlers call these names as module globals because the benchmark's
# tracer (perfbench/tracer.py) wraps them here.  Each module loads only
# when a command runs it: main() binds the names of its command's modules
# first, and __getattr__ binds them for callers from outside.
_LAZY = (
    dict.fromkeys(("Fraction",), "fractions")
    | dict.fromkeys((
        "CheckpointError", "LAW_IDS", "ThresholdMode", "WorkerLost", "check_law",
        "classify", "qualifying_params", "resolve_law_id", "sweep",
    ), "qrcensus.laws")
    | dict.fromkeys((
        "collision_classes", "collision_pairs", "witness", "zero_square_roots",
    ), "qrcensus.redundancy")
    | dict.fromkeys((
        "ExportFormat", "HighlightMode", "Ordering", "TableFormat", "TableSpec",
        "census_row", "export_census", "render_annex1", "render_annex2",
        "render_mult_table",
    ), "qrcensus.report")
)


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
# report: the values of ThresholdMode, Ordering and TableFormat.
_MODE_CHOICES = ("corrected", "floor", "strict")
_ORDER_CHOICES = ("natural", "residues-first")
_TABLE_FORMAT_CHOICES = ("ansi", "plain", "csv", "html")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _num(value):
    """JSON-friendly law side: int stays int, a ratio becomes 'a/b'."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return str(value)
    return value


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
    p.add_argument("--highlight", choices=["residues", "small", "none"],
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
    rec = census(args.n, want_details=args.details)
    if args.format == "csv":
        if args.details:
            raise ValueError("--details is only available with --format json")
        out.write(export_census([rec], ExportFormat.CSV))
        return EXIT_OK
    doc = census_row(rec)
    doc["zero_square_roots"] = sorted(rec.zero_square_roots)
    if args.details:
        doc["residues"] = sorted(rec.residues)
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
    if args.format == "csv":
        out.write("n\n")
        emit = lambda n: out.write(f"{n}\n")
    else:
        emit = lambda n: out.write(json.dumps({"counterexample": n}) + "\n")

    def on_ce(n):
        emit(n)
        out.flush()

    t0 = time.perf_counter()
    outcome = sweep(
        args.lo,
        args.hi,
        mode,
        workers=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
        on_counterexample=on_ce,
    )
    if args.format == "json":
        out.write(json.dumps({
            "lo": outcome.lo,
            "hi": outcome.hi,
            "mode": outcome.mode.value,
            "scanned": outcome.scanned,
            "counterexamples": list(outcome.counterexamples),
        }) + "\n")
    elapsed = time.perf_counter() - t0
    _diag(f"sweep [{outcome.lo}, {outcome.hi}] mode={outcome.mode.value} "
          f"backend={kernel.BACKEND} jobs={outcome.jobs}: scanned {outcome.scanned} "
          f"moduli in {elapsed:.2f}s")
    return EXIT_COUNTEREXAMPLE if outcome.counterexamples else EXIT_OK


def _report_doc(rep):
    doc = {
        "law": rep.law_id,
        "params": dict(rep.params),
        "lhs": _num(rep.lhs),
        "rhs": _num(rep.rhs),
        "holds": rep.holds,
    }
    if rep.rel_error is not None:
        doc["rel_error"] = _num(rep.rel_error)
    if rep.notes:
        doc["notes"] = dict(rep.notes)
    return doc


def _cmd_laws(args, out):
    law_ids = list(LAW_IDS) if args.law == "all" else [resolve_law_id(args.law)]
    violations = 0
    checked = 0
    if args.format == "csv":
        out.write("law,params,lhs,rhs,holds,rel_error\n")
    for law_id in law_ids:
        for params in qualifying_params(law_id, args.lo, args.hi):
            rep = check_law(law_id, **params)
            checked += 1
            if rep.holds is False:
                violations += 1
            if args.format == "csv":
                ptxt = ";".join(f"{k}={v}" for k, v in rep.params)
                rel = "" if rep.rel_error is None else _num(rep.rel_error)
                holds = "" if rep.holds is None else str(rep.holds).lower()
                out.write(f"{rep.law_id},{ptxt},{_num(rep.lhs)},{_num(rep.rhs)},"
                          f"{holds},{rel}\n")
            else:
                out.write(json.dumps(_report_doc(rep)) + "\n")
    _diag(f"laws: {checked} reports, {violations} violations")
    return EXIT_LAW_VIOLATION if violations else EXIT_OK


def _cmd_table(args, out):
    spec = TableSpec(
        n=args.n,
        ordering=Ordering(args.order),
        fmt=TableFormat(args.format),
        highlight=args.highlight != "none",
        highlight_mode=(HighlightMode.SMALL_VALUES if args.highlight == "small"
                        else HighlightMode.RESIDUES),
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
    out = sys.stdout
    opened = False
    try:
        if args.output and args.output != "-":
            out = open(args.output, "w", encoding="utf-8")
            opened = True
        return handler(args, out)
    except ValueError as exc:
        _diag(f"qrcensus {args.command}: error: {exc}")
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
    finally:
        if opened:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
