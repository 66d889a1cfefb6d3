"""Per-layer metrics from the spans of a traced run.

Every count and time is per traced operation (the sum over traced ops
divided by their number), so runs of different lengths compare.  Times
are scaled to reference speed with their op's factor (see probe.py).  A
layer's self time is the time its spans cover minus the part their
child spans cover; its share is that self time over the op wall.
"""

LAYERS = ("kernel", "modmath", "census", "redundancy", "laws", "report", "cli")

LAW_IDS = (
    "L1_EXACT_4K1", "L2_DIRICHLET_POS", "L3_LEB_7MOD8_SUMS", "L4_LEB_7MOD8_DIFF",
    "L5_LEB_3MOD8_SUMS", "L6_LEB_3MOD8_DIFF", "L7_SUMRB_7MOD8", "L8_PRIMEPOWER_BOUND",
    "L9_PRODUCT_INEQ", "L10_MOD8_TRIANGLE", "A1_NH_PRIMEPOWER", "A2_NH_PRODUCT",
    "A3_RB_SEMIPRIME",
)

_KERNEL = ("kernel.small_residue_counts", "kernel.census_tallies", "kernel.residue_bitmap")
_ORACLE = "modmath.is_prime_oracle"
_WALK = _KERNEL + (_ORACLE,)

# name -> unit, in report order
METRICS = {
    "kernel.calls": "count",
    "kernel.walk_steps": "count",
    "kernel.busy_s": "s",
    "kernel.ns_per_step": "ns",
    "modmath.oracle_calls": "count",
    "modmath.oracle_busy_s": "s",
    "modmath.sieve_busy_s": "s",
    "laws.sweep_self_s": "s",
    "laws.checkpoint_writes": "count",
    "laws.checkpoint_bytes": "bytes",
    "laws.chunks": "count",
    "laws.largest_chunk_step_share": "ratio",
    "laws.pool_wait_s": "s",
    "census.tallies_calls": "count",
    "census.tallies_distinct": "count",
    "census.tallies_reuse_ratio": "ratio",
    "census.tallies_self_s": "s",
    **{f"laws.law_s.{law}": "s" for law in LAW_IDS},
    **{f"laws.law_reports.{law}": "count" for law in LAW_IDS},
    "census.details_busy_s": "s",
    "census.residue_set_busy_s": "s",
    "redundancy.pairs_busy_s": "s",
    "redundancy.pairs_emitted": "count",
    "report.render_busy_s": "s",
    "report.bytes_out": "bytes",
    "cli.startup_s": "s",
    "cli.output_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "cli.startup_share": "ratio",
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
}


def chunk_steps(lo, hi, chunk):
    """Walk steps of each chunk the sweep cuts [lo, hi] into, chunk odd
    moduli at a time; modulus n costs (n-1)/2 steps."""
    out = []
    a = lo
    while a <= hi:
        b = min(a + 2 * (chunk - 1), hi)
        k0, k1 = (a - 1) // 2, (b - 1) // 2
        out.append((k0 + k1) * (k1 - k0 + 1) // 2)
        a = b + 2
    return out


def _durations(spans):
    """Self time of every span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, op, value in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _sweep_inner(spans):
    """Kernel and oracle time inside each laws.sweep span, by span index."""
    inner = {}
    for name, t0, t1, parent, op, value in spans:
        if name not in _WALK:
            continue
        while parent >= 0 and spans[parent][0] not in _WALK:
            if spans[parent][0] == "laws.sweep":
                inner[parent] = inner.get(parent, 0.0) + (t1 - t0)
                break
            parent = spans[parent][3]
    return inner


def summarize(spans, ops, *, computed=None):
    """Per-layer metrics of the traced ops.

    spans: the tracer's span lists, op ids matching ops' indices.
    ops: one dict per traced op with its wall ("wall_s"), that wall at
         reference speed ("scaled_s"), stdout bytes ("stdout_bytes") and,
         for an op run as its own process ("fresh_process"), its
         in-process cli.main span ("main_s").
    computed: values worked out from the workload itself rather than
         traced (the walk steps and chunks of a pool sweep, whose workers
         are not traced; the start-up of an in-process runner); they
         replace the traced ones.
    """
    n_ops = len(ops)
    factor = [op["scaled_s"] / op["wall_s"] for op in ops]
    self_s = [d * factor[s[4]] for d, s in zip(_durations(spans), spans)]
    sweep_inner = _sweep_inner(spans)
    sums = {name: 0.0 for name in METRICS}
    distinct = {}
    for i, (name, t0, t1, parent, op, value) in enumerate(spans):
        dur = (t1 - t0) * factor[op]
        layer = name.split(".", 1)[0]
        sums[f"{layer}.self_s"] += self_s[i]
        if name in _KERNEL:
            sums["kernel.calls"] += 1
            sums["kernel.walk_steps"] += value or 0
            sums["kernel.busy_s"] += dur
        elif name == _ORACLE:
            sums["modmath.oracle_calls"] += 1
            sums["modmath.oracle_busy_s"] += dur
        elif name == "modmath.sieve_primes":
            sums["modmath.sieve_busy_s"] += dur
        elif name == "laws.sweep":
            sums["laws.sweep_self_s"] += dur - sweep_inner.get(i, 0.0) * factor[op]
        elif name == "laws.write_checkpoint":
            sums["laws.checkpoint_writes"] += 1
            sums["laws.checkpoint_bytes"] += value or 0
        elif name == "laws.wait":
            sums["laws.pool_wait_s"] += dur
        elif name == "census.tallies":
            sums["census.tallies_calls"] += 1
            sums["census.tallies_self_s"] += self_s[i]
            distinct.setdefault(op, set()).add(value)
        elif name == "laws.check_law" and value in LAW_IDS:
            sums[f"laws.law_s.{value}"] += dur
            sums[f"laws.law_reports.{value}"] += 1
        elif name == "census.residue_details":
            sums["census.details_busy_s"] += dur
        elif name == "census.quadratic_residue_set":
            sums["census.residue_set_busy_s"] += dur
        elif name == "redundancy.collision_pairs":
            sums["redundancy.pairs_busy_s"] += dur
            sums["redundancy.pairs_emitted"] += value or 0
        if layer == "report":
            sums["report.render_busy_s"] += dur
            sums["report.bytes_out"] += value or 0
    sums["census.tallies_distinct"] = sum(len(s) for s in distinct.values())

    wall = sum(op["scaled_s"] for op in ops)
    startup = sum((op["wall_s"] - op["main_s"]) * f
                  for op, f in zip(ops, factor) if op.get("fresh_process"))
    sums["cli.startup_s"] = startup
    sums["cli.output_bytes"] = sum(op["stdout_bytes"] for op in ops)

    out = {}
    for name in METRICS:
        out[name] = sums[name] / n_ops if n_ops else 0.0
    for key, value in (computed or {}).items():
        out[key] = value
    steps = out["kernel.walk_steps"]
    out["kernel.ns_per_step"] = (out["kernel.busy_s"] / steps * 1e9
                                 if steps and out["kernel.busy_s"] else 0.0)
    calls = out["census.tallies_calls"]
    out["census.tallies_reuse_ratio"] = (1 - out["census.tallies_distinct"] / calls
                                         if calls else 0.0)
    for layer in LAYERS:
        out[f"{layer}.share"] = sums[f"{layer}.self_s"] / wall if wall else 0.0
    out["cli.startup_share"] = startup / wall if wall else 0.0
    out["trace.ops"] = n_ops
    return out
