"""Per-layer metrics of the traced run, and the end-to-end metric each
should move on which workload.

Each row is ``(name, unit, better, moves, on)``.  Names are
``<layer>.<function>.<stat>``: ``calls`` and ``self_s`` are per traced
pass, ``total_s`` is inclusive time per pass, ``growth`` is the log-log
slope of inclusive time between the two largest sizes (at least 20%
apart) a workload runs the function at, or 0 without such a pair.  The ``moves`` and
``on`` columns are the prediction to test a layer change against; a
workload not listed should show no change.
"""

from __future__ import annotations

KERNEL_FNS = ("mul", "div", "compose", "revert")
SERIES_FNS = ("mul", "div", "pow", "compose", "revert", "sqrt", "log", "exp",
              "pow_rat", "pow_param")
CORE_FNS = ("triangle", "inverse", "multiply", "a_sequence", "b_sequence",
            "sqrt_factorization", "from_b_sequence")
MATRIXLOG_FNS = ("bell_log", "composition_matrix", "log_generator", "bell_power")
BEXPANSION_FNS = ("b_expand", "bcomp_matrix", "power_poly",
                  "bcomp_row_from_convolutions")
SUITES = ("lemma21", "theorem22", "theorem42", "lemma41", "theorem61",
          "theorem71", "theorem72", "theorem81", "section9")
COMMANDS = ("matrix", "power", "comp-poly", "bcomp", "bexpand", "aseq", "bseq",
            "sqrt-factor", "diag", "check", "oeis-compare")

SERIES_WL = "series_int,series_rat"


def _timed(prefix, fns, moves, on):
    rows = []
    for fn in fns:
        rows.append((f"{prefix}.{fn}.calls", "count", "lower", moves, on))
        rows.append((f"{prefix}.{fn}.self_s", "s", "lower", moves, on))
    return rows


PER_LAYER = (
    _timed("kernels", KERNEL_FNS, "ops_per_s,op_p50_ms", SERIES_WL)
    + [
        ("kernels.share", "1", "lower", "ops_per_s,op_p50_ms", SERIES_WL),
        ("kernels.mul.growth", "1", "lower", "op_p90_ms", "series_int"),
        ("kernels.compose.growth", "1", "lower", "op_p90_ms", "series_int"),
        ("kernels.revert.growth", "1", "lower", "op_p90_ms", "series_int"),
        ("kernels.mul.calls_in_compose_revert", "count", "lower",
         "op_p90_ms,ops_per_s", "series_int,structures"),
        ("kernels.out_bits_max", "bit", "lower", "op_p90_ms", "series_rat"),
    ]
    + _timed("series", SERIES_FNS, "ops_per_s", "series_rat")
    + [("series.generic.calls", "count", "lower", "ops_per_s", "series_rat")]
    + _timed("rings.parampoly", ("mul", "add"), "ops_per_s,op_p90_ms", "series_rat,cli")
    + _timed("triangle", ("matmul", "apply_vec", "add"),
             "op_p90_ms,ops_per_s,peak_rss_mb", "structures")
    + _timed("matrixlog", MATRIXLOG_FNS, "op_p90_ms,ops_per_s,peak_rss_mb", "structures")
    + [("matrixlog.bell_log.growth", "1", "lower", "op_p90_ms", "structures")]
    + _timed("core", CORE_FNS, "ops_per_s", "structures,cli")
    + [
        ("core.b_sequence.growth", "1", "lower", "ops_per_s", "structures"),
        ("core.from_b_sequence.growth", "1", "lower", "ops_per_s", "structures"),
    ]
    + _timed("bexpansion", BEXPANSION_FNS, "op_p90_ms,ops_per_s", "cli")
    + [
        ("bexpansion.b_expand.growth", "1", "lower", "op_p90_ms", "cli"),
        ("bexpansion.partitions", "count", "lower", "op_p90_ms,ops_per_s", "cli"),
        ("bexpansion.partition_cache.hit_ratio", "1", "higher", "ops_per_s", "cli"),
    ]
    + [(f"suites.{s}.total_s", "s", "lower", "op_p50_ms,setup_s", "cli") for s in SUITES]
    + [(f"cli.{c}.total_s", "s", "lower", "op_p50_ms,setup_s", "cli") for c in COMMANDS]
    + [
        ("exprparse.parse_expr.self_s", "s", "lower", "op_p50_ms", "cli"),
        ("exprparse.eval_expr.self_s", "s", "lower", "op_p50_ms", "cli"),
        ("render.format.self_s", "s", "lower", "op_p50_ms", "cli"),
        ("trace.overhead_ratio", "1", "lower", "-", "all"),
    ]
)
