"""Benchmark command: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  It builds the program from ``src/``,
prints one human-readable line per metric and, as its last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced for the
whole run; with ``--trace 1`` the run is split into an untraced and a traced
half and the metrics are the per-layer ones.  The exit code is 0 only when
every output check passed.  Provenance, and with ``--trace 1`` the spans as
JSONL, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

# One serving thread must mean one core: keep BLAS from spreading a plan
# call over a second one.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: Share of a ``--trace 1`` run measured untraced, for the overhead ratio.
UNTRACED_SHARE = 0.5


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _percentile_ms(values, q):
    import numpy as np

    return float(np.percentile(values, q)) * 1e3


def _variants(lowering):
    """``cohort -> [variant, ...]``: what the autotune races chose."""
    return {cohort: [r["variant"] for r in rows] for cohort, rows in lowering.items()}


def _variant_flags(workload_name, variants_by_setup):
    """Disagreements between this run's set-ups, and with earlier runs' files."""
    flags = []
    first = variants_by_setup[0]
    if any(v != first for v in variants_by_setup[1:]):
        flags.append(f"set-ups in this run chose different kernels: {variants_by_setup}")
    if os.path.isdir(OUT):
        for name in sorted(os.listdir(OUT)):
            if not (name.startswith(workload_name + "-seed") and name.endswith(".json")):
                continue
            try:
                with open(os.path.join(OUT, name), encoding="utf-8") as fh:
                    earlier = json.load(fh)["autotune_variants"][0]
            except (OSError, ValueError, KeyError, IndexError):
                continue
            if earlier != first:
                flags.append(f"{name} chose {earlier}, this run chose {first}")
    return flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro", "serving")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from repro.nn import autotune

    if not os.path.abspath(autotune.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {autotune.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # Never read or write the host's persistent autotune cache.
    os.environ[autotune.CACHE_ENV_VAR] = "off"
    from perfbench import checks, tracing
    from perfbench.workloads import LABEL_RATE_HZ, WORKLOADS, set_up

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.generate_load()
    system, setup_timings, lowerings = set_up(workload)
    ledger = system.ledger

    def plain(name, fn, *call_args):
        return fn(*call_args)

    untraced_s = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
    untraced = ledger.new_segment()
    workload.drive(system, untraced_s, plain)

    metrics = {}
    if args.trace:
        tracer = tracing.Tracer(workload.clock.now)
        counters = tracing.Counters()
        flush_records = system.flush_telemetry.records
        first_record = len(flush_records)
        stats_before = _specialization(system)
        traced = ledger.new_segment()
        with tracing.instrument(tracer, system, counters):
            workload.drive(system, args.seconds - untraced_s, tracer.run)
        specialized, generic = (
            after - before for after, before in zip(_specialization(system), stats_before)
        )
        records = flush_records[first_record:]
        extra = {
            "models.specialized_ratio": specialized / max(specialized + generic, 1),
            "serving.scheduler.flushes_deadline": sum(r.flush_reason == "deadline" for r in records),
            "serving.scheduler.flushes_full": sum(r.flush_reason == "full" for r in records),
            "serving.scheduler.deadline_violations": sum(r.deadline_violations for r in records),
            "streams.retained_entries": (
                sum(len(node.stream) for node in system.topology.walk()) if system.topology else 0
            ),
            "serving.telemetry.records_retained": sum(len(t.records) for t in system.telemetries),
            "harness.generator_lag_p99_ms": (
                _percentile_ms(untraced.generator_lags_s, 99) if untraced.generator_lags_s else 0.0
            ),
            "harness.trace_overhead_ratio": (traced.busy_s / max(traced.applied, 1))
            / (untraced.busy_s / max(untraced.applied, 1)),
            "harness.on_time_ratio": untraced.on_time / max(untraced.attempted, 1),
            "harness.host_speed_factor": statistics.median(r for _, r in workload.clock.factors),
            "harness.label_latency_p95_ms": _percentile_ms(untraced.latencies_s, 95),
            "harness.label_latency_p99_ms": _percentile_ms(untraced.latencies_s, 99),
        }
        layer = tracing.layer_metrics(tracer, counters, traced, extra)
        os.makedirs(OUT, exist_ok=True)
        # One span file per workload, overwritten by each traced run: a
        # stream run writes ~200k spans.
        tracer.write_jsonl(os.path.join(OUT, f"{args.workload}-spans.jsonl"))
        units = _per_layer_units()
        if set(layer) != set(units):
            raise RuntimeError(f"per-layer metrics out of step with BENCHMARK.json: "
                               f"{sorted(set(layer) ^ set(units))}")
        metrics = {name: {"value": float(layer[name]), "unit": unit} for name, unit in units.items()}

    system.shutdown()
    report = checks.check_outputs(
        ledger, system.accounted(), system.config.filter_settings, system.classifiers
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "sessions_per_core": (statistics.median(untraced.step_rates) / LABEL_RATE_HZ, "sessions"),
        "label_latency_p50_ms": (_percentile_ms(untraced.latencies_s, 50), "ms"),
        "setup_s": (statistics.median(setup_timings), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    on_time = untraced.on_time / max(untraced.attempted, 1)
    if not args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}

    variants = [_variants(lowering) for lowering in lowerings]
    flags = _variant_flags(args.workload, variants)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_fingerprint": autotune.host_fingerprint(),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "setup_timings_s": setup_timings,
        "autotune_variants": variants,
        "lowering": lowerings[-1],
        "variant_flags": flags,
        "labels": untraced.applied,
        "reference_kernel_s": workload.clock.speed.samples,
        "speed_factors": workload.clock.factors,
        "step_rates": untraced.step_rates,
        "latency_quantiles_ms": [
            _percentile_ms(untraced.latencies_s, q) for q in (10, 25, 50, 75, 90, 99)
        ],
        "on_time_ratio": on_time,
        "check": report.__dict__,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(provenance, fh, indent=1, default=str)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"host {provenance['host_fingerprint']}  git {provenance['git_sha'][:12]}  "
          f"nproc {provenance['nproc']}")
    print(f"windows attempted {report.attempted}  failed {report.failed}  "
          f"(conservation gap {report.conservation_gap}, bad rows {report.bad_rows}, "
          f"recomputed {report.samples_checked}: max window err {report.max_window_err_uv:.2e} uV, "
          f"max probability err {report.max_probability_err:.2e})")
    print(f"label latency samples {len(untraced.latencies_s)}  "
          f"host speed factor {statistics.median(r for _, r in workload.clock.factors):.3f}")
    for name, (value, unit) in e2e.items():
        print(f"{name:<24} {value:12.4f} {unit}")
    for q in (95, 99):
        tail = _percentile_ms(untraced.latencies_s, q)
        print(f"{f'label_latency_p{q}_ms':<24} {tail:12.4f} ms  (not gated)")
    print(f"{'on_time_ratio':<24} {on_time:12.4f} ratio  (not gated)")
    if args.trace:
        for name, entry in metrics.items():
            print(f"{name:<40} {entry['value']:12.4f} {entry['unit']}")
    for flag in flags:
        print(f"autotune: {flag}")
    print(f"autotune variants: {variants[-1]}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if report.correct else 1


def _specialization(system):
    specialized = generic = 0.0
    for classifier in system.classifiers.values():
        stats = classifier.specialization_stats() or {}
        specialized += stats.get("specialized_calls", 0.0)
        generic += stats.get("generic_calls", 0.0)
    return specialized, generic


def _per_layer_units():
    """Per-layer metric name -> unit, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
