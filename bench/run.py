"""Benchmark for secluster: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (it imports the program from `src/`):

    python3 bench/run.py --workload sweep-paper --seed 1 --seconds 20 --trace 0

A run sets up, then repeats whole passes of the workload until the program
has run for `--seconds`, and reads its peak RSS.  The first pass checks
every output, with the clock stopped while it checks; later passes must
write the same artifacts and make the same counts.  Between passes it sets
up again, SETUP_SAMPLES times spread over the timed phase and at least
once after every pass, so that set-up is sampled across the run like the
passes.  The end-to-end times are the mean pass and the median unit
operation over the passes after the checked one, and the median set-up,
all scaled to a reference host speed by probes timed between the calls
into the program (see `timing.Pass` and bench/README.md).  The last line of standard output is one JSON
object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
passes alternate between untraced and traced, the metrics are the
per-layer ones taken from the traced passes, plus the tracing overhead,
and the spans are written to `bench/out/<workload>/spans.json`.  `--smoke`
runs the small inputs once with every check and no time bound.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from checks import Checker
from timing import REF_PROBE_S, Pass, Tracer, median, probe, span_cost_s
from workloads import WORKLOADS, Hooks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("keying", "udg", "domsets", "protocol", "analysis", "svgplot", "cli")
SETUP_SAMPLES = 12

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "op_p50_ms": "ms", "tx_per_node": "tx/node"}
# metric -> the spans whose self times it adds up; a command's own self time
# is its argument parsing and the files it writes outside the traced layers
LAYER_TIMES = {"udg.build_s": ("udg.build",), "keying.plan_s": ("keying.plan",),
               "protocol.form_s": ("protocol.form",),
               "protocol.trace_csv_s": ("protocol.trace_csv",),
               "analysis.validity_s": ("analysis.validity",),
               "domsets.greedy_I_s": ("domsets.greedy_I",),
               "domsets.greedy_II_s": ("domsets.greedy_II",),
               "cli.artifacts_s": ("cli.sweep", "cli.form", "cli.artifacts")}
LAYER_COUNTS = ("udg.edges", "keying.keys_issued", "protocol.trace_events",
                "protocol.flood_relays", "protocol.envelopes", "protocol.adopted",
                "protocol.promoted", "protocol.unreachable", "protocol.rekeys",
                "domsets.greedy_I_size", "domsets.greedy_II_size")
LAYER_LATENCIES = {"protocol.join_p50_ms": "protocol.join",
                   "protocol.leave_p50_ms": "protocol.leave",
                   "protocol.replay_p50_ms": "protocol.replay"}


def load_program() -> SimpleNamespace:
    """Import the program afresh from the checkout's `src/` directory, hooked."""
    if not (SRC / "secluster" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program at {SRC / 'secluster'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "secluster" or m.startswith("secluster.")]:
        del sys.modules[name]
    prog = SimpleNamespace(**{m: importlib.import_module(f"secluster.{m}")
                              for m in MODULES})
    prog.hooks = Hooks(prog)
    return prog


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def set_up(args) -> tuple[object, float, float]:
    """Import the program afresh and run a small warm-up pass.

    Returns the workload, and the set-up's seconds raw and scaled to the
    reference probe speed by the mean of a probe before and one after.
    """
    before = probe()[0]
    start = time.perf_counter()
    prog = load_program()
    WORKLOADS[args.workload](prog, args.seed, smoke=True).run_pass(
        Pass(Tracer(), -1, False), OUT / args.workload / "warmup", None)
    job = WORKLOADS[args.workload](prog, args.seed, smoke=args.smoke)
    raw = time.perf_counter() - start
    return job, raw, raw * REF_PROBE_S / ((before + probe()[0]) / 2)


def measured(passes) -> list:
    # The first pass runs the output checks between its timed calls, which
    # slowed its timed part by up to a quarter, so the figures come from
    # the passes after it unless it is the only one.
    return passes[1:] or passes


def end_to_end(setup_times, passes, peak_rss_mb) -> dict:
    # The times are already scaled by the probes.  What is left of the
    # host's load moves statistics pooled over the whole timed phase, the
    # mean pass and the median of all unit operations, least; the median
    # set-up moved less than the fastest one.
    counts = passes[0].counts
    timed = measured(passes)
    return {
        "setup_s": median(setup_times),
        "wall_s": sum(p.wall for p in timed) / len(timed),
        "cpu_s": sum(p.cpu for p in timed) / len(timed),
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": median([ms for p in timed for ms in p.op_ms]),
        "tx_per_node": counts["sensor_tx"] / counts["planned"],
    }


def per_layer(tracer: Tracer, passes) -> tuple[dict, dict]:
    self_times = tracer.self_times()
    traced = [i for i, p in enumerate(passes) if p.traced]
    metrics, units = {}, {}
    for metric, spans in LAYER_TIMES.items():
        metrics[metric] = median([float(sum(self_times[i][s] for s in spans))
                                  for i in traced])
        units[metric] = "s"
    for metric, span in LAYER_LATENCIES.items():
        metrics[metric] = median(tracer.durations_ms(span))
        units[metric] = "ms"
    counts = passes[0].counts
    for name in LAYER_COUNTS:
        metrics[name] = counts[name]
        units[name] = "count"
    metrics["protocol.relays_per_flood"] = (
        counts["protocol.flood_relays"] / counts["floods"] if counts["floods"] else 0.0)
    units["protocol.relays_per_flood"] = "count"
    metrics["protocol.trace_csv_mb"] = counts["trace_csv_bytes"] / 1e6
    units["protocol.trace_csv_mb"] = "MB"
    metrics["protocol.replay_decrypts_per_envelope"] = (
        counts["replay_decrypts"] / counts["replay_envelopes"]
        if counts["replay_envelopes"] else 0.0)
    units["protocol.replay_decrypts_per_envelope"] = "count"
    # The spans of a traced pass times the cost of one span, over the mean
    # untraced pass.  Comparing traced with untraced passes directly would
    # measure the host's load: a sweep-paper run has only two pairs.
    spans = median([tracer.spans_in_pass(i) for i in traced])
    untraced = ([p.raw_wall for p in measured(passes) if not p.traced]
                or [passes[0].raw_wall])
    metrics["trace.overhead_pct"] = (100.0 * spans * span_cost_s()
                                     / (sum(untraced) / len(untraced)))
    units["trace.overhead_pct"] = "%"
    return metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="program time to measure, in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, one timed pass, every check")
    args = parser.parse_args(argv)
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)

    job, setup_raw, setup_s = set_up(args)
    setup_raw, setup_times = [setup_raw], [setup_s]

    tracer = Tracer()
    chk = Checker()
    passes, digests = [], []
    # the first pass is the checked one; outside --smoke at least one more
    # pass is measured, and with --trace 1, where passes alternate untraced
    # and traced, one more again
    min_passes = 1 + (not args.smoke) + bool(args.trace)
    while len(passes) < min_passes or (
            not args.smoke and sum(p.raw_wall for p in passes) < args.seconds):
        p = Pass(tracer, len(passes), traced=bool(args.trace) and len(passes) % 2 == 1)
        p.start()
        job.run_pass(p, out / "run", None if passes else chk)
        p.finish()
        tracer.enabled = False
        digests.append(digest(out / "run"))
        passes.append(p)
        share = min(1.0, sum(p.raw_wall for p in passes) / args.seconds)
        while len(setup_times) < max(len(passes), math.ceil(SETUP_SAMPLES * share)) + 1:
            _job, raw, scaled = set_up(args)
            setup_raw.append(raw)
            setup_times.append(scaled)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    chk.expect(len(set(digests)) == 1,
               "passes with the same seed wrote different artifacts")
    chk.expect(all(p.counts == passes[0].counts and p.attempted == passes[0].attempted
                   and p.failed == passes[0].failed for p in passes),
               "passes with the same seed made different counts")

    if args.trace:
        metrics, units = per_layer(tracer, passes)
        tracer.write(out / "spans.json")
    else:
        metrics = end_to_end(setup_times, passes, peak_rss_mb)
        units = END_TO_END_UNITS
    result = {
        "correct": not chk.failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {"seed": args.seed, "setup_s": setup_times, "setup_raw_s": setup_raw,
              "pass_wall_s": [p.wall for p in passes],
              "pass_raw_wall_s": [p.raw_wall for p in passes],
              "pass_cpu_s": [p.cpu for p in passes],
              "pass_raw_cpu_s": [p.raw_cpu for p in passes],
              "pass_op_p50_ms": [median(p.op_ms) for p in passes],
              "pass_probe_p50_ms": [median(p.probes) * 1e3 for p in passes],
              "counts": dict(passes[0].counts), "artifacts_sha256": digests[0]}
    (out / f"result-trace{args.trace}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1))
    for failure in chk.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"{args.workload}: seed={args.seed} passes={len(passes)} "
          f"artifacts sha256={digests[0]}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
