"""One workload process: set up, signal READY, run timed operations, report.

Started by run.py, which times set-up from process creation to the READY
line.  Prints READY, then one JSON line with the per-operation results.
With --setup-only it stops after READY, so run.py can sample set-up time
several times per run.

Operations repeat until the next one would be expected to end more than half
an operation past --seconds.  With --trace 1 they alternate untraced and
traced, starting untraced; per-layer metrics come from the traced ones and
the difference of the two medians is the tracing overhead.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "bbmburgers", "__init__.py")):
        sys.exit(f"worker: no bbmburgers sources under {SRC}")
    sys.path.insert(0, SRC)
    import bbmburgers
    import bbmburgers.checks  # noqa: F401  (not imported by the package itself)

    if not os.path.abspath(bbmburgers.__file__).startswith(SRC + os.sep):
        sys.exit(f"worker: imported bbmburgers from {bbmburgers.__file__}, not {SRC}")
    return bbmburgers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    bb = _import_package()

    import machine
    import spans
    import workloads as wls

    wl = wls.WORKLOADS[args.workload]
    variant = wls.variant_of(args.seed)
    inputs = wl.inputs(bb, args.size, variant)
    expected = None
    if wl.pinned:
        key = wls.reference_key(wl.name, args.size, variant)
        entry = wls.load_reference().get(key)
        if entry is None or entry["params"] != wls.describe(inputs):
            sys.exit(f"worker: reference.json has no entry for {key} with these inputs")
        expected = entry["exponents"]
    tag = f"{wl.name}-seed{args.seed}" + ("-smoke" if args.size == "smoke" else "")
    bundle_root = os.path.join(args.out, "bundles", tag)
    if not args.setup_only:
        wls.clear_dir(bundle_root)
    modules = {m: getattr(bb, m) for m in
               ("asymptotics", "checks", "harness", "profiles", "semigroup", "solver")}
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = spans.Tracer() if args.trace else None
    null = spans.NullTracer()
    walls = {False: [], True: []}
    layers = []
    op_self = []
    problems_seen = []
    state = {}
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        tr = tracer if traced else null
        run_id = attempted
        attempted += 1
        problems = []
        try:
            t0 = time.perf_counter()
            with tr.installed(modules, run_id):
                with tr.span(f"bench.{wl.name}"):
                    result = wl.run(bb, inputs, tr, bundle_root)
            wall = time.perf_counter() - t0
            problems += wl.check(bb, inputs, result, state)
            shift = 0.0
            if expected is not None:
                shift, more = wls.exponent_shift(wl.exponents(bb, result), expected)
                problems += more
            if traced:
                op_spans = [s for s in tracer.spans if s.run == run_id]
                op_self.append(spans.self_by_name(op_spans))
                m = spans.layer_metrics(op_spans)
                files, size = wl.bundle_stats(result)
                m["harness.bundle_files"], m["harness.bundle_bytes"] = files, size
                m["asymptotics.exponent_shift_max"] = shift
                layers.append(m)
            del result
            walls[traced].append(wall)
        except Exception:
            problems.append(traceback.format_exc())
        if problems:
            failed += 1
            problems_seen.extend(problems)
            for p in problems:
                print(f"worker: operation {run_id} failed: {p}", file=sys.stderr)

        done = walls[False] + walls[True]
        elapsed = time.perf_counter() - begin
        typical = statistics.median(done) if done else elapsed / attempted
        if args.max_ops is not None and attempted >= args.max_ops:
            break
        if args.trace and attempted < 2:
            continue
        if elapsed + 0.5 * typical >= args.seconds:
            break

    layer, self_med = {}, {}
    if layers:
        self_med = {k: statistics.median(d.get(k, 0.0) for d in op_self)
                    for k in sorted(set().union(*op_self))}
        layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        if walls[False] and walls[True]:
            layer["trace.overhead_s"] = (statistics.median(walls[True])
                                         - statistics.median(walls[False]))
    spans_file = None
    if tracer is not None:
        spans_file = os.path.join(args.out, f"spans-{tag}.jsonl")
        tracer.write(spans_file)
    record = {
        "attempted": attempted,
        "failed": failed,
        "walls": walls[False],
        "traced_walls": walls[True],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layer": layer,
        "self_s": self_med,
        "variant": variant,
        "inputs": wls.describe(inputs),
        "problems": problems_seen[:10],
        "spans_file": spans_file,
        "machine": machine.describe(),
    }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
