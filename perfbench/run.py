"""bbmburgers benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload slowtail --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke          # every workload once, tiny grids

Run from the root of a checkout; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  The lines before it
name the machine, the inputs and every metric with its unit; the same record
goes to perfbench/out/result-<workload>-seed<seed>-trace<t>.json.

Set-up time is sampled SETUP_SAMPLES times per untraced run: that many
workload processes are started one after another, each timed from process
creation to its READY line, and only the last one goes on to run operations.
See README.md for the workloads, the metrics and what each should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # every run ends, one way or another, before 180 s


class BenchError(Exception):
    pass


def _spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def _start(cmd, deadline):
    """Start a worker; returns (process, seconds from creation to READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"worker did not reach READY (got {line!r})")
        if time.monotonic() > deadline:
            raise BenchError("set-up overran the run deadline")
    except BaseException:
        _stop(proc)
        raise
    return proc, ready


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker overran the run deadline") from None
    except BaseException:
        _stop(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def measure(workload, seed, seconds, trace, out, size="full", max_ops=None,
            setup_samples=SETUP_SAMPLES) -> dict:
    """Run one workload in fresh processes and return the full record."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(out, exist_ok=True)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace), "--size", size,
           "--out", out]
    if max_ops is not None:
        cmd += ["--max-ops", str(max_ops)]
    setups = []
    if not trace:
        for _ in range(setup_samples - 1):
            proc, ready = _start(cmd + ["--setup-only"], deadline)
            _finish(proc, deadline)
            setups.append(ready)
    proc, ready = _start(cmd, deadline)
    setups.append(ready)
    lines = _finish(proc, deadline).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    rec = json.loads(lines[-1])
    rec.update(workload=workload, seed=seed, seconds=seconds, trace=trace, size=size,
               setup_samples=setups)
    return rec


def tail(values):
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def metrics(rec, spec) -> dict:
    if rec["trace"]:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        source = rec["layer"]
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        source = {
            "wall_s": statistics.median(rec["walls"]) if rec["walls"] else None,
            "setup_s": statistics.median(rec["setup_samples"]),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
    return {name: {"value": source.get(name), "unit": unit} for name, unit in names}


def summary_lines(rec, result) -> list:
    m = rec["machine"]
    lines = [
        f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
        f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']} "
        f"({m['blas_library']}, core {m['blas_core']}, {m['blas_threads']} threads)",
        f"workload {rec['workload']} size={rec['size']} seed={rec['seed']} "
        f"variant={rec['variant']} trace={rec['trace']}: "
        f"{rec['attempted']} operations attempted, {rec['failed']} failed",
        f"inputs: {json.dumps(rec['inputs'], sort_keys=True)}",
    ]
    walls = rec["walls"]
    if walls:
        t = tail(walls)
        tail_txt = (f"p{t[1]:.1f} {t[0]:.4f} s" if t else
                    "no percentile has ten samples beyond it")
        lines.append(f"  operation wall time: median {statistics.median(walls):.4f} s, "
                     f"{tail_txt}, n={len(walls)}")
    setups = ", ".join(f"{s:.3f}" for s in rec["setup_samples"])
    lines.append(f"  set-up samples: {setups} s")
    for name, mv in result["metrics"].items():
        lines.append(f"  {name} = {mv['value']} {mv['unit']}")
    if rec["self_s"]:
        lines.append("  self time per traced operation, largest first:")
        lines.extend(f"    {v:9.4f} s  {k}" for k, v in
                     sorted(rec["self_s"].items(), key=lambda kv: -kv[1]))
    lines.extend(f"  problem: {p.strip().splitlines()[-1]}" for p in rec["problems"])
    if rec.get("spans_file"):
        lines.append(f"  spans: {rec['spans_file']}")
    return lines


def run_one(args, spec, size="full", max_ops=None, setup_samples=SETUP_SAMPLES):
    rec = measure(args.workload, args.seed, args.seconds, args.trace, args.out,
                  size=size, max_ops=max_ops, setup_samples=setup_samples)
    result = {"correct": False, "attempted": rec["attempted"], "failed": rec["failed"],
              "metrics": metrics(rec, spec)}
    missing = [k for k, v in result["metrics"].items() if v["value"] is None]
    result["correct"] = rec["failed"] == 0 and not missing
    rec["result"] = result
    suffix = "-smoke" if size == "smoke" else ""
    path = os.path.join(args.out, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}{suffix}.json")
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
    for line in summary_lines(rec, result):
        print(line)
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once untraced and once traced on tiny grids")
    ap.add_argument("--out", default=os.path.join(HERE, "out"),
                    help="directory for results, spans and bundles")
    args = ap.parse_args(argv)
    try:
        spec = _spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.smoke:
            ok = True
            for name in names:
                for trace in (0, 1):
                    args.workload, args.trace = name, trace
                    res = run_one(args, spec, size="smoke", max_ops=1 + trace,
                                  setup_samples=1)
                    print(json.dumps(res))
                    ok &= res["correct"]
            return 0 if ok else 1
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
        print(json.dumps(run_one(args, spec)))
        return 0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
