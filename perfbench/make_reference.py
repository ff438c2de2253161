"""Regenerate reference.json: the fitted exponents every workload variant must
reproduce, computed once by the current program.

    python3 perfbench/make_reference.py            # every size (a few minutes)
    python3 perfbench/make_reference.py --size smoke

Rerun only in a change that redefines the benchmark; a change that claims a
gain must leave reference.json alone, so the exponents it reproduces are the
parent's.
"""

import argparse
import json
import os
import sys
import tempfile

import worker
import workloads as wls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", choices=("full", "smoke"), action="append")
    args = ap.parse_args(argv)
    bb = worker._import_package()
    from spans import NullTracer

    try:
        ref = wls.load_reference()
    except FileNotFoundError:
        ref = {}
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as out:
        for size in args.size or ("full", "smoke"):
            for wl in wls.WORKLOADS.values():
                if not wl.pinned:
                    continue
                for variant in range(wls.N_VARIANTS):
                    inputs = wl.inputs(bb, size, variant)
                    result = wl.run(bb, inputs, NullTracer(), out)
                    problems = wl.check(bb, inputs, result, {})
                    if problems:
                        raise SystemExit(f"{wl.name} v{variant}: {problems}")
                    key = wls.reference_key(wl.name, size, variant)
                    ref[key] = {"params": wls.describe(inputs),
                                "exponents": wl.exponents(bb, result)}
                    print(key, json.dumps(ref[key]["exponents"]), flush=True)
    with open(wls.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
