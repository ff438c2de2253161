"""Command-line interface.

Subcommands: profiles, simulate, verify, rates, sweep.
Exit codes: 0 pass, 1 check failure, 2 configuration error, 3 instability,
4 other numerical error.
"""

import argparse
import glob
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import asymptotics as asy
from . import checks
from . import profiles as pr
from .core import Field, make_grid
from .errors import ConfigError, InstabilityError, NumericsError
from .harness import run_experiment, scenario_from_json, write_csv
from .profiles import ModelParams
from .solver import Trajectory


def _add_param_args(sp):
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--mass", type=float, required=True)
    sp.add_argument("--alpha", type=float, required=True)


def _cmd_profiles(args) -> int:
    p = ModelParams(args.beta, args.gamma, args.alpha, args.mass)
    ps = pr.constants(p, c_alpha=(args.c_plus, args.c_minus))
    print(f"kappa = {ps.kappa!r}")
    print(f"d     = {ps.d!r}")
    print(f"mu0   = {ps.mu0!r}")
    print(f"mu1   = {ps.mu1!r}")
    if args.table_out:
        grid = make_grid(args.L, args.N)
        x = grid.x
        cols = [x, pr.chi_star(x, p), pr.eta_star(x, p), pr.V_star(x, p)]
        header = "x,chi_star,eta_star,V_star"
        if args.z_time is not None:
            cols.append(pr.Z_eval(x, args.z_time, p, ps))
            header += f",Z_t{args.z_time:g}"
        write_csv(args.table_out, header, cols)
        print(f"wrote {args.table_out}")
    return 0


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        s = scenario_from_json(json.load(fh))
    bundle = run_experiment(s, out_root=args.out)
    solver = bundle["report"]["solver"]
    print(f"solver: {solver['segments']} segments, {solver['steps_accepted']} steps "
          f"accepted, {solver['steps_rejected']} rejected, "
          f"dt_final {solver['dt_final']:.4g}, "
          f"n_points_final {solver['n_points_final']}")
    print(f"bundle written to {bundle['paths'].get('bundle_dir', '<not written>')}")
    return 0


def _cmd_verify(args) -> int:
    results = checks.SUITES[args.suite]()
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _load_bundle_trajectory(bundle_dir: str):
    with open(os.path.join(bundle_dir, "report.json")) as fh:
        report = json.load(fh)
    s = scenario_from_json(report["scenario"])
    grid = s.grid
    times = np.asarray(report["solver"]["times"])
    shape = (times.size, grid.n_points)
    try:
        values = np.load(os.path.join(bundle_dir, "snapshots.npy"), allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bundle {bundle_dir}: cannot read snapshots.npy: {exc}") from exc
    if values.shape != shape or values.dtype != np.float64:
        raise ConfigError(f"bundle {bundle_dir}: snapshots.npy holds {values.dtype} "
                          f"{values.shape}, expected float64 {shape}")
    snaps = [Field(grid, row) for row in values]
    masses = np.array([f.mass() for f in snaps])
    traj = Trajectory(s.params, grid, times, snaps, masses, np.zeros(len(snaps)))
    cd = report["constants"]["c_alpha"]
    ps = pr.constants(s.params, c_alpha=(cd["c_plus"], cd["c_minus"]))
    return s, traj, ps


def _cmd_rates(args) -> int:
    s, traj, ps = _load_bundle_trajectory(args.bundle)
    key = (args.combo, args.l, args.norm)
    es = asy.error_series_multi(traj, ps, [args.combo], orders=(args.l,),
                                norms=(args.norm,))[key]
    window = tuple(args.window) if args.window else asy.default_window(traj.times)
    claim = asy.rate_claim(s.alpha, args.combo, args.l, args.norm)
    fit = asy.fit_rate(es, window, log_power=claim.log_power)
    print(f"combo={args.combo} norm={args.norm} l={args.l} window={window}")
    print(f"  exponent   = {fit.exponent:+.4f}  (log_power={fit.log_power})")
    print(f"  claimed    = {claim.exponent:+.4f}  ({claim.kind})")
    print(f"  theil_sen  = {fit.theil_sen:+.4f}")
    print(f"  amplitude  = {fit.amplitude:.6g}")
    print(f"  resid_rms  = {fit.residual_rms:.3e}  over {fit.n_samples} samples")
    return 0


def _run_one(path, out):
    with open(path) as fh:
        s = scenario_from_json(json.load(fh))
    return run_experiment(s, out_root=out)["paths"].get("bundle_dir", "")


def _cmd_sweep(args) -> int:
    paths = sorted(glob.glob(args.configs))
    if not paths:
        raise ConfigError(f"no configs match {args.configs!r}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    failures = 0
    with ProcessPoolExecutor(max_workers=args.jobs) as ex:
        futures = [(path, ex.submit(_run_one, path, args.out)) for path in paths]
        for path, fut in futures:
            try:
                print(f"{path} -> {fut.result()}")
            except Exception as exc:  # noqa: BLE001 - report, keep sweeping
                failures += 1
                print(f"{path} FAILED: {type(exc).__name__}: {exc}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bbmburgers",
        description="Numerical laboratory for BBM-Burgers large-time asymptotics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("profiles", help="tabulate closed-form profiles and constants")
    _add_param_args(sp)
    sp.add_argument("--c-plus", type=float, default=0.0, dest="c_plus")
    sp.add_argument("--c-minus", type=float, default=0.0, dest="c_minus")
    sp.add_argument("--z-time", type=float, default=None, dest="z_time")
    sp.add_argument("--L", type=float, default=40.0)
    sp.add_argument("--N", type=int, default=2048)
    sp.add_argument("--table-out", default=None, dest="table_out")
    sp.set_defaults(fn=_cmd_profiles)

    sp = sub.add_parser("simulate", help="run one scenario and write its bundle")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default="out")
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("verify", help="run a built-in acceptance suite")
    sp.add_argument("--suite", required=True, choices=sorted(checks.SUITES))
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("rates", help="fit decay rates from a written bundle")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--combo", required=True, choices=list(asy.COMBOS))
    sp.add_argument("--norm", required=True, choices=["l2", "linf"])
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--window", type=float, nargs=2, default=None)
    sp.set_defaults(fn=_cmd_rates)

    sp = sub.add_parser("sweep", help="run many scenarios")
    sp.add_argument("--configs", required=True)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", default="out")
    sp.set_defaults(fn=_cmd_sweep)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
