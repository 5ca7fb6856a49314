"""Command-line front end: simulate, analyze, verify, capacity.

Exit codes: 0 success, 1 invariant violation (failed verification),
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, harness
from .fading import parse_channel_spec
from .modem import modulation


MAX_ESNO_POINTS = 100_000


def _esno_list(args):
    for flag, value in (("--esno-start", args.esno_start), ("--esno-stop", args.esno_stop),
                        ("--esno-step", args.esno_step)):
        if not np.isfinite(value):
            raise harness.ConfigError(f"{flag} must be finite, got {value:g}")
    if not args.esno_step > 0:
        raise harness.ConfigError(f"--esno-step must be positive, got {args.esno_step:g}")
    if (args.esno_stop + 1e-9 - args.esno_start) / args.esno_step > MAX_ESNO_POINTS:
        raise harness.ConfigError(
            f"--esno-step {args.esno_step:g} gives more than {MAX_ESNO_POINTS} points "
            f"from --esno-start {args.esno_start:g} to --esno-stop {args.esno_stop:g}")
    sweep = np.arange(args.esno_start, args.esno_stop + 1e-9, args.esno_step)
    if sweep.size == 0:
        raise harness.ConfigError("empty Es/N0 sweep")
    return tuple(float(e) for e in sweep)


def _add_sweep_flags(p):
    p.add_argument("--esno-start", type=float, default=0.0, help="sweep start in dB")
    p.add_argument("--esno-stop", type=float, default=10.0, help="sweep stop in dB")
    p.add_argument("--esno-step", type=float, default=2.0, help="sweep step in dB")
    p.add_argument("--out", type=str, default=None, help="CSV output path (stdout if omitted)")


def _write_csv(text, out_path, sidecar=None):
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w") as fh:
        fh.write(text)
    if sidecar is not None:
        with open(out_path + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _branches_from_args(args, n_t):
    from .fading import BranchStat

    stats = harness.branch_stats(n_t, args.channel, args.profile)
    if getattr(args, "m_list", None):
        ms = [float(x) for x in args.m_list.split(",")]
        if len(ms) != n_t:
            raise harness.ConfigError(f"--m-list needs {n_t} entries")
        fams = ["hoyt" if m < 1 else ("rayleigh" if m == 1 else "rice") for m in ms]
        family = parse_channel_spec(args.channel)[0]
        if family == "nakagami":
            fams = ["nakagami"] * n_t
        stats = [BranchStat(f, m, s.omega) for f, m, s in zip(fams, ms, stats)]
    if getattr(args, "omega_list", None):
        oms = [float(x) for x in args.omega_list.split(",")]
        if len(oms) != n_t:
            raise harness.ConfigError(f"--omega-list needs {n_t} entries")
        stats = [BranchStat(s.family, s.m, o) for s, o in zip(stats, oms)]
    return stats


def _cmd_simulate(args):
    config = harness.ExperimentConfig(
        k=args.K,
        n_t=args.nt,
        n_r=args.nr,
        modulation=args.mod,
        channel=args.channel,
        profile=args.profile,
        esno_db=_esno_list(args),
        trials=args.trials,
        target_errors=args.target_errors,
        seed=args.seed,
        batch=args.batch,
        workers=args.workers,
    )
    result = harness.run_sweep(config)
    _write_csv(result.to_csv(), args.out, sidecar=result.config_dict())
    return 0


def _cmd_analyze(args):
    mod = modulation(args.mod)
    stats = _branches_from_args(args, args.nt)
    params = analysis.BerParams(
        n_t=args.nt,
        n_r=args.nr,
        branches=tuple(stats),
        rho=args.rho,
        eta=args.eta,
        nakagami_approx=args.nakagami_approx,
    )
    fn = analysis.psk_ber if mod.family == "psk" else analysis.qam_ber
    esno_db = _esno_list(args)
    lines = ["esno_db,ber"]
    lines += [f"{e:.10g},{b:.10g}" for e, b in zip(esno_db, fn(mod.order, params, esno_db))]
    _write_csv("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args):
    report = harness.verify(args.K, seed=args.seed)
    sys.stdout.write(report.to_text() + "\n")
    return 0 if report.ok else 1


def _cmd_capacity(args):
    mods = tuple(args.mods.split(",")) if args.mods else harness.CAPACITY_MODULATIONS
    names, rows = harness.capacity_sweep(
        _esno_list(args),
        n_t=args.nt,
        n_r=args.nr,
        channel=args.channel,
        profile=args.profile,
        rho=args.rho,
        mods=mods,
    )
    lines = ["esno_db," + ",".join(names) + ",envelope"]
    for row in rows:
        lines.append(",".join(f"{v:.10g}" for v in row))
    _write_csv("\n".join(lines) + "\n", args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qostbc",
        description="Quasi-orthogonal space-time block codes: simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo BER sweep with analytic reference")
    p.add_argument("--K", type=int, required=True, help="block size (power of two)")
    p.add_argument("--nt", type=int, default=None, help="transmit antennas (default K)")
    p.add_argument("--nr", type=int, default=1, help="receive antennas")
    p.add_argument("--mod", type=str, default="qpsk", help='modulation, e.g. "psk8", "qam64"')
    p.add_argument("--channel", type=str, default="rayleigh",
                   help='"rayleigh", "rice:m=2", "hoyt:m=0.7", "nakagami:m=2.5", "mixed"')
    p.add_argument("--profile", type=str, default="equipower",
                   help='"equipower" or "linear:pmax=2"')
    p.add_argument("--trials", type=int, default=1_000_000, help="block cap per SNR point")
    p.add_argument("--target-errors", type=int, default=200)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--batch", type=int, default=2048)
    p.add_argument("--workers", type=int, default=1)
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="analytic BER sweep (no simulation)")
    p.add_argument("--mod", type=str, required=True)
    p.add_argument("--nt", type=int, required=True)
    p.add_argument("--nr", type=int, default=1)
    p.add_argument("--rho", type=float, default=1.0, help="code rate")
    p.add_argument("--eta", type=float, default=1.0, help="transmit diversity order")
    p.add_argument("--channel", type=str, default="rayleigh")
    p.add_argument("--profile", type=str, default="equipower")
    p.add_argument("--m-list", type=str, default=None,
                   help="comma-separated per-branch severities (overrides --channel m)")
    p.add_argument("--omega-list", type=str, default=None,
                   help="comma-separated per-branch mean powers (overrides --profile)")
    p.add_argument("--nakagami-approx", action="store_true",
                   help="use the Nakagami MGF for every branch")
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="run the structural invariant suite")
    p.add_argument("--K", type=int, default=256, help="largest block size to check")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("capacity", help="hard-decision rate capacity per modulation")
    p.add_argument("--nt", type=int, required=True)
    p.add_argument("--nr", type=int, default=1)
    p.add_argument("--channel", type=str, default="rayleigh")
    p.add_argument("--profile", type=str, default="equipower")
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--mods", type=str, default=None,
                   help="comma-separated modulation list (default BPSK..4096QAM)")
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_capacity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "nt", None) is None and hasattr(args, "K"):
        args.nt = args.K
    try:
        return args.func(args)
    except (harness.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
