"""Command-line front end: simulate, analyze, verify, capacity.

Exit codes: 0 success, 1 invariant violation (failed verification),
2 configuration error or a run too large for the memory available.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__, analysis, harness
from .fading import BranchStat, parse_channel_spec, parse_profile_spec, severity_family
from .modem import modulation


MAX_ESNO_POINTS = 100_000

# what the ber_analytic column of simulate is, stated in its sidecar
BER_ANALYTIC_NOTE = "full-diversity ML bound; equals the linear decoder only at K=2"

# glibc's mallopt parameter numbers (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


@functools.cache  # once per process
def _keep_freed_memory():
    """Let memory freed by one simulate batch serve the next.

    By default glibc serves an array of 128 KiB or more with its own mmap
    and returns it to the system when it is freed, so each batch faults its
    pages in anew.  So this sets glibc's mmap threshold to 32 MiB, glibc's
    own ceiling for its dynamic threshold on 64-bit, and its trim threshold
    to twice that, 64 MiB, as glibc's dynamic rule pairs them.  Both are
    needed: with the mmap threshold set alone, glibc no longer raises its
    trim threshold and still returns the freed heap top on every batch.
    Where libc has no ``mallopt`` (not glibc), nothing is set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


def _seed(text):
    """A ``--seed``: an integer >= 0."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return seed


def _numbers(text):
    """A comma-separated list of numbers, such as ``--m-list 0.5,2``."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _spec(parse):
    """An argparse type that keeps the spec string if ``parse`` accepts it."""

    def check(text):
        try:
            parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return check


def _esno_list(args):
    for flag, value in (("--esno-start", args.esno_start), ("--esno-stop", args.esno_stop),
                        ("--esno-step", args.esno_step)):
        if not np.isfinite(value):
            raise harness.ConfigError(f"{flag} must be finite, got {value:g}")
    if not args.esno_step > 0:
        raise harness.ConfigError(f"--esno-step must be positive, got {args.esno_step:g}")
    # steps from start to stop, with a tolerance counted in steps, which an
    # Es/N0 of any magnitude keeps
    steps = (args.esno_stop - args.esno_start) / args.esno_step + 1e-9
    if steps >= MAX_ESNO_POINTS:
        raise harness.ConfigError(
            f"--esno-step {args.esno_step:g} gives more than {MAX_ESNO_POINTS} points "
            f"from --esno-start {args.esno_start:g} to --esno-stop {args.esno_stop:g}")
    if steps < 0:
        raise harness.ConfigError("empty Es/N0 sweep")
    sweep = args.esno_start + args.esno_step * np.arange(int(steps) + 1)
    return tuple(float(e) for e in sweep)


def _add_sweep_flags(p):
    p.add_argument("--esno-start", type=float, default=0.0, help="sweep start in dB")
    p.add_argument("--esno-stop", type=float, default=10.0, help="sweep stop in dB")
    p.add_argument("--esno-step", type=float, default=2.0, help="sweep step in dB")
    p.add_argument("--out", type=str, default=None, help="CSV output path (stdout if omitted)")


def _add_channel_flags(p):
    p.add_argument("--nr", type=int, default=1, help="receive antennas")
    p.add_argument("--channel", type=_spec(parse_channel_spec), default="rayleigh",
                   help='"rayleigh", "rice:m=2", "hoyt:m=0.7", "nakagami:m=2.5", "mixed"')
    p.add_argument("--profile", type=_spec(parse_profile_spec), default="equipower",
                   help='"equipower" or "linear:pmax=2"')


def _open_out(path, mode="w"):
    """Open an output file; a path that cannot be written is a configuration error."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise harness.ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write_csv(text, out_path, sidecar=None):
    if out_path is None:
        sys.stdout.write(text)
        return
    with _open_out(out_path) as fh:
        fh.write(text)
    if sidecar is not None:
        with _open_out(out_path + ".json") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _branches_from_args(args, n_t):
    stats = harness.branch_stats(n_t, args.channel, args.profile)
    if args.m_list:
        ms = args.m_list
        if len(ms) != n_t:
            raise harness.ConfigError(f"--m-list needs {n_t} entries")
        nakagami = parse_channel_spec(args.channel)[0] == "nakagami"
        fams = ["nakagami" if nakagami else severity_family(m) for m in ms]
        stats = [BranchStat(f, m, s.omega) for f, m, s in zip(fams, ms, stats)]
    if args.omega_list:
        oms = args.omega_list
        if len(oms) != n_t:
            raise harness.ConfigError(f"--omega-list needs {n_t} entries")
        stats = [BranchStat(s.family, s.m, o) for s, o in zip(stats, oms)]
    if args.nakagami:
        stats = [BranchStat("nakagami", s.m, s.omega) for s in stats]
    return stats


def _cmd_simulate(args):
    config = harness.ExperimentConfig(
        k=args.K,
        n_t=args.K if args.nt is None else args.nt,
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
    if args.out is not None:
        _open_out(args.out, "a").close()  # fail before the sweep, not after it
    result = harness.run_sweep(config)
    sidecar = dict(
        dataclasses.asdict(result.config),
        qostbc_version=__version__,
        numpy_version=np.__version__,
        python_version="{}.{}.{}".format(*sys.version_info),
        ber_analytic=BER_ANALYTIC_NOTE,
        min_eigenvalue_ratio=[row.min_eigenvalue_ratio for row in result.rows],
    )
    _write_csv(result.to_csv(), args.out, sidecar=sidecar)
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
    )
    esno_db = _esno_list(args)
    ber = analysis.bit_error_rate(mod, params, esno_db)
    lines = ["esno_db,ber"]
    lines += [f"{e:.10g},{b:.10g}" for e, b in zip(esno_db, ber)]
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


@functools.cache  # one parser per process: parse_args does not change it
def build_parser():
    parser = argparse.ArgumentParser(
        prog="qostbc",
        description="Quasi-orthogonal space-time block codes: simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo BER sweep with analytic reference")
    p.add_argument("--K", type=int, required=True, help="block size (power of two)")
    p.add_argument("--nt", type=int, default=None, help="transmit antennas (default K)")
    _add_channel_flags(p)
    p.add_argument("--mod", type=str, default="qpsk", help='modulation, e.g. "psk8", "qam64"')
    p.add_argument("--trials", type=int, default=1_000_000, help="block cap per SNR point")
    p.add_argument("--target-errors", type=int, default=200)
    p.add_argument("--seed", type=_seed, default=1234)
    p.add_argument("--batch", type=int, default=2048)
    p.add_argument("--workers", type=int, default=1)
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="analytic BER sweep (no simulation)")
    p.add_argument("--mod", type=str, required=True)
    p.add_argument("--nt", type=int, required=True)
    _add_channel_flags(p)
    p.add_argument("--rho", type=float, default=1.0, help="code rate")
    p.add_argument("--eta", type=float, default=1.0, help="transmit diversity order")
    p.add_argument("--m-list", type=_numbers, default=None,
                   help="comma-separated per-branch severities (overrides --channel m)")
    p.add_argument("--omega-list", type=_numbers, default=None,
                   help="comma-separated per-branch mean powers (overrides --profile)")
    p.add_argument("--nakagami-approx", dest="nakagami", action="store_true",
                   help="make every branch Nakagami of its own m and omega")
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="run the structural invariant suite")
    p.add_argument("--K", type=int, default=256, help="largest block size to check")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("capacity", help="hard-decision rate capacity per modulation")
    p.add_argument("--nt", type=int, required=True)
    _add_channel_flags(p)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--mods", type=str, default=None,
                   help="comma-separated modulation list (default BPSK..4096QAM)")
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_capacity)
    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (harness.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the array it could not allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
