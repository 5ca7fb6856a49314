#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``qostbc`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs its ``qostbc`` commands through ``qostbc.cli.main`` in
this process, in rounds: one untimed warm-up round, then timed rounds until
``--seconds`` have passed (whole rounds only).  The outputs of every round
are checked against references computed apart from the program
(``reference.py``); every check is one operation attempted.

``--trace 0`` reports the end-to-end metrics: ``command_s``, the median
wall time of a round's commands; ``setup_s``, the median time from a fresh
interpreter to the end of a first one-point, one-batch call of the
workload's command; and ``peak_rss_mb``.  ``--trace 1`` alternates plain
and traced rounds and reports the per-layer split of the traced rounds
(see ``spans.py``), plus the tracing overhead against the plain rounds.
The spans are written to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

# One BLAS thread per process: sim-k128 runs two worker threads, so the
# benchmark never asks for more threads than the two cores it was tuned on.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
sys.path[:0] = [SRC, HERE]

import numpy as np  # noqa: E402  (after the thread settings)

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

# the program under test is the checkout's source tree, never an installed copy
if not os.path.isfile(os.path.join(SRC, "qostbc", "cli.py")):
    sys.exit(f"error: no qostbc sources under {SRC}")
from qostbc import cli  # noqa: E402

SETUP_REPS = 5
BER_RTOL = 1e-6  # quadrature error of the program's trapezoid rule is ~2e-8
RATE_ATOL = 1e-6
ORACLE_RTOL = 1e-9


class Tally:
    """Tally of operations attempted and failed, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [[float(v) for v in line.split(",")] for line in lines[1:]]


def sweep_flags(start, stop, step):
    return ["--esno-start", str(start), "--esno-stop", str(stop), "--esno-step", str(step)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Defaults for the hooks a workload may define."""

    observe = {}  # span name -> callback run after the traced call

    def prepare(self):
        """Compute or load the references of a run."""

    def run_checks(self, tally):
        """Checks made once per run, outside the rounds."""

    def traced_checks(self, tally):
        """Checks of what ``observe`` collected during a traced round."""


class Simulation(Workload):
    """A ``simulate`` sweep with a fixed number of blocks per Es/N0 point.

    The error target is set above the number of bits simulated, so the
    work done does not depend on the decoder's error rate.
    """

    def __init__(self, k, n_t, n_r, mod, channel, esno, batch, workers, blocks):
        self.k, self.n_t, self.n_r, self.mod = k, n_t, n_r, mod
        self.bits = reference.bits_per_symbol(mod)
        self.channel, self.esno, self.batch = channel, esno, batch
        self.workers, self.blocks = workers, blocks

    def _argv(self, esno, blocks, seed):
        return ["simulate", "--K", str(self.k), "--nt", str(self.n_t), "--nr", str(self.n_r),
                "--mod", self.mod, "--channel", self.channel, *esno,
                "--batch", str(self.batch), "--workers", str(self.workers),
                "--trials", str(blocks), "--target-errors", str(blocks * self.k * self.bits + 1),
                "--seed", str(seed)]

    def commands(self, seed):
        return [self._argv(sweep_flags(*self.esno), self.blocks, seed)]

    def setup_command(self, seed):
        return self._argv(sweep_flags(self.esno[0], self.esno[0], 1), self.batch, seed)

    def check(self, outputs, tally, rng):
        header, rows = parse_csv(outputs[0])
        if not tally.add("simulate.rows", [r[0] for r in rows] == self.points()):
            return
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            e = row[col["esno_db"]]
            blocks = int(row[col["trials"]])
            ok = blocks == self.blocks and self.point_ok(e, row[col["bit_errors"]], blocks)
            tally.add(f"simulate.errors@{e:g}dB", ok)
            self.extra_point_checks(e, row, col, tally)

    def points(self):
        return [float(e) for e in range(self.esno[0], self.esno[1] + 1, self.esno[2])]

    def extra_point_checks(self, e, row, col, tally):
        pass


class Alamouti(Simulation):
    """K=2: the linear decoder is ML, so the exact quadrature BER applies."""

    def prepare(self):
        self.ref = {e: reference.ber(
            self.mod, reference.Diversity(reference.mixed_branches(self.n_t), self.n_r, e,
                                          shared=True))
            for e in self.points()}

    def point_ok(self, e, errors, blocks):
        mean = self.k * self.bits * self.ref[e]
        # errors per block lie in [0, K bits], so Var <= K bits * mean
        return checks.error_count(errors, blocks, mean, self.k * self.bits * mean)

    def extra_point_checks(self, e, row, col, tally):
        # at K=2 the full-diversity ML column is exact
        tally.add(f"simulate.ber_analytic@{e:g}dB",
                  checks.relative(row[col["ber_analytic"]], self.ref[e], BER_RTOL))


class LargeK(Simulation):
    """K=128 QPSK over Rayleigh against the stored semi-analytic ZF BER."""

    def prepare(self):
        with open(reference.K128_FILE) as fh:
            stored = json.load(fh)
        spec = stored["spec"]
        same = (spec["k"], spec["n_t"], spec["n_r"], spec["esno_db"]) == (
            self.k, self.n_t, self.n_r, self.points())
        if not same:
            raise SystemExit("reference_k128.json does not describe sim-k128; "
                             "remake it with: python3 bench/reference.py")
        self.ref = {p["esno_db"]: p for p in stored["points"]}
        self.samples = []
        self.observe = {"decoder.decode_batch": self._sample}

    def _sample(self, args, kwargs, result):
        # first block of every decode call, checked after the round
        self.samples.append((args[0][:1].copy(), args[1][:1].copy(), result[0][:1].copy()))

    def point_ok(self, e, errors, blocks):
        p = self.ref[e]
        return checks.error_count(errors, blocks, p["mean"], p["var_between"] + p["var_within"],
                                  p["var_between"] / p["draws"])

    def traced_checks(self, tally):
        for rx, gains, est in self.samples:
            want = reference.lstsq_decode(rx, gains, self.k)
            tally.add("decode_batch.oracle", checks.oracle(est[0], want[0], ORACLE_RTOL))
        self.samples.clear()


class Analysis(Workload):
    """``capacity`` for the default modulations plus two ``analyze`` sweeps."""

    CAPACITY = ["capacity", "--nt", "16", "--nr", "1", "--channel", "mixed"]
    ANALYZE = [["analyze", "--mod", mod, "--nt", "8", "--nr", "2", "--channel", "mixed",
                *sweep_flags(0, 30, 1)] for mod in ("psk8", "qam256")]
    CLOSED_FORM = ["analyze", "--mod", "qpsk", "--nt", "4", "--nr", "2", "--channel", "rayleigh",
                   *sweep_flags(0, 20, 10)]
    SAMPLES = 3

    def commands(self, seed):
        return [self.CAPACITY + sweep_flags(0, 30, 2), *self.ANALYZE]

    def setup_command(self, seed):
        return self.CAPACITY + sweep_flags(0, 0, 1)

    def run_checks(self, tally):
        """Once per run: equal-power Rayleigh QPSK against the closed form."""
        rc, text = run_cli(self.CLOSED_FORM)
        if not tally.add("analyze.closed-form.exit", rc == 0):
            return
        _, rows = parse_csv(text)
        for e, b in rows:
            tally.add(f"analyze.closed-form@{e:g}dB", checks.relative(
                b, reference.rayleigh_qpsk_closed_form(8, 10.0 ** (e / 10.0)), BER_RTOL))

    def check(self, outputs, tally, rng):
        header, rows = parse_csv(outputs[0])
        mods = header[1:-1]
        bits = [reference.bits_per_symbol(m) for m in mods]
        for row in rows:
            tally.add(f"capacity.row@{row[0]:g}dB", checks.capacity_row(row[1:-1], bits, row[-1]))
        for _ in range(self.SAMPLES):
            row = rows[rng.integers(len(rows))]
            j = int(rng.integers(len(mods)))
            p = reference.ber(mods[j], reference.Diversity(
                reference.mixed_branches(16), 1, row[0], shared=True))
            tally.add(f"capacity.{mods[j]}@{row[0]:g}dB", abs(
                row[1 + j] - reference.hard_decision_rate(bits[j], p)) <= RATE_ATOL * bits[j])
        for argv, text in zip(self.ANALYZE, outputs[1:]):
            mod = argv[2]
            _, curve = parse_csv(text)
            tally.add(f"analyze.{mod}.curve", checks.ber_curve([b for _, b in curve]))
            for _ in range(self.SAMPLES):
                e, b = curve[rng.integers(len(curve))]
                ref = reference.ber(mod, reference.Diversity(
                    reference.mixed_branches(8), 2, e, shared=False))
                tally.add(f"analyze.{mod}@{e:g}dB", checks.relative(b, ref, BER_RTOL))


class Verify(Workload):
    """``verify --K 256``: one decode call per block at every K.

    It runs with the command's default seed: on about one seed in twenty
    the program's own reduction check fails at K=128 or K=256 (see
    CHANGES.md), and a benchmark operation may not fail on some seeds only.
    """

    K_MAX = 256

    def commands(self, seed):
        return [["verify", "--K", str(self.K_MAX)]]

    def setup_command(self, seed):
        return ["verify", "--K", "2"]

    def check(self, outputs, tally, rng):
        for name, ok in checks.verify_report(outputs[0], self.K_MAX):
            tally.add(name, ok)


def make_workload(name):
    if name == "sim-alamouti":
        return Alamouti(k=2, n_t=2, n_r=2, mod="psk8", channel="mixed",
                        esno=(0, 18, 6), batch=2048, workers=1, blocks=131072)
    if name == "sim-k128":
        return LargeK(k=128, n_t=96, n_r=1, mod="qpsk", channel="rayleigh",
                      esno=(0, 10, 5), batch=32, workers=2, blocks=64)
    if name == "analysis":
        return Analysis()
    if name == "verify":
        return Verify()
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("sim-alamouti", "sim-k128", "analysis", "verify")


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def run_cli(argv):
    """Run one command in this process; returns (exit code, its stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_round(workload, seed, tally, rng, tracer=None):
    """Run and check one round; returns the wall time of its commands."""
    outputs, wall = [], 0.0
    for argv in workload.commands(seed):
        t0 = time.perf_counter()
        if tracer is None:
            rc, text = run_cli(argv)
        else:
            with tracer.span("cli.main"):
                rc, text = run_cli(argv)
        wall += time.perf_counter() - t0
        if not tally.add(f"{argv[0]}.exit", rc == 0):
            return wall
        outputs.append(text)
    workload.check(outputs, tally, rng)
    return wall


def measure_setup(workload, seed, tally):
    """Median seconds from a fresh interpreter to the end of a first call."""
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
    code = "import sys; from qostbc.cli import main; sys.exit(main(sys.argv[1:]))"
    times = []
    for rep in range(SETUP_REPS + 1):  # the first spawn warms the byte-code cache
        cmd = [sys.executable, "-c", code, *workload.setup_command(seed * 1000 + rep)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              env=env, timeout=120)
        if rep:
            times.append(time.perf_counter() - t0)
        if not tally.add("setup.exit", proc.returncode == 0):
            sys.stderr.write(proc.stderr.decode(errors="replace"))
    return statistics.median(times)


def run(name, seed, seconds, trace):
    workload = make_workload(name)
    workload.prepare()
    tally = Tally()
    workload.run_checks(tally)
    metrics = {}
    if not trace:
        metrics["setup_s"] = (measure_setup(workload, seed, tally), "s")

    tracer = spans.Tracer(observe=workload.observe) if trace else None
    plain, traced = [], []  # wall times; (wall, layer metrics, spans)
    index, start = 0, None
    while True:
        round_seed = seed * 1000 + index
        rng = np.random.default_rng([seed, index])
        if trace and index % 2 == 1:
            with tracer:
                wall = run_round(workload, round_seed, tally, rng, tracer)
            recorded = tracer.take()
            workload.traced_checks(tally)
            traced.append((wall, spans.layer_metrics(recorded), recorded))
        else:
            wall = run_round(workload, round_seed, tally, rng)
            if index:  # round 0 warms up
                plain.append(wall)
        index += 1
        if start is None:
            start = time.perf_counter()
        elif time.perf_counter() - start >= seconds and plain and (traced or not trace):
            break

    if trace:
        for metric, unit in spans.LAYER_METRICS.items():
            metrics[metric] = (float(statistics.median(m[metric] for _, m, _ in traced)), unit)
        traced_wall = statistics.median(w for w, _, _ in traced)
        metrics["trace.overhead_pct"] = ((traced_wall / statistics.median(plain) - 1) * 100, "%")
        os.makedirs(OUT, exist_ok=True)
        spans.Tracer.dump([r for _, _, r in traced], os.path.join(OUT, f"trace-{name}-seed{seed}.json"))
    else:
        metrics["command_s"] = (statistics.median(plain), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    tally, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:14.6g} {unit}")
    for name in tally.failures[:20]:
        print(f"FAILED {name}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
