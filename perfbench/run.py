"""viscowave benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client runs the workload's
CLI ops in a closed loop inside this process, after one warm-up cycle;
every op's CSV and sidecar are checked (see workloads.py).  The last line
of standard output is one JSON object: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run.  The
workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; the ops are elementwise numpy
# and small dense solves, and one thread keeps run-to-run timing steady
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import MIN_ATTRIBUTED, WORKLOADS, CheckFailed, Op, check  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
# accuracy_margin_decades is taken over the warm-up cycle and this many
# timed cycles, so that it scores the same inputs for a seed on any machine
MARGIN_CYCLES = 2
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import viscowave.cli; "
                "print(time.perf_counter() - t)")
# the yardstick for setup_s: importing numpy in a fresh interpreter, work of
# the same kind as importing viscowave.cli and fixed by the environment
REFERENCE_IMPORT = ("import time; t = time.perf_counter(); import numpy; "
                    "print(time.perf_counter() - t)")
# seconds the reference import takes on the reference machine (below) in a
# quiet period; normalized set-up times are seconds on a machine that
# imports numpy this fast
REFERENCE_IMPORT_S = 0.06
# seconds the speed probe takes on the reference machine (the 2-vCPU
# virtual machine of the README's machine note, in a quiet period);
# normalized times are seconds on a machine that runs the probe this fast
PROBE_REF_S = 0.125


class SpeedProbe:
    """A fixed kernel timed between ops, to measure the machine's speed.

    On a shared virtual machine the same op runs up to 1.5x slower for
    minutes at a time, and CPU time grows with wall time, so the slowdown
    comes from the host.  Normalized time, wall x PROBE_REF_S / probe, is
    what the op would take at the reference speed.  The kernel, one pass of
    log(1 + x^2) e^{-x} over a 32 MB complex array, tracked the slowdowns
    of both `control solve` and `sweep` ops better than an interpreter
    loop or a cache-resident kernel did.
    """

    def __init__(self):
        self.x = np.linspace(0.1, 1.0, 1 << 21) * (1.0 + 0.5j)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        np.log(1.0 + self.x * self.x) * np.exp(-self.x)
        return time.perf_counter() - t0


@dataclass
class OpRecord:
    op: Op
    seed: int
    wall: float
    ok: bool
    margin: float | None
    bytes_written: int
    probe: float = 0.0  # mean speed probe just before and just after the op

    @property
    def normalized(self) -> float:
        return self.wall * PROBE_REF_S / self.probe


def import_seconds(code: str) -> float:
    """Seconds an import timed by `code` takes in a fresh interpreter."""
    res = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, timeout=120,
                         env=os.environ.copy())
    if res.returncode != 0:
        raise RuntimeError(f"import in a fresh interpreter failed:\n{res.stderr}")
    return float(res.stdout.strip().splitlines()[-1])


def measure_setup() -> float:
    """Median normalized seconds to import viscowave.cli in a fresh
    interpreter.  Each import is normalized by the reference imports just
    before and just after it.  Over ten runs the median spread by 20-30%
    raw and 6-15% normalized by the speed probe, which tracks numpy kernels
    rather than interpreter start-up and module loading; normalized by the
    reference import it spread by 5-9%.  The benchmark process has
    imported the package already, which compiled the bytecode, so no
    import here compiles."""
    before = import_seconds(REFERENCE_IMPORT)
    times = []
    for _ in range(SETUP_REPEATS):
        wall = import_seconds(IMPORT_PROBE)
        after = import_seconds(REFERENCE_IMPORT)
        times.append(wall * 2.0 * REFERENCE_IMPORT_S / (before + after))
        before = after
    return statistics.median(times)


class Runner:
    """Runs ops through the click entry point and checks their outputs."""

    def __init__(self, cli_main, workdir: Path):
        self.cli_main = cli_main
        self.workdir = workdir
        self.tracer = None  # a spans.Tracer while a traced phase runs
        self.reference: dict[tuple[str, int], bytes] = {}
        self.records: list[OpRecord] = []
        self.failures: list[str] = []

    def invoke(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                self.cli_main.main(argv, prog_name="viscowave", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, buf.getvalue()

    def run(self, op: Op, seed: int) -> OpRecord:
        csv_path = self.workdir / f"{op.label}.csv"
        argv = [*op.argv, "--seed", str(seed), "--out", str(csv_path)]
        tr = self.tracer
        err = None
        t0 = time.perf_counter()
        try:
            if tr is not None:
                idx = tr.open_op()
                try:
                    code, output = self.invoke(argv)
                finally:
                    tr.close(idx)
            else:
                code, output = self.invoke(argv)
        except Exception:  # noqa: BLE001 - an op that raises is a failed op
            code, output, err = 1, "", traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0

        ok, mgn, nbytes = False, None, 0
        if err is None:
            try:
                _require_exit(code, output)
                mgn = check(op, seed, str(csv_path))
                data = csv_path.read_bytes() + csv_path.with_suffix(".json").read_bytes()
                nbytes = len(data)
                ref = self.reference.setdefault((op.label, seed), data)
                if ref != data:
                    raise CheckFailed("output bytes differ from an earlier op "
                                      "with the same seed")
                ok = True
            except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                err = f"{type(exc).__name__}: {exc}"
        if err is not None:
            self.failures.append(f"{op.label} seed {seed}: {err}")
        rec = OpRecord(op, seed, wall, ok, mgn, nbytes)
        self.records.append(rec)
        return rec

    def loop(self, ops, seeds, seconds: float, probe: SpeedProbe,
             min_cycles: int = 1) -> list[OpRecord]:
        """Whole cycles (each op once), as many as fit `seconds` best but at
        least `min_cycles`, with the speed probe run between consecutive
        ops."""
        out = []
        t0 = time.perf_counter()
        cycle_times = []
        last = probe()
        while True:
            seed = next(seeds)
            c0 = time.perf_counter()
            for op in ops:
                rec = self.run(op, seed)
                now = probe()
                rec.probe = 0.5 * (last + now)
                last = now
                out.append(rec)
            cycle_times.append(time.perf_counter() - c0)
            elapsed = time.perf_counter() - t0
            if (len(cycle_times) >= min_cycles
                    and elapsed + 0.5 * statistics.fmean(cycle_times) > seconds):
                return out


def _require_exit(code: int, output: str) -> None:
    if code != 0:
        raise CheckFailed(f"exit status {code}: {output.strip()[-300:]}")
    if "Traceback" in output:
        raise CheckFailed("traceback in output")


def op_seeds(seed: int):
    """Per-cycle op seeds.  The first timed cycle repeats the warm-up
    cycle's seed, so every run checks that outputs are byte-identical for
    one seed."""
    base = 1000 * seed
    yield base
    yield base
    k = 1
    while True:
        yield base + k
        k += 1


def per_op(records: list[OpRecord]) -> dict[str, list[OpRecord]]:
    by_label: dict[str, list[OpRecord]] = {}
    for r in records:
        by_label.setdefault(r.op.label, []).append(r)
    return by_label


def op_p50(records: list[OpRecord]) -> float:
    """Median normalized seconds of each op of the workload, averaged over
    its ops: an equal mix, whatever the number of cycles."""
    return statistics.fmean(statistics.median(r.normalized for r in recs)
                            for recs in per_op(records).values())


def summary(records: list[OpRecord]) -> list[str]:
    lines = []
    for label, recs in per_op(records).items():
        walls = [r.wall for r in recs]
        lines.append(f"{label}: n={len(recs)} wall min={min(walls):.4f}s "
                     f"p50={statistics.median(walls):.4f}s max={max(walls):.4f}s; "
                     f"normalized p50={statistics.median(r.normalized for r in recs):.4f}s; "
                     f"probe p50={statistics.median(r.probe for r in recs):.4f}s")
    return lines


def ok_ratio(records: list[OpRecord]) -> float:
    return sum(r.ok for r in records) / len(records)


def accuracy_margin(records: list[OpRecord], seed: int) -> float:
    """The smallest, over the workload's ops, of an op's median accuracy
    margin over the op seeds of the warm-up cycle and the first
    MARGIN_CYCLES timed cycles, which `seed` fixes (see op_seeds).

    The median comes first because the margin of `sweep epsilon` is set by
    its weak-limit residual, which moves by a decade between op seeds; the
    minimum over single ops spread by 12-18% over ten runs."""
    last = 1000 * seed + MARGIN_CYCLES - 1
    scored: dict[str, dict[int, float]] = {}
    for r in records:
        if r.ok and r.margin is not None and r.seed <= last:
            scored.setdefault(r.op.label, {})[r.seed] = r.margin
    return min((statistics.median(m.values()) for m in scored.values()), default=0.0)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "viscowave" / "cli.py").is_file():
        print(f"error: no viscowave sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative",
              file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload]
    seeds = op_seeds(args.seed)
    warm_seed = next(seeds)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sys.path.insert(0, str(SRC))
        import viscowave
        import viscowave.cli

        runner = Runner(viscowave.cli.main, workdir)
        for op in ops:
            runner.run(op, warm_seed)
        # the speed probe allocates more than the lighter ops do, so the
        # program's peak is read before the probe first runs
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe = SpeedProbe()
        if args.trace:
            metrics, sound = traced_run(runner, viscowave, ops, seeds, probe, args)
        else:
            timed = runner.loop(ops, seeds, args.seconds, probe, MARGIN_CYCLES)
            metrics, sound = {
                "op_s.p50": metric(op_p50(timed), "s"),
                "setup_s": metric(measure_setup(), "s"),
                "peak_rss_mb": metric(peak_mb, "MB"),
                "ok_ops.ratio": metric(ok_ratio(runner.records), "ratio"),
                "accuracy_margin_decades": metric(
                    accuracy_margin(runner.records, args.seed), "decades"),
            }, True
            for line in summary(timed):
                print(line)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in runner.failures:
        print(f"failed: {line}", file=sys.stderr)
    failed = sum(not r.ok for r in runner.records)
    print(json.dumps({"correct": failed == 0 and sound,
                      "attempted": len(runner.records), "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_run(runner: Runner, package, ops, seeds, probe, args) -> tuple[dict, bool]:
    """Half the time untraced, half traced; per-layer figures per traced op.

    The trace is sound when its spans nest and every op whose kind has a
    MIN_ATTRIBUTED share spends at least that share of its wall time inside
    named module spans."""
    from spans import Tracer, analyse, per_layer

    untraced = runner.loop(ops, seeds, args.seconds / 2.0, probe)
    tracer = Tracer()
    tracer.install(package)
    runner.tracer = tracer
    try:
        traced = runner.loop(ops, seeds, args.seconds / 2.0, probe)
    finally:
        tracer.uninstall()
        runner.tracer = None
    tracer.save(str(OUT / f"trace-{args.workload}-seed{args.seed}.npz"))
    report = analyse(tracer)
    # op ids count the traced ops in the order they ran
    short = [(rec, report["ops"][i]["attributed"]) for i, rec in enumerate(traced)
             if report["ops"][i]["attributed"] < MIN_ATTRIBUTED.get(rec.op.kind, 0.0)]
    for rec, share in short:
        print(f"trace: {rec.op.label} seed {rec.seed} has only {share:.4f} of its "
              "wall time in module spans", file=sys.stderr)
    if report["nest_errors"]:
        print(f"trace: {report['nest_errors']} spans do not nest", file=sys.stderr)
    sound = report["nest_errors"] == 0 and not short
    metrics = per_layer(tracer, report, n_ops=len(traced),
                        overhead_s=op_p50(traced) - op_p50(untraced),
                        bytes_per_op=statistics.fmean(r.bytes_written for r in traced))
    return metrics, sound


if __name__ == "__main__":
    sys.exit(main())
