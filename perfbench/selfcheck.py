"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every op of every workload once untraced and once traced, with the
same seed, and checks:
  * the traced ops' spans nest (each inside its parent, same op), so each
    op's span self times add up to its wall time;
  * every op of a kind in MIN_ATTRIBUTED (both series_route ops) has at
    least that share of its wall time inside named module spans;
  * the dominant layer is weierstrass on the series_route ops, pde on the
    gram_sweep ops and multiplier on the multiplier check op of
    property_checks;
  * tracing leaves the CSV and sidecar bytes unchanged.
Then it corrupts one op's CSV after the CLI wrote it and checks that the op
counts as failed in ok_ops.ratio.  Exits 1 if any check fails.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import run  # first: pins the BLAS threads before numpy loads
from spans import LAYERS, Tracer, analyse
from workloads import MIN_ATTRIBUTED

# dominant layer by op kind; the ingham op has no single expected layer
EXPECTED_LAYER = {"series": "weierstrass", "sweep": "pde", "multiplier": "multiplier"}


class CorruptingRunner(run.Runner):
    """Raises the first viscous residual of a sweep CSV above tolerance."""

    def invoke(self, argv):
        code, output = super().invoke(argv)
        path = Path(argv[argv.index("--out") + 1])
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = "0.001"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return code, output


def check_traced(cli_main, package, workload: str, workdir: Path) -> list[str]:
    ops = run.WORKLOADS[workload]
    runner = run.Runner(cli_main, workdir)
    plain = [runner.run(op, 1) for op in ops]
    tracer = Tracer()
    tracer.install(package)
    runner.tracer = tracer
    try:
        traced = [runner.run(op, 1) for op in ops]
    finally:
        tracer.uninstall()
        runner.tracer = None
    report = analyse(tracer)
    problems = [f"{workload}: {p}" for p in runner.failures]
    if report["nest_errors"]:
        problems.append(f"{workload}: {report['nest_errors']} spans do not nest")
    # op ids count the traced ops in the order they ran
    for i, op in enumerate(ops):
        rec = report["ops"][i]
        dominant = max(LAYERS, key=lambda layer: rec["layer_s"].get(layer, 0.0))
        if rec["attributed"] < MIN_ATTRIBUTED.get(op.kind, 0.0):
            problems.append(f"{op.label}: only {rec['attributed']:.3f} of wall in "
                            "module spans")
        if dominant != EXPECTED_LAYER.get(op.kind, dominant):
            problems.append(f"{op.label}: dominant layer {dominant}, expected "
                            f"{EXPECTED_LAYER[op.kind]}")
        shares = ", ".join(f"{layer} {rec['layer_s'].get(layer, 0.0) / rec['wall']:.3f}"
                           for layer in LAYERS if rec["layer_s"].get(layer, 0.0) > 0)
        print(f"{workload} {op.label}: wall {plain[i].wall:.3f} s untraced, "
              f"{traced[i].wall:.3f} s traced, attributed {rec['attributed']:.4f}; "
              f"layer shares: {shares}")
    print(f"{workload}: {report['spans']} spans")
    return problems


def check_failure_counted(cli_main, workdir: Path) -> list[str]:
    op = run.WORKLOADS["gram_sweep"][0]
    runner = CorruptingRunner(cli_main, workdir)
    runner.run(op, 1)
    ratio = run.ok_ratio(runner.records)
    print(f"corrupted {op.label} output: ok_ops.ratio {ratio}, "
          f"reported failure: {runner.failures[:1]}")
    if ratio != 0.0 or len(runner.failures) != 1:
        return ["a corrupted op was not counted as failed"]
    return []


def main() -> int:
    if not (run.SRC / "viscowave" / "cli.py").is_file():
        print(f"error: no viscowave sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import viscowave
    import viscowave.cli

    workdir = run.OUT / f"selfcheck-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        for workload in run.WORKLOADS:
            problems += check_traced(viscowave.cli.main, viscowave, workload, workdir)
        problems += check_failure_counted(viscowave.cli.main, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
