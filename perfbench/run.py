"""The O2-SiteRec benchmark: one workload per call, in a fresh process.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-fit --seed 0 --seconds 12 --trace 0

Workloads: paper-fit, metropolis-fit, serve-mixed (see
``perfbench/README.md``); ``--workload all`` runs the three in turn.
``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first runs the workload untraced in a child process, then
runs it traced, checks that its outputs equal the child's, and reports the
per-layer metrics and the tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when an output check fails.

Everything a run writes stays under ``.bench_build/perfbench`` in the
checkout: the run's private pipeline cache and temporary directory
(deleted at the end), and the run record, Chrome trace and per-layer
table (kept under ``records/``).
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from process start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
RECORDS = BUILD / "records"

WORKLOADS = ("paper-fit", "metropolis-fit", "serve-mixed")
REFERENCE_TIMEOUT_S = 90  # the untraced child of a traced run
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "rank_ms": "ms",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the serve-mixed rate ladder; the other workloads do fixed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _untraced_reference(args) -> dict:
    """Run the same workload, seed and length untraced, in a child process.

    Its record is the reference the traced run's outputs must equal and
    the base of the tracing overheads, so it is made afresh from the
    sources in this checkout.  The child gets its own process group, so a
    timeout also stops the processes it started.
    """
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True) as child:
        try:
            stdout, _ = child.communicate(timeout=REFERENCE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise SystemExit(f"untraced reference run took more than {REFERENCE_TIMEOUT_S} s")
    sys.stdout.write(stdout)
    if child.returncode != 0:
        raise SystemExit(f"untraced reference run failed with exit code {child.returncode}")
    return json.loads((RECORDS / f"{args.workload}-s{args.seed}-t0.json").read_text())


def _print_table(title: str, rows) -> None:
    print(title)
    for row in rows:
        print("  " + row)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run([
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]).returncode
            for workload in WORKLOADS
        ]
        return max(codes)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = BUILD / f"{tag}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    RECORDS.mkdir(parents=True, exist_ok=True)
    record_path = RECORDS / f"{tag}.json"
    os.environ["TMPDIR"] = str(run_dir / "tmp")  # C-kernel build and shard arenas
    sys.path.insert(0, str(SRC))

    reference, started = None, START
    if args.trace:
        reference = _untraced_reference(args)
        started = time.perf_counter()

    try:
        import host
        import layers
        import workloads
        from spans import OFF, Tracer

        tracer = layers.install(Tracer()) if args.trace else OFF
        workloads.warm_kernels()
        imported_s = time.perf_counter() - started
        out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, run_dir)
        if args.trace:
            tracer.close()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    setup = sorted(out.setup_s)
    setup_s = imported_s + (setup[len(setup) // 2] if setup else 0.0)
    peak = out.peak_rss_mb if out.peak_rss_mb is not None else workloads.self_peak_rss_mb()
    e2e = dict(out.metrics, setup_s=setup_s, peak_rss_mb=peak)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host.host_record(),
        "gates": host.gate_record(),
        "end_to_end": e2e,
        "setup_samples_s": out.setup_s,
        "imports_and_kernels_s": imported_s,
        "named": [list(n) for n in out.named],
        "checks": {k: list(v) for k, v in out.checks.items()},
        "outputs": out.outputs,
        "details": out.record,
        "attempted": out.attempted,
        "failed": out.failed,
    }

    host_row = record["host"]
    print(
        f"host: nproc={host_row['nproc']} blas={host_row['blas']['vendor']} "
        f"blas_threads={host_row['blas']['threads']} python={host_row['python']} "
        f"numpy={host_row['numpy']} O2_*={host_row['o2_env']}"
    )
    print("gates: " + ", ".join(f"{k}={v}" for k, v in record["gates"].items()))
    _print_table(f"{args.workload} seed {args.seed} end-to-end:", [
        f"{name:<18} {e2e[name]:>14.4f} {unit}" for name, unit in E2E_UNITS.items()
    ])
    _print_table("named metrics:", [
        f"{name:<22} {value:>14.6g} {unit:<6} {note}" for name, value, unit, note in out.named
    ])

    if args.trace:
        values = layers.layer_metrics(tracer, out)
        untraced = reference["end_to_end"]
        for name in layers.OVERHEAD_OF:
            values[f"trace.overhead.{name}"] = e2e[name] / untraced[name] - 1.0 if untraced[name] else 0.0
        same = json.loads(json.dumps(out.outputs)) == reference["outputs"]
        out.check("traced_outputs_equal_untraced", same, "loss curve, parameter sha256, snapshot ids, answers")
        trace_path = RECORDS / f"{tag}.trace.json"
        tracer.write_chrome(str(trace_path))
        self_times = tracer.self_times()
        _print_table(f"per-layer self time (s), trace in {trace_path.relative_to(ROOT)}:", [
            f"{layer:<14} {seconds:>10.4f}" for layer, seconds in sorted(self_times.items())
        ])
        _print_table("per-layer metrics (metric, value, unit, moves):", [
            f"{name:<30} {values[name]:>14.6g} {unit:<6} {moves}"
            for name, (unit, _, moves) in layers.PER_LAYER.items()
        ])
        record["per_layer"] = values
        record["self_time_s"] = self_times
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _, _) in layers.PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    record["checks"] = {k: list(v) for k, v in out.checks.items()}
    failed_checks = [k for k, (ok, _) in out.checks.items() if not ok]
    _print_table("checks:", [
        f"{'ok  ' if ok else 'FAIL'} {name}: {detail}" for name, (ok, detail) in out.checks.items()
    ])
    record_path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
    }))
    return 1 if failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
