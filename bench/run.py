"""Benchmark of the robininv CLI drivers.

    python3 bench/run.py --workload recon|stability|fine --seed N --seconds S --trace 0|1

Runs whole rounds of one workload's driver calls through ``robininv.cli.main``
for about S seconds in this one process, checks every output, and prints one
JSON line: ``correct``, ``attempted`` and ``failed`` driver calls, and the
metrics (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
See bench/README.md.
"""

import os

# Fixed BLAS thread setting, before numpy is imported: one process, one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fresh_cli():
    """Import robininv from this checkout's source, dropping any earlier import,
    so that every driver call starts from a fresh package as a CLI process would."""
    if not (SRC / "robininv" / "cli.py").is_file():
        raise SystemExit(f"bench: robininv source not found under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "robininv" or k.startswith("robininv.")]:
        del sys.modules[key]
    cli = importlib.import_module("robininv.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: robininv imported from {cli.__file__}, not {SRC}")
    return cli


def write_configs(calls, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for call in calls:
        (workdir / f"{call.tag}.txt").write_text(call.config_text())


def probe_setup(name: str) -> None:
    """Set-up of one run, for timing in a child process: import and inputs."""
    fresh_cli()
    workdir = OUT / f"probe-{os.getpid()}"
    write_configs(workloads.WORKLOADS[name](), workdir)
    shutil.rmtree(workdir)


def setup_seconds(name: str) -> float:
    """Median wall time of SETUP_PROBES child processes doing the run's set-up:
    interpreter start, package import and workload inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", name],
            check=True, cwd=ROOT,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_round(calls, workdir: Path, out: Path, seed: int, tracer=None):
    """One round of driver calls.

    Returns the seconds spent inside the driver calls, the calls that failed
    (non-zero exit code or wrong output) and the calls whose output was wrong.
    """
    seconds, failed, wrong = 0.0, 0, 0
    for call in calls:
        cli = fresh_cli()
        if tracer is not None:
            tracer.install()
        call_out = out / call.tag
        argv = [call.sub, "--config", str(workdir / f"{call.tag}.txt"),
                "--out", str(call_out), "--seed", str(seed)]
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.span("cli.main", cli.main, argv)
        except Exception:  # a driver that raises is one failed call; go on
            traceback.print_exc()
            code = None
        seconds += time.perf_counter() - start
        problems = [f"exit code {code}"] if code != 0 else checks.check(call, call_out)
        for problem in problems:
            print(f"bench: {call.tag}: {problem}", file=sys.stderr)
        failed += bool(problems)
        wrong += code == 0 and bool(problems)
    return seconds, failed, wrong


def layer_metrics(rounds, plain, traced) -> dict:
    """Per-layer metrics from the traced rounds: counts of one round, medians
    over rounds of per-round seconds, and medians over all calls of ms/call."""
    counts = [c for _, c in rounds]
    if any(c != counts[0] for c in counts):
        print("bench: layer counts differ between identical rounds", file=sys.stderr)
    totals = [tracing.round_totals(t.spans) for t, _ in rounds]
    values = dict(counts[0])
    values.update({k: statistics.median(t[k] for t in totals) for k in totals[0]})
    values.update(tracing.per_call_ms([s for t, _ in rounds for s in t.spans]))
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload)
        return 0

    fresh_cli()  # fail before any work when the source is missing
    setup_s = None if args.trace else setup_seconds(args.workload)
    calls = workloads.WORKLOADS[args.workload]()
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    write_configs(calls, workdir)

    # Whole rounds until the next one would overrun --seconds, at least one.
    # With tracing, untraced and traced rounds alternate in pairs.
    plain, traced, traced_rounds = [], [], []
    attempted = failed = wrong = 0
    start = time.perf_counter()
    try:
        for index in itertools.count():
            tracer = tracing.Tracer() if args.trace and index % 2 else None
            out = workdir / f"round{index}"
            seconds, bad, bad_output = run_round(calls, workdir, out, args.seed, tracer)
            attempted += len(calls)
            failed += bad
            wrong += bad_output
            if tracer is None:
                plain.append(seconds)
            else:
                traced.append(seconds)
                histories = sorted(out.glob("*/history_*.csv"))
                traced_rounds.append((tracer, tracing.round_counts(tracer.spans, histories)))
            shutil.rmtree(out)
            if args.trace and index % 2 == 0:
                continue
            per_round = statistics.median(plain + traced) * (1 + args.trace)
            if time.perf_counter() - start + per_round > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(traced_rounds, plain, traced)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"fields": tracing.SPAN_FIELDS, "rounds": [t.spans for t, _ in traced_rounds]}))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(f"bench: {args.workload}: {len(plain)} untraced and {len(traced)} traced rounds",
          file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
