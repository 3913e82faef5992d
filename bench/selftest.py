"""Self-test of the benchmark: python3 bench/selftest.py

1. Runs every workload at its small size twice with tracing; the outputs must
   pass every check and the layer counts of the two rounds must be equal.
2. Perturbs those outputs one way at a time; the matching checker must
   reject each perturbed copy.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   bench/; it must exit non-zero without printing a result.

Exits 0 when all of this holds.
"""

import run  # sets the BLAS thread variables before numpy is imported

import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def rewrite_csv(path, edit):
    """Apply edit(header, rows) to the numeric rows of a driver CSV in place."""
    lines = path.read_text().splitlines()
    header, rows = checks.read_csv(path)
    edit(header, rows)
    body = [",".join(f"{v:.17g}" for v in row) for row in rows]
    path.write_text("\n".join(lines[:2] + body) + "\n")


def scale(column, factor):
    def edit(header, rows):
        rows[:, header.index(column)] *= factor
    return edit


def raise_last_J(header, rows):
    j = header.index("J")
    rows[-1, j] = 2.0 * rows[0, j]


def leave_bounds(header, rows):
    rows[0, header.index("gamma_reconstructed")] = 10.5


def miss_condition(header, rows):
    rows[3, header.index("achieved")] = 0


def exceed_G(header, rows):
    rows[0, 3] = 1e30  # ratio, kept equal to diff_inf / nd_diff_norm
    rows[0, 1] = rows[0, 3] * rows[0, 2]


def nd_diagonal(header, rows):
    n = int(round(np.sqrt(len(rows))))
    rows[np.arange(n) * (n + 1), 2] *= 1.01


def nd_offdiagonal(header, rows):
    rows[1, 2] = 1e-6 * np.abs(rows[:, 2]).max()


def unorder(header, rows):
    rows[4, 2] = 2.0 * rows[4, 1]


def edit_G(out):
    path = out / "summary.txt"
    lines = path.read_text().splitlines()
    lines = [f"G={1.01 * float(x[2:])!r}" if x.startswith("G=") else x for x in lines]
    path.write_text("\n".join(lines) + "\n")


# (workload, call tag, file, edit, expected words of the problem)
PERTURBATIONS = [
    ("recon", "example1", "coefficient_eps0_init_expinit.csv",
     scale("gamma_reconstructed", 1.1), "noise-free relative L2 error"),
    ("recon", "example2", "coefficient_eps0_init_constant1.csv",
     scale("gamma_reconstructed", 1.1), "noise-free relative L2 error"),
    ("recon", "example1", "history_eps0.05_init_constant1.csv", raise_last_J,
     "not non-increasing"),
    ("recon", "example1", "coefficient_eps0.1_init_expinit.csv", leave_bounds,
     "leaves [c0, c1]"),
    ("stability", "lipschitz", "lipschitz_report.csv", miss_condition,
     "missed its localization"),
    ("stability", "lipschitz", "lipschitz_verification.csv", exceed_G,
     "exceeds the stability constant"),
    ("stability", "lipschitz", "summary.txt", edit_G, "G is not"),
    ("fine", "forward", "field.csv", scale("value", 1.01), "trace relative error"),
    ("fine", "ndmap", "ndform.csv", nd_diagonal, "(mode 0) relative error"),
    ("fine", "ndmap", "ndform.csv", nd_offdiagonal, "off-diagonal"),
    ("fine", "monotonicity", "monotonicity.csv", unorder, "not ordered"),
    ("fine", "locpot0", "locpot_trace.csv", scale("u_interface", 0.5), "< alpha"),
    ("fine", "locpot2", "locpot_trace.csv", scale("u_interface", 2.0), "> beta"),
]


def run_small(name, root):
    """Two traced rounds of the small workload; returns calls and output dir."""
    calls = workloads.SMALL[name]()
    workdir = root / name
    run.write_configs(calls, workdir)
    counts, ok = [], True
    for index in range(2):
        tracer = tracing.Tracer()
        out = workdir / f"round{index}"
        _, failed, _ = run.run_round(calls, workdir, out, seed=1, tracer=tracer)
        counts.append(tracing.round_counts(tracer.spans, sorted(out.glob("*/history_*.csv"))))
        ok &= failed == 0
    ok &= counts[0] == counts[1]
    print(f"{'ok  ' if ok else 'FAIL'} {name}: small run passes its checks, counts repeat",
          flush=True)
    return {c.tag: c for c in calls}, workdir / "round0", ok


def perturbed(calls, out, root, tag, filename, edit, expect):
    """The checker's expected complaint about the perturbed output, or None."""
    copy = root / "perturbed" / tag
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out / tag, copy)
    if filename.endswith(".csv"):
        rewrite_csv(copy / filename, edit)
    else:
        edit(copy)
    problems = [p for p in checks.check(calls[tag], copy) if expect in p]
    return problems[0] if problems else None


def isolated(root):
    """The benchmark alone (no src/) must fail without printing a result."""
    alone = root / "alone"
    shutil.copytree(run.BENCH, alone / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", alone)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=alone, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode != 0 and "{" not in proc.stdout


def main() -> int:
    root = run.OUT / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    ok = True
    try:
        runs = {}
        for name in workloads.WORKLOADS:
            calls, out, passed = run_small(name, root)
            runs[name] = (calls, out)
            ok &= passed
        for name, tag, filename, edit, expect in PERTURBATIONS:
            calls, out = runs[name]
            problem = perturbed(calls, out, root, tag, filename, edit, expect)
            print(f"{'ok  ' if problem else 'FAIL'} {tag}/{filename} perturbed: "
                  f"{problem or 'not rejected'}")
            ok &= problem is not None
        alone = isolated(root)
        print(f"{'ok  ' if alone else 'FAIL'} without src/ the benchmark exits non-zero")
        ok &= alone
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
