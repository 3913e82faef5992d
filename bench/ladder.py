"""Per-call times of mesh, fem and ndmap on the four mesh-ladder rungs.

    python3 bench/ladder.py [repeats]

Prints a Markdown table of the median milliseconds per call over `repeats`
calls (default 7), constant gamma = 2, sigma = (2, 1). Reference figures for
bench/README.md; not part of a benchmark run.
"""

import run  # sets the BLAS thread variables before numpy is imported

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

RUNGS = [(2, 2, 32), (4, 4, 64), (8, 8, 128), (16, 16, 256)]


def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def main() -> int:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    run.fresh_cli()  # puts this checkout's robininv on the path
    import robininv as ri

    sigma = ri.Conductivity(2.0, 1.0)
    print("| rung | nodes | mesh.generate | fem.assemble | fem.solve_forward "
          "| fem.solve_interface | ndmap.form (16 modes) |")
    print("|---|---|---|---|---|---|---|")
    for rung in RUNGS:
        mesh = ri.generate_disk_mesh(*rung)
        gamma = np.full(mesh.n_interface_nodes, 2.0)
        system = ri.assemble_system(mesh, sigma, gamma)
        g = np.cos(mesh.boundary_theta)
        f = np.cos(mesh.interface_theta)
        n_modes = min(16, (mesh.n_boundary_nodes - 1) // 2)
        row = [
            median_ms(lambda: ri.generate_disk_mesh(*rung), repeats),
            median_ms(lambda: ri.assemble_system(mesh, sigma, gamma), repeats),
            median_ms(lambda: ri.solve_forward(system, g), repeats),
            median_ms(lambda: ri.solve_interface_source(system, f), repeats),
            median_ms(lambda: ri.nd_form_matrix(system, n_modes), repeats),
        ]
        print(f"| {rung} | {mesh.n_nodes} | " + " | ".join(f"{v:.3g} ms" for v in row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
