"""Output checks for each CLI driver, computed independently of robininv.

Each checker reads the CSVs one driver call wrote and returns a list of
problems; an empty list means the outputs are correct. Reference values come
from closed forms, the benchmark's own 3x3 solve for the concentric analytic
solution, and its own piecewise-linear quadrature, never from robininv.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from workloads import RECON_ERROR_BOUND, Call

INTERFACE_RADIUS = 0.5
NOISE_LEVELS = (0.0, 0.01, 0.03, 0.05, 0.1)
VERIFY_SAMPLES = 50  # pairs drawn by the lipschitz driver
GAMMA_TRUE = {
    "example1": lambda t: np.exp(-0.5 * np.cos(t)),
    "example2": lambda t: 1.0 + np.cos(t) ** 2,
}


def read_csv(path: Path):
    """Header and float rows of a driver CSV (first line is the config comment)."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# config="):
        raise ValueError(f"{path.name}: missing config comment")
    header = lines[1].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return header, rows.reshape(-1, len(header))


def column(path: Path, name: str) -> np.ndarray:
    header, rows = read_csv(path)
    return rows[:, header.index(name)]


def concentric_mode(n: int, s1: float, s2: float, gamma: float):
    """(A, B, C) of u = A r^n cos(n t) inside, (B r^n + C r^-n) cos(n t) outside
    (mode 0: A inside, B + C ln r outside) for the current cos(n t) on |x| = 1."""
    rho = INTERFACE_RADIUS
    if n == 0:
        mat = [[1.0, -1.0, -math.log(rho)], [-gamma, 0.0, s2 / rho], [0.0, 0.0, s2]]
    else:
        mat = [
            [rho**n, -(rho**n), -(rho**-n)],
            [-s1 * n * rho ** (n - 1) - gamma * rho**n, s2 * n * rho ** (n - 1),
             -s2 * n * rho ** (-n - 1)],
            [0.0, s2 * n, -s2 * n],
        ]
    return np.linalg.solve(np.array(mat), np.array([0.0, 0.0, 1.0]))


def discretisation_tol(n: int, n_theta: int) -> float:
    """Relative tolerance for mode n: measured errors are <= 0.3 (1 + n^2) h^2."""
    return 0.5 * (1 + n * n) * (2.0 * math.pi / n_theta) ** 2


def pl_sq_integrals(theta, u, radius):
    """Per-edge int u^2 ds of the piecewise-linear interpolant on the polygon
    through the ring nodes (sorted by angle), and each edge's midpoint angle."""
    order = np.argsort(theta)
    t = np.asarray(theta)[order]
    dt = np.diff(np.append(t, t[0] + 2.0 * math.pi))
    length = 2.0 * radius * np.sin(0.5 * dt)
    a = np.asarray(u)[order]
    b = np.roll(a, -1)
    return length * (a * a + a * b + b * b) / 3.0, t + 0.5 * dt


def check_example(call: Call, out: Path) -> list:
    cfg = call.config
    which = call.sub
    inits = ["expinit", "constant1"] if which == "example1" else ["constant1"]
    levels = NOISE_LEVELS if which == "example1" else (0.0, 0.05)
    problems = []
    for eps in levels:
        for init in inits:
            tag = f"eps{eps:g}_init_{init}"
            J = column(out / f"history_{tag}.csv", "J")
            if not np.all(np.isfinite(J)) or np.any(np.diff(J) > 0.0):
                problems.append(f"{tag}: J history is not non-increasing")
            coef = out / f"coefficient_{tag}.csv"
            theta = column(coef, "theta")
            gamma = column(coef, "gamma_reconstructed")
            if not (np.all(gamma >= cfg["c0"]) and np.all(gamma <= cfg["c1"])):
                problems.append(f"{tag}: gamma leaves [c0, c1]")
            if eps == 0.0:
                true = GAMMA_TRUE[which](theta)
                err_sq, _ = pl_sq_integrals(theta, gamma - true, INTERFACE_RADIUS)
                ref_sq, _ = pl_sq_integrals(theta, true, INTERFACE_RADIUS)
                err = math.sqrt(err_sq.sum() / ref_sq.sum())
                if not err < RECON_ERROR_BOUND:
                    problems.append(f"{tag}: noise-free relative L2 error {err:.3g}"
                                    f" >= {RECON_ERROR_BOUND}")
    return problems


def check_lipschitz(call: Call, out: Path) -> list:
    cfg = call.config
    a, b, n_arcs = cfg["a"], cfg["b"], cfg["partition_m"]
    K = math.floor(4.0 * (b / a - 1.0)) + 1
    problems = []
    header, rows = read_csv(out / "lipschitz_report.csv")
    rep = dict(zip(header, rows.T))
    pairs = sorted(zip(rep["k"].astype(int), rep["m"].astype(int)))
    if pairs != [(k, m) for k in range(1, K + 1) for m in range(1, n_arcs + 1)]:
        problems.append(f"report rows are not the K x M = {K} x {n_arcs} grid")
    if not np.all(rep["achieved"] == 1) or not np.all(rep["condition_value"] >= 1.0):
        problems.append("a (k, m) run missed its localization condition")
    summary = (out / "summary.txt").read_text().splitlines()
    head = dict(item.split("=", 1) for item in summary[0].split())  # a= b= K= M=
    G = float(next((line[2:] for line in summary if line.startswith("G=")), "nan"))
    if int(head.get("K", -1)) != K:
        problems.append(f"summary K differs from floor(4(b/a - 1)) + 1 = {K}")
    if not (math.isfinite(G) and G > 0.0) or G != rep["g_norm_sq"].max():
        problems.append("G is not the finite positive max of ||g_km||^2")
    _, ver = read_csv(out / "lipschitz_verification.csv")
    diff_inf, nd_norm, ratio = ver[:, 1], ver[:, 2], ver[:, 3]
    if len(ver) != VERIFY_SAMPLES or not np.all(nd_norm > 0.0):
        problems.append("verification does not hold 50 pairs with a positive ND difference")
    elif not np.allclose(ratio, diff_inf / nd_norm, rtol=1e-12, atol=0.0):
        problems.append("verification ratio is not diff_inf / nd_diff_norm")
    if not np.all(ratio <= G):
        problems.append("a verification ratio exceeds the stability constant G")
    return problems


def _ring(out: Path, radius: float):
    _, rows = read_csv(out / "field.csv")
    r = np.hypot(rows[:, 1], rows[:, 2])
    on = np.abs(r - radius) < 1e-9
    return np.arctan2(rows[on, 2], rows[on, 1]), rows[on, 3]


def check_forward(call: Call, out: Path) -> list:
    cfg = call.config
    n = int(cfg["flux"].split(":")[1])
    gamma = float(cfg["gamma_true"].split(":")[1])
    A, B, C = concentric_mode(n, cfg["sigma1"], cfg["sigma2"], gamma)
    tol = discretisation_tol(n, cfg["n_theta"])
    problems = []
    for name, radius, amp in (("boundary", 1.0, B + C),
                              ("interface", INTERFACE_RADIUS, A * INTERFACE_RADIUS**n)):
        theta, u = _ring(out, radius)
        if len(u) != cfg["n_theta"]:
            problems.append(f"{name} ring has {len(u)} nodes")
            continue
        want = amp * np.cos(n * theta)
        err = np.linalg.norm(u - want) / np.linalg.norm(want)
        if not err <= tol:
            problems.append(f"{name} trace relative error {err:.3g} > {tol:.3g}")
    return problems


def check_ndmap(call: Call, out: Path) -> list:
    cfg = call.config
    n_modes = cfg["n_modes"]
    gamma = float(cfg["gamma_true"].split(":")[1])
    size = 2 * n_modes + 1
    _, rows = read_csv(out / "ndform.csv")
    if len(rows) != size * size:
        return [f"ndform.csv holds {len(rows)} entries, expected {size * size}"]
    F = np.zeros((size, size))
    F[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2]
    problems = []
    for k in range(n_modes + 1):
        # <g, Lambda g> = B + C for g = cos(k t)/sqrt(pi) or sin(k t)/sqrt(pi);
        # B for g = 1/sqrt(2 pi)
        _, B, C = concentric_mode(k, cfg["sigma1"], cfg["sigma2"], gamma)
        want = B if k == 0 else B + C
        tol = discretisation_tol(k, cfg["n_theta"])
        for i in ([0] if k == 0 else [2 * k - 1, 2 * k]):
            err = abs(F[i, i] - want) / abs(want)
            if not err <= tol:
                problems.append(f"diagonal {i} (mode {k}) relative error {err:.3g} > {tol:.3g}")
    off = np.abs(F - np.diag(np.diag(F))).max()
    if not off <= 1e-9 * np.abs(np.diag(F)).max():
        problems.append(f"off-diagonal entry {off:.3g} on a rotation-invariant problem")
    return problems


def check_monotonicity(call: Call, out: Path) -> list:
    _, rows = read_csv(out / "monotonicity.csv")
    if len(rows) != 10 or not np.array_equal(rows[:, 0], np.arange(1, 11)):
        return ["monotonicity.csv does not hold the currents sin(i t), i = 1..10"]
    q1, q2 = rows[:, 1], rows[:, 2]
    if not (np.all(q2 > 0.0) and np.all(q1 >= q2)):
        return ["quadratic forms are not ordered: gamma1 <= gamma2 needs q1 >= q2 > 0"]
    return []


def check_locpot(call: Call, out: Path) -> list:
    cfg = call.config
    _, rows = read_csv(out / "locpot_trace.csv")
    per_edge, mid = pl_sq_integrals(rows[:, 0], rows[:, 1], INTERFACE_RADIUS)
    width = 2.0 * math.pi / cfg["partition_m"]
    in_arc = np.floor(mid / width) == int(cfg["arcs"])
    on, off = per_edge[in_arc].sum(), per_edge[~in_arc].sum()
    problems = []
    if not on >= cfg["alpha"]:
        problems.append(f"int_M u^2 = {on:.4g} < alpha = {cfg['alpha']}")
    if not off <= cfg["beta"]:
        problems.append(f"int_(Gamma\\M) u^2 = {off:.4g} > beta = {cfg['beta']}")
    return problems


CHECKS = {
    "example1": check_example,
    "example2": check_example,
    "lipschitz": check_lipschitz,
    "forward": check_forward,
    "ndmap": check_ndmap,
    "monotonicity": check_monotonicity,
    "locpot": check_locpot,
}


def check(call: Call, out: Path) -> list:
    """Problems with the outputs of one driver call; a malformed file is one."""
    try:
        return CHECKS[call.sub](call, out)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]
