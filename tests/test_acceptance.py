"""Acceptance gate: each test covers one numbered criterion and prints one
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import time

import numpy as np
import pytest

import robininv as ri
from robininv import cli
from robininv.cli import flux_set, gamma_selector


def report(num, name, ok):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def meshes():
    return [ri.generate_disk_mesh(*p) for p in ((2, 2, 32), (4, 4, 64), (8, 8, 128))]


def relative_trace_error(mesh, sigma, gamma_const, n):
    gamma = np.full(mesh.n_interface_nodes, gamma_const)
    system = ri.assemble_system(mesh, sigma, gamma)
    theta = mesh.boundary_theta
    g = np.ones_like(theta) if n == 0 else np.cos(n * theta)
    got = ri.trace_boundary(mesh, ri.solve_forward(system, g))
    exact = ri.oracle_boundary_trace(n, sigma, gamma_const, theta)
    num = ri.boundary_l2(system, got - exact, got - exact)
    den = ri.boundary_l2(system, exact, exact)
    return np.sqrt(num / den)


def test_criterion_1_forward_convergence(meshes, sigma):
    t0 = time.perf_counter()
    ok = True
    for gamma_const in (1.0, 2.0):
        for n in (0, 1, 2):
            errs = [relative_trace_error(m, sigma, gamma_const, n) for m in meshes]
            orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
            ok = ok and all(o >= 1.8 for o in orders) and errs[-1] < 1e-2
    ok = ok and (time.perf_counter() - t0) < 30.0
    report(1, "forward-solver convergence order >= 1.8", ok)


def test_criterion_2_radial_point_values(mesh_mid, sigma):
    system = ri.assemble_system(mesh_mid, sigma, np.full(mesh_mid.n_interface_nodes, 2.0))
    u = ri.solve_forward(system, np.ones(mesh_mid.n_boundary_nodes))
    iface = ri.trace_interface(mesh_mid, u)
    bdry = ri.trace_boundary(mesh_mid, u)
    ok = (
        np.abs(iface - 1.0).max() < 0.01
        and np.abs(bdry - (1.0 + np.log(2.0))).max() < 0.01 * (1.0 + np.log(2.0))
    )
    report(2, "radial values u|_Gamma=1, u|_bdry=1+ln2 within 1%", ok)


def test_criterion_3_discrete_identities(mesh_coarse, sigma):
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    ni = mesh_coarse.n_interface_nodes
    nb = mesh_coarse.n_boundary_nodes
    ok = True
    for _ in range(50):
        s1 = ri.assemble_system(mesh_coarse, sigma, rng.uniform(0.5, 3.0, ni))
        s2 = ri.assemble_system(mesh_coarse, sigma, rng.uniform(0.5, 3.0, ni))
        g = rng.standard_normal(nb)
        h = rng.standard_normal(nb)
        ok = ok and ri.alessandrini_residual(s1, s2, g, h) <= 1e-10
        lhs = ri.boundary_l2(s1, h, ri.apply_nd(s1, g))
        rhs = ri.boundary_l2(s1, g, ri.apply_nd(s1, h))
        ok = ok and abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-30)
    ok = ok and (time.perf_counter() - t0) < 60.0
    report(3, "Alessandrini + self-adjointness <= 1e-10 over 50 pairs", ok)


def test_criterion_4_monotonicity(mesh_coarse, mesh_mid, sigma):
    rng = np.random.default_rng(404)
    ni = mesh_coarse.n_interface_nodes
    ok = True
    for _ in range(20):
        g1 = rng.uniform(0.5, 2.0, ni)
        g2 = g1 + rng.uniform(0.0, 1.5, ni)
        s1 = ri.assemble_system(mesh_coarse, sigma, g1)
        s2 = ri.assemble_system(mesh_coarse, sigma, g2)
        F1 = ri.nd_form_matrix(s1, 10)
        scale = np.abs(np.linalg.eigvalsh(0.5 * (F1.matrix + F1.matrix.T))).max()
        ok = ok and ri.check_monotonicity(s1, s2, 10) >= -1e-8 * scale
    theta = mesh_mid.interface_theta
    s1 = ri.assemble_system(mesh_mid, sigma, np.exp(-np.cos(theta)))
    s2 = ri.assemble_system(mesh_mid, sigma, np.exp(-np.cos(theta)) + 1.0)
    F1 = ri.nd_form_matrix(s1, 10)
    scale = np.abs(np.linalg.eigvalsh(0.5 * (F1.matrix + F1.matrix.T))).max()
    ok = ok and ri.check_monotonicity(s1, s2, 10) >= -1e-8 * scale
    bt = mesh_mid.boundary_theta
    for i in range(1, 11):
        gi = np.sin(i * bt)
        ok = ok and ri.nd_quadratic_form(s1, gi) >= ri.nd_quadratic_form(s2, gi)
    report(4, "quadratic-form monotonicity, 20 ordered pairs + figure pair", ok)


def test_criterion_5_monotonicity_estimate(mesh_coarse, sigma):
    rng = np.random.default_rng(505)
    ni = mesh_coarse.n_interface_nodes
    g = np.sin(2 * mesh_coarse.boundary_theta)
    ok = True
    for _ in range(100):
        s1 = ri.assemble_system(mesh_coarse, sigma, rng.uniform(0.5, 3.0, ni))
        s2 = ri.assemble_system(mesh_coarse, sigma, rng.uniform(0.5, 3.0, ni))
        lhs, mid, rhs = ri.monotonicity_estimate_check(s1, s2, g)
        slack = 1e-8 * max(abs(lhs), abs(mid), abs(rhs), 1.0)
        ok = ok and lhs >= mid - slack and mid >= rhs - slack
    report(5, "two-sided monotonicity estimate, 100 seeded pairs", ok)


def test_criterion_6_gradient_check(mesh_coarse, sigma):
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    ni = mesh_coarse.n_interface_nodes
    flux = np.cos(mesh_coarse.boundary_theta)
    t = 1e-5
    ok = True
    for _ in range(20):
        gamma = rng.uniform(0.8, 2.5, ni)
        direction = rng.standard_normal(ni)
        data = ri.synthesize_data(mesh_coarse, sigma, rng.uniform(0.8, 2.5, ni), [flux])
        lam = float(rng.uniform(0.0, 0.5))
        system = ri.assemble_system(mesh_coarse, sigma, gamma)
        rep = ri.gradient(mesh_coarse, sigma, gamma, data, lam)
        analytic = ri.interface_l2(system, rep, direction)
        fd = (
            ri.cost(mesh_coarse, sigma, gamma + t * direction, data, lam)
            - ri.cost(mesh_coarse, sigma, gamma - t * direction, data, lam)
        ) / (2.0 * t)
        ok = ok and abs(analytic - fd) <= 1e-5 * max(abs(fd), 1.0)
    ok = ok and (time.perf_counter() - t0) < 60.0
    report(6, "adjoint gradient vs central differences <= 1e-5", ok)


def run_reconstruction(mesh, sigma, which, init_name, eps, seed=0):
    gamma_true = gamma_selector(which, mesh.interface_theta)
    data = ri.synthesize_data(mesh, sigma, gamma_true, flux_set(which, mesh.boundary_theta))
    if eps > 0:
        data = ri.add_noise(data, eps, seed)
    init = gamma_selector(init_name, mesh.interface_theta)
    state = ri.bfgs_minimize(mesh, sigma, data, 0.0, init)
    system = ri.assemble_system(mesh, sigma, gamma_true)
    diff = state.gamma - gamma_true
    rel = np.sqrt(
        ri.interface_l2(system, diff, diff) / ri.interface_l2(system, gamma_true, gamma_true)
    )
    return state, rel


def check_reconstruction(mesh, sigma, which, inits, noise_levels):
    ok = True
    base_err = None
    for init_name in inits:
        state, rel = run_reconstruction(mesh, sigma, which, init_name, 0.0)
        ok = ok and rel <= 0.05
        ok = ok and state.history[-1][1] <= 1e-3 * state.history[0][1]
        base_err = rel if base_err is None else max(base_err, rel)
    for eps in noise_levels:
        state, rel = run_reconstruction(mesh, sigma, which, inits[0], eps)
        J = [h[0] for h in state.history]
        ok = ok and all(b <= a + 1e-15 for a, b in zip(J, J[1:]))
        ok = ok and rel >= base_err - 1e-12
    return ok


def test_criterion_7_example_1(mesh_mid, sigma):
    t0 = time.perf_counter()
    ok = check_reconstruction(
        mesh_mid, sigma, "example1", ["expinit", "constant:1"], (0.01, 0.03, 0.05, 0.1)
    )
    ok = ok and (time.perf_counter() - t0) < 300.0
    report(7, "reconstruction example 1, both inits + noise sweep", ok)


def test_criterion_8_example_2(mesh_mid, sigma):
    t0 = time.perf_counter()
    ok = check_reconstruction(mesh_mid, sigma, "example2", ["constant:1"], (0.05,))
    ok = ok and (time.perf_counter() - t0) < 300.0
    report(8, "reconstruction example 2, noise-free and eps=0.05", ok)


def test_criterion_9_lipschitz_pipeline(mesh_mid, sigma):
    t0 = time.perf_counter()
    part = ri.interface_partition(mesh_mid, 4)
    rep = ri.lipschitz_constant(mesh_mid, sigma, 1.0, 2.0, part)
    ok = rep.K == 5
    ok = ok and len(rep.entries) == 20 and all(e.achieved for e in rep.entries)
    ok = ok and rep.complete and rep.G is not None and rep.G > 0
    samples = ri.verify_stability(rep, mesh_mid, sigma, 50, seed=909, n_modes=16)
    ok = ok and all(s.ratio <= 1.05 * rep.G for s in samples)
    print(
        f"  constant_proof = {rep.constant_proof:.6g} "
        f"(proof-side: ||g1-g2||_inf <= G ||dLambda||_*)"
    )
    print(f"  constant_stated = {rep.constant_stated:.6g} (reciprocal form, 1/G)")
    ok = ok and (time.perf_counter() - t0) < 300.0
    report(9, "Lipschitz constant pipeline a=1 b=2 M=4", ok)


def test_criterion_10_localized_potentials(mesh_mid, sigma):
    from robininv.locpot import arc_edge_mask, edge_integrals_sq

    system = ri.assemble_system(mesh_mid, sigma, np.ones(mesh_mid.n_interface_nodes))
    part = ri.interface_partition(mesh_mid, 4)
    res = ri.localized_potential(system, part, 0, alpha=2.0, beta=0.5, max_iter=500)
    ok = res.achieved and res.iterations <= 500
    mask = arc_edge_mask(part, 0)
    u = ri.apply_Astar(system, res.g)
    ok = ok and float(edge_integrals_sq(mesh_mid, u)[mask].sum()) >= 2.0 - 1e-10
    ok = ok and float(edge_integrals_sq(mesh_mid, u)[~mask].sum()) <= 0.5 + 1e-10
    report(10, "localized potential on a quarter arc", ok)


def test_criterion_11_cli_determinism(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_r_inner = 2\nn_r_outer = 2\nn_theta = 32\nseed = 1\nmax_iter = 60\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    ok = cli.main(["example1", "--config", str(cfg), "--out", str(out1)]) == 0
    ok = ok and cli.main(["example1", "--config", str(cfg), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.glob("*.csv"))
    ok = ok and bool(names)
    for name in names:
        ok = ok and (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report(11, "byte-identical CSVs for repeated example1 runs", ok)
