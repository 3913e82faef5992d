import numpy as np
import pytest

import robininv as ri
from robininv import fem
from robininv.locpot import (
    arc_edge_mask,
    arc_lengths,
    edge_integrals_sq,
    indicator_nodal,
)


def below(tol):
    """The stop of a Runge approximation: the L2(Gamma) residual is at most tol."""
    return lambda _it, res, _u, _g: res <= tol


@pytest.fixture(scope="module")
def system_unit(mesh_mid, sigma):
    # gamma = 1 everywhere, the localized-potential example setting
    return ri.assemble_system(mesh_mid, sigma, np.ones(mesh_mid.n_interface_nodes))


def test_operators_vanish_at_zero(system_coarse):
    mesh = system_coarse.mesh
    assert np.all(ri.apply_A(system_coarse, np.zeros(mesh.n_interface_nodes)) == 0.0)
    assert np.all(ri.apply_Astar(system_coarse, np.zeros(mesh.n_boundary_nodes)) == 0.0)


def test_astar_radial(system_mid):
    mesh = system_mid.mesh
    out = ri.apply_Astar(system_mid, np.ones(mesh.n_boundary_nodes))
    assert np.allclose(out, 1.0, atol=5e-3)


def test_astar_consistent_with_nd(system_coarse):
    mesh = system_coarse.mesh
    g = np.cos(2 * mesh.boundary_theta)
    u = ri.solve_forward(system_coarse, g)
    assert np.array_equal(ri.apply_Astar(system_coarse, g), ri.trace_interface(mesh, u))
    assert np.array_equal(ri.apply_nd(system_coarse, g), ri.trace_boundary(mesh, u))


def test_adjoint_identity_sweep(system_coarse):
    mesh = system_coarse.mesh
    rng = np.random.default_rng(100)
    for _ in range(100):
        f = rng.standard_normal(mesh.n_interface_nodes)
        g = rng.standard_normal(mesh.n_boundary_nodes)
        lhs = ri.boundary_l2(system_coarse, ri.apply_A(system_coarse, f), g)
        rhs = ri.interface_l2(system_coarse, f, ri.apply_Astar(system_coarse, g))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)


def test_hat_source_injectivity(system_coarse):
    f = np.zeros(system_coarse.mesh.n_interface_nodes)
    f[5] = 1.0
    assert np.abs(ri.apply_A(system_coarse, f)).max() > 0


def test_cgne_zero_target(system_coarse):
    res = ri.cgne_solve(
        system_coarse, np.zeros(system_coarse.mesh.n_interface_nodes), below(1e-12), 10
    )
    assert res.achieved
    assert res.iterations == 0
    assert np.all(res.g == 0.0)


def test_cgne_rejects_bad_args(system_coarse):
    with pytest.raises(ri.ParameterError):
        ri.cgne_solve(system_coarse, np.zeros(3), lambda *a: False, 10)
    with pytest.raises(ri.ParameterError):
        ri.cgne_solve(
            system_coarse,
            np.zeros(system_coarse.mesh.n_interface_nodes),
            lambda *a: False,
            0,
        )


def test_cgne_factors_its_gamma_once(mesh_mid, sigma, monkeypatch):
    # the check of assembly is the only factorization: every forward and
    # interface-source solve of the run solves with its kept factor
    n = mesh_mid.n_interface_nodes
    fem.gamma_free_part(mesh_mid, sigma)  # the (mesh, sigma) set-up is not counted
    factored, real_cholesky, real_solve = [], fem.cholesky, np.linalg.solve

    def cholesky(A):
        factored.append(A.shape)
        return real_cholesky(A)

    def small_solves_only(A, B):
        assert A.shape[-1] < n, "no solve of size n"
        return real_solve(A, B)

    monkeypatch.setattr(fem, "cholesky", cholesky)
    monkeypatch.setattr(np.linalg, "solve", small_solves_only)
    system = ri.assemble_system(mesh_mid, sigma, np.ones(n))
    result = ri.cgne_solve(system, np.cos(mesh_mid.interface_theta), lambda *_: False, 20)
    assert result.iterations == 20 and result.stopped_by == "max_iter"
    assert factored == [(n, n)]


def test_cgne_residual_monotone(system_unit):
    mesh = system_unit.mesh
    part = ri.interface_partition(mesh, 4)
    target = 4.0 * indicator_nodal(part, 0)
    res = ri.cgne_solve(system_unit, target, lambda *a: False, 30)
    hist = res.residual_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    # strict progress before stagnation
    assert hist[5] < hist[0]


def test_cgne_tighter_tol_needs_more_iterations(system_unit):
    mesh = system_unit.mesh
    part = ri.interface_partition(mesh, 4)
    target = 4.0 * indicator_nodal(part, 0)
    loose = ri.cgne_solve(system_unit, target, below(1.0), 200)
    tight = ri.cgne_solve(system_unit, target, below(0.25), 200)
    assert loose.achieved and tight.achieved
    assert tight.iterations >= loose.iterations


def test_runge_target_in_range(system_coarse):
    g0 = np.sin(system_coarse.mesh.boundary_theta)
    f = ri.apply_Astar(system_coarse, g0)
    res = ri.cgne_solve(system_coarse, f, below(1e-8), 200)
    assert res.achieved
    assert res.residual_history[-1] <= 1e-8


def test_runge_quarter_arc_indicator(system_unit):
    mesh = system_unit.mesh
    part = ri.interface_partition(mesh, 4)
    length = arc_lengths(system_unit, part)[0]
    f = indicator_nodal(part, 0) / length
    res = ri.cgne_solve(system_unit, f, below(0.05), 500)
    assert res.achieved
    assert res.iterations <= 500


def test_discontinuous_target_harder_than_smooth(system_unit):
    mesh = system_unit.mesh
    part = ri.interface_partition(mesh, 4)
    rough = ri.cgne_solve(system_unit, indicator_nodal(part, 0), below(0.05), 500)
    smooth = ri.cgne_solve(system_unit, np.sin(mesh.interface_theta), below(0.05), 500)
    assert rough.iterations > smooth.iterations


def test_arc_integral_exact():
    mesh = ri.generate_disk_mesh(1, 1, 8)
    sigma = ri.Conductivity(2.0, 1.0)
    system = ri.assemble_system(mesh, sigma, np.ones(mesh.n_interface_nodes))
    part = ri.interface_partition(mesh, 4)
    mask = arc_edge_mask(part, 0)
    u = np.ones(mesh.n_interface_nodes)
    # u == 1: integral over the arc equals the arc's polygonal length
    assert float(edge_integrals_sq(mesh, u)[mask].sum()) == pytest.approx(
        arc_lengths(system, part)[0], abs=1e-14
    )


def test_arc_edge_mask_validation(mesh_coarse):
    part = ri.interface_partition(mesh_coarse, 4)
    with pytest.raises(ri.ParameterError):
        arc_edge_mask(part, [])
    with pytest.raises(ri.ParameterError):
        arc_edge_mask(part, 4)
    with pytest.raises(ri.ParameterError):  # a repeated arc would count its length twice
        arc_edge_mask(part, [0, 0])


def test_localized_potential_rejects_full_cover(system_coarse):
    part = ri.interface_partition(system_coarse.mesh, 2)
    with pytest.raises(ri.ParameterError):
        ri.localized_potential(system_coarse, part, [0, 1])


def test_localized_potential_quarter_arc(system_unit):
    part = ri.interface_partition(system_unit.mesh, 4)
    res = ri.localized_potential(system_unit, part, 0, alpha=2.0, beta=0.5, max_iter=500)
    assert res.achieved
    # re-verify the post-condition from scratch
    mask = arc_edge_mask(part, 0)
    u = ri.apply_Astar(system_unit, res.g)
    assert float(edge_integrals_sq(system_unit.mesh, u)[mask].sum()) >= 2.0 - 1e-10
    assert float(edge_integrals_sq(system_unit.mesh, u)[~mask].sum()) <= 0.5 + 1e-10


def test_localized_potential_complement(system_unit):
    part = ri.interface_partition(system_unit.mesh, 4)
    res = ri.localized_potential(
        system_unit, part, [1, 2, 3], alpha=2.0, beta=0.5, max_iter=500
    )
    assert res.achieved
    mask = arc_edge_mask(part, [1, 2, 3])
    u = ri.apply_Astar(system_unit, res.g)
    assert float(edge_integrals_sq(system_unit.mesh, u)[mask].sum()) >= 2.0 - 1e-10
    assert float(edge_integrals_sq(system_unit.mesh, u)[~mask].sum()) <= 0.5 + 1e-10


def test_localization_ratio_grows(system_unit):
    part = ri.interface_partition(system_unit.mesh, 4)
    mask = arc_edge_mask(part, 0)
    length = arc_lengths(system_unit, part)[0]
    target = indicator_nodal(part, 0) / length

    ratios = []

    def watch(_it, _res, u_trace, _g):
        per_edge = edge_integrals_sq(system_unit.mesh, u_trace)
        off = float(per_edge[~mask].sum())
        if off > 0:
            ratios.append(float(per_edge[mask].sum()) / off)
        return False

    ri.cgne_solve(system_unit, target, watch, 40)
    assert ratios[-1] >= 10.0 * ratios[0]


def test_cgne_stops_by_test_stagnation_or_max_iter(mesh_coarse, sigma):
    part = ri.interface_partition(mesh_coarse, 4)
    gammas = ri.ArcwiseGamma(part, [[1.0] * 4, [0.5, 2.0, 1.0, 3.0], [2.0] * 4, [1.0, 3.0, 1.0, 3.0]])
    system = ri.assemble_system(mesh_coarse, sigma, gammas)
    theta = mesh_coarse.interface_theta
    targets = [
        np.cos(theta),  # stop test holds at the start
        np.zeros_like(theta),  # zero residual: stagnation at iteration 1
        4.0 * indicator_nodal(part, 0),  # never stopped: max_iter
        np.sin(theta),  # stop test holds after a few iterations
    ]

    def tol(value):
        return lambda _it, res, _u, _g: res <= value

    stops = [lambda *a: True, lambda *a: False, lambda *a: False, tol(1e-2)]
    results = [
        ri.cgne_solve(system.members(i), targets[i], stops[i], max_iter=8) for i in range(4)
    ]
    assert [r.stopped_by for r in results] == ["stop test", "stagnation", "max_iter", "stop test"]
    assert [r.achieved for r in results] == [True, False, False, True]
    assert results[0].iterations == results[1].iterations == 0
    assert results[2].iterations == 8 and 0 < results[3].iterations < 8
    for i, result in enumerate(results):
        assert len(result.residual_history) == result.iterations + 1
        # the last residual is the one of the returned current
        u = ri.apply_Astar(system.members(i), result.g)
        residual = ri.interface_l2(system, u - targets[i], u - targets[i]) ** 0.5
        assert residual == pytest.approx(result.residual_history[-1], rel=1e-9, abs=1e-12)
    assert results[3].residual_history[-1] <= 1e-2
    with pytest.raises(ri.ParameterError):  # the system of one gamma
        ri.cgne_solve(system, targets[0], stops[0], 8)
