import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import robininv as ri
from robininv import cli, fem
from robininv.fem import condensed_matrix


def _sparse(mesh, local, cells):
    """Sum the local matrices local[c] over the global node indices cells[c]."""
    width = cells.shape[1]
    rows = np.repeat(cells, width, axis=1).ravel()
    cols = np.tile(cells, (1, width)).ravel()
    return sp.csr_matrix((local.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes))


def stiffness_matrix(mesh, sigma):
    """The full sparse P1 stiffness on every node."""
    return _sparse(mesh, fem.element_stiffness(mesh, sigma), mesh.triangles)


def interface_form_matrix(mesh, gamma):
    """The full sparse matrix of int_Gamma gamma u w ds (2-point Gauss) on every node."""
    return _sparse(mesh, fem._robin_edge_matrices(mesh, gamma), mesh.interface_edges)


def test_assembly_symmetric_and_split(mesh_coarse):
    sigma_unit = ri.Conductivity(1.0, 1.0)
    ones = np.ones(mesh_coarse.n_interface_nodes)
    A = condensed_matrix(mesh_coarse, sigma_unit, ones)
    assert A.shape == (mesh_coarse.n_interface_nodes,) * 2  # the interface nodes only
    assert np.abs(A - A.T).max() <= 1e-14 * np.abs(A).max()


def test_gamma_enters_linearly(mesh_coarse, sigma):
    # A depends on gamma through the Robin term only
    ones = np.ones(mesh_coarse.n_interface_nodes)
    A1 = condensed_matrix(mesh_coarse, sigma, ones)
    A2 = condensed_matrix(mesh_coarse, sigma, 2.0 * ones)
    gamma_nodes = mesh_coarse.interface_nodes
    robin = interface_form_matrix(mesh_coarse, ones)[gamma_nodes][:, gamma_nodes].toarray()
    assert np.abs((A2 - A1) - robin).max() < 1e-14 * np.abs(A1).max()


def test_system_positive_definite(sigma):
    mesh = ri.generate_disk_mesh(2, 2, 16)
    A = condensed_matrix(mesh, sigma, np.ones(mesh.n_interface_nodes))
    assert np.linalg.eigvalsh(A).min() > 0


def test_nonpositive_gamma_rejected(mesh_coarse, sigma):
    gamma = np.ones(mesh_coarse.n_interface_nodes)
    gamma[3] = 0.0
    with pytest.raises(ri.CoercivityError):
        ri.assemble_system(mesh_coarse, sigma, gamma)


def test_nan_coefficients_rejected(mesh_coarse, sigma):
    gamma = np.ones(mesh_coarse.n_interface_nodes)
    gamma[3] = np.nan
    with pytest.raises(ri.CoercivityError):
        ri.assemble_system(mesh_coarse, sigma, gamma)
    for sigma1, sigma2 in ((0.0, 1.0), (1.0, -2.0), (np.nan, 1.0), (1.0, np.nan)):
        with pytest.raises(ri.ParameterError):
            ri.Conductivity(sigma1, sigma2)


def test_zero_load_gives_zero_solution(system_coarse):
    u = ri.solve_forward(system_coarse, np.zeros(system_coarse.mesh.n_boundary_nodes))
    assert np.all(u == 0.0)


def test_radial_solution(system_mid):
    # sigma=(2,1), gamma=2, g=1: u=1 on the interface, 1+ln 2 on the boundary
    mesh = system_mid.mesh
    u = ri.solve_forward(system_mid, np.ones(mesh.n_boundary_nodes))
    assert np.allclose(ri.trace_interface(mesh, u), 1.0, atol=5e-3)
    assert np.allclose(ri.trace_boundary(mesh, u), 1.0 + np.log(2.0), atol=5e-3)


def test_mode_one_matches_oracle(system_mid, sigma):
    mesh = system_mid.mesh
    g = np.cos(mesh.boundary_theta)
    tb = ri.trace_boundary(mesh, ri.solve_forward(system_mid, g))
    exact = ri.oracle_boundary_trace(1, sigma, 2.0, mesh.boundary_theta)
    err = np.sqrt(
        ri.boundary_l2(system_mid, tb - exact, tb - exact)
        / ri.boundary_l2(system_mid, exact, exact)
    )
    assert err < 1e-2


def test_adjoint_zero_and_negated_forward(system_coarse):
    mesh = system_coarse.mesh
    assert np.all(ri.solve_adjoint(system_coarse, np.zeros(mesh.n_boundary_nodes)) == 0.0)
    r = np.sin(2 * mesh.boundary_theta)
    v = ri.solve_adjoint(system_coarse, r)
    u = ri.solve_forward(system_coarse, r)
    assert np.allclose(v, -u, atol=1e-10)


def test_adjoint_vanishes_along_homotopy(mesh_coarse, sigma):
    # residual against exact data shrinks as gamma approaches the truth
    theta = mesh_coarse.interface_theta
    gamma_true = 1.0 + 0.5 * np.cos(theta)
    g = np.cos(mesh_coarse.boundary_theta)
    data = ri.trace_boundary(
        mesh_coarse, ri.solve_forward(ri.assemble_system(mesh_coarse, sigma, gamma_true), g)
    )
    norms = []
    for t in (0.4, 0.1, 0.01):
        system = ri.assemble_system(mesh_coarse, sigma, gamma_true + t * np.sin(theta))
        res = ri.trace_boundary(mesh_coarse, ri.solve_forward(system, g)) - data
        v = ri.solve_adjoint(system, res)
        norms.append(np.linalg.norm(v))
    assert norms[0] > norms[1] > norms[2]
    # the residual is roughly linear in t, so expect about a factor 40 drop
    assert norms[2] < 5e-2 * norms[0]


def test_interface_source_zero_and_reciprocity(system_coarse):
    mesh = system_coarse.mesh
    assert np.all(
        ri.solve_interface_source(system_coarse, np.zeros(mesh.n_interface_nodes)) == 0.0
    )
    rng = np.random.default_rng(3)
    f = rng.standard_normal(mesh.n_interface_nodes)
    g = rng.standard_normal(mesh.n_boundary_nodes)
    lhs = ri.boundary_l2(
        system_coarse, g, ri.trace_boundary(mesh, ri.solve_interface_source(system_coarse, f))
    )
    rhs = ri.interface_l2(
        system_coarse, f, ri.trace_interface(mesh, ri.solve_forward(system_coarse, g))
    )
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_interface_hat_source_reaches_boundary(system_coarse):
    mesh = system_coarse.mesh
    f = np.zeros(mesh.n_interface_nodes)
    f[0] = 1.0
    v = ri.solve_interface_source(system_coarse, f)
    assert np.abs(ri.trace_boundary(mesh, v)).max() > 0


def test_traces(system_coarse):
    mesh = system_coarse.mesh
    n_ring = mesh.n_interface_nodes + mesh.n_boundary_nodes
    const = np.full(n_ring, 3.5)
    assert np.all(ri.trace_interface(mesh, const) == 3.5)
    assert np.all(ri.trace_boundary(mesh, const) == 3.5)
    u = ri.solve_forward(system_coarse, np.ones(mesh.n_boundary_nodes))
    assert u.shape == (n_ring,)
    assert np.allclose(ri.trace_interface(mesh, u), 1.0, atol=1e-2)
    # restriction then embedding is the identity on trace values
    emb = np.zeros(n_ring)
    emb[: mesh.n_interface_nodes] = ri.trace_interface(mesh, u)
    assert np.array_equal(ri.trace_interface(mesh, emb), ri.trace_interface(mesh, u))
    with pytest.raises(ri.ParameterError):
        ri.trace_interface(mesh, u[:-1])
    with pytest.raises(ri.ParameterError):  # a full nodal field is not a ring vector
        ri.trace_boundary(mesh, ri.nodal_field(system_coarse, u))


def test_curve_inner_products(system_mid):
    mesh = system_mid.mesh
    ones = np.ones(mesh.n_boundary_nodes)
    perimeter = ri.boundary_l2(system_mid, ones, ones)
    assert abs(perimeter - 2 * np.pi) < 1e-2  # inscribed 64-gon
    assert abs(perimeter - 64 * 2 * np.sin(np.pi / 64)) < 1e-12
    f = np.sin(mesh.boundary_theta)
    g = np.cos(2 * mesh.boundary_theta)
    sym_gap = ri.boundary_l2(system_mid, f, g) - ri.boundary_l2(system_mid, g, f)
    assert abs(sym_gap) < 1e-14
    assert abs(ri.boundary_l2(system_mid, f, f) - np.pi) < 1e-2


def test_curve_mass_size_mismatch(system_coarse):
    with pytest.raises(ri.ParameterError):
        ri.boundary_l2(system_coarse, np.ones(3), np.ones(3))


def test_oracle_radial_coefficients(sigma):
    A, B, C = ri.analytic_concentric_oracle(0, sigma, 2.0)
    assert A == pytest.approx(1.0, abs=1e-14)
    assert C == pytest.approx(1.0, abs=1e-14)
    assert B == pytest.approx(1.0 - np.log(0.5), abs=1e-14)


def test_oracle_large_gamma_limit():
    # gamma -> infinity grounds the interface: C/B -> -rho^2
    sigma_unit = ri.Conductivity(1.0, 1.0)
    _, B, C = ri.analytic_concentric_oracle(1, sigma_unit, 1e6)
    assert C / B == pytest.approx(-0.25, rel=1e-4)


def test_oracle_boundary_value_monotone_in_gamma(sigma):
    values = []
    for gamma in (1.0, 2.0, 4.0, 8.0):
        _, B, C = ri.analytic_concentric_oracle(1, sigma, gamma)
        values.append(B + C)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_oracle_invalid_inputs(sigma):
    with pytest.raises(ri.ParameterError):
        ri.analytic_concentric_oracle(-1, sigma, 1.0)
    with pytest.raises(ri.ParameterError):
        ri.analytic_concentric_oracle(1, sigma, 0.0)


def test_curve_mass_matrix_row_sums(mesh_coarse):
    perimeter = mesh_coarse.boundary_mass.sum()
    assert perimeter == pytest.approx(32 * 2 * np.sin(np.pi / 32), abs=1e-12)
    # the interface mass is the Robin form of gamma = 1, which Gauss integrates exactly
    nodes = mesh_coarse.interface_nodes
    robin = interface_form_matrix(mesh_coarse, np.ones(len(nodes)))[nodes][:, nodes].toarray()
    assert np.abs(mesh_coarse.interface_mass - robin).max() <= 1e-15


def _spy(monkeypatch, module, name):
    """Record the arguments of every call to module.name."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def _matrices(checks):
    """The matrices that the recorded Cholesky calls checked, one per member of a stack."""
    return [A for args in checks for A in args[0].reshape((-1,) + args[0].shape[-2:])]


def _spy_on_setups_and_checks(monkeypatch):
    """The two set-ups of a (mesh, sigma) and the definiteness check of each gamma."""
    return (
        _spy(monkeypatch, fem, "_fourier_schur"),
        _spy(monkeypatch, fem, "_sparse_schur"),
        _spy(monkeypatch, fem, "cholesky"),
    )


def test_many_solves_factor_once(sigma, monkeypatch):
    mesh = ri.generate_disk_mesh(2, 2, 32)
    n = mesh.n_interface_nodes
    fourier, sparse, checks = _spy_on_setups_and_checks(monkeypatch)
    system = ri.assemble_system(mesh, sigma, np.full(n, 2.0))
    for k in range(1, 4):
        ri.solve_forward(system, np.cos(k * mesh.boundary_theta))
    ri.solve_adjoint(system, np.sin(mesh.boundary_theta))
    ri.solve_interface_source(system, np.cos(mesh.interface_theta))
    ri.nd_form_matrix(system, 4)
    ri.nodal_field(system, ri.solve_forward(system, np.cos(mesh.boundary_theta)))
    assert [A.shape for A in _matrices(checks)] == [(n, n)]  # T + C_Gamma, checked once
    assert len(fourier) == 1 and sparse == []  # one set-up of this (mesh, sigma)
    # a new gamma on the same (mesh, sigma) costs one check only
    other = ri.assemble_system(mesh, sigma, np.full(n, 3.0))
    ri.nd_form_matrix(other, 4)
    assert [A.shape for A in _matrices(checks)] == [(n, n)] * 2
    assert len(fourier) == 1 and sparse == []


def test_masses_need_no_system(sigma, monkeypatch):
    mesh = ri.generate_disk_mesh(2, 2, 32)
    fourier, sparse, checks = _spy_on_setups_and_checks(monkeypatch)
    for M in (mesh.interface_mass, mesh.boundary_mass):
        ones = np.ones(M.shape[0])
        assert ones @ (M @ ones) > 0
        assert not M.flags.writeable
    assert mesh.boundary_mass is mesh.boundary_mass  # built once per mesh
    assert mesh.cache == {} and fourier == sparse == checks == []  # nothing condensed
    # lipschitz_constant reads the boundary mass from the mesh: one
    # check per (k, m) system and no other
    part = ri.interface_partition(mesh, 2)
    report = ri.lipschitz_constant(mesh, sigma, 1.0, 1.2, part)
    assert len(_matrices(checks)) == len(report.entries) == 2
    assert len(fourier) == 1 and sparse == []  # one set-up for this (mesh, sigma)


def test_batched_solve_matches_single_solves(system_coarse):
    mesh = system_coarse.mesh
    rng = np.random.default_rng(11)
    G = rng.standard_normal((mesh.n_boundary_nodes, 5))
    F = rng.standard_normal((mesh.n_interface_nodes, 3))
    for solve, loads in ((ri.solve_forward, G), (ri.solve_adjoint, G),
                         (ri.solve_interface_source, F)):
        batched = solve(system_coarse, loads)
        assert batched.shape == (mesh.n_interface_nodes + mesh.n_boundary_nodes, loads.shape[1])
        single = np.column_stack([solve(system_coarse, col) for col in loads.T])
        assert np.abs(batched - single).max() <= 1e-14 * np.abs(single).max()


@pytest.mark.parametrize("rung", [(2, 2, 32), (4, 4, 64)])
def test_condensed_solve_matches_full_sparse_solve(rung, sigma):
    mesh = ri.generate_disk_mesh(*rung)
    theta = mesh.interface_theta
    rng = np.random.default_rng(7)
    G = rng.standard_normal((mesh.n_boundary_nodes, 3))
    F = rng.standard_normal((mesh.n_interface_nodes, 2))
    arcwise = ri.ArcwiseGamma(ri.interface_partition(mesh, 4), [0.5, 1.0, 2.0, 4.0])
    for gamma in (1.0 + 0.5 * np.cos(theta), arcwise):
        system = ri.assemble_system(mesh, sigma, gamma)
        K = (stiffness_matrix(mesh, sigma) + interface_form_matrix(mesh, gamma)).tocsc()
        b_boundary = np.zeros((mesh.n_nodes, G.shape[1]))
        b_boundary[mesh.boundary_nodes] = mesh.boundary_mass @ G
        b_interface = np.zeros((mesh.n_nodes, F.shape[1]))
        b_interface[mesh.interface_nodes] = mesh.interface_mass @ F
        for x, b in (
            (ri.solve_forward(system, G), b_boundary),
            (ri.solve_adjoint(system, G), -b_boundary),
            (ri.solve_interface_source(system, F), b_interface),
        ):
            x = ri.nodal_field(system, x)
            ref = spla.spsolve(K, b)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=15, deadline=None)
@given(
    n_r_inner=st.integers(1, 3),
    n_r_outer=st.integers(1, 3),
    half_theta=st.integers(4, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_condensed_solve_matches_full_sparse_solve_property(
    n_r_inner, n_r_outer, half_theta, seed
):
    mesh = ri.generate_disk_mesh(n_r_inner, n_r_outer, 2 * half_theta)
    rng = np.random.default_rng(seed)
    sigma = ri.Conductivity(*rng.uniform(0.2, 5.0, size=2))
    gamma = rng.uniform(0.05, 10.0, size=mesh.n_interface_nodes)
    g = rng.standard_normal(mesh.n_boundary_nodes)
    system = ri.assemble_system(mesh, sigma, gamma)
    K = (stiffness_matrix(mesh, sigma) + interface_form_matrix(mesh, gamma)).tocsc()
    b = np.zeros(mesh.n_nodes)
    b[mesh.boundary_nodes] = mesh.boundary_mass @ g
    ref = spla.spsolve(K, b)
    x = ri.nodal_field(system, ri.solve_forward(system, g))
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


def _poison_condensed_matrix(monkeypatch, poison):
    """Make fem.condensed_matrix return its matrix with A[0, 0] = poison."""
    real = fem.condensed_matrix

    def poisoned(*args):
        A = real(*args)
        A[0, 0] = poison
        return A

    monkeypatch.setattr(fem, "condensed_matrix", poisoned)


def test_nan_matrix_raises_numerical_error(sigma, monkeypatch):
    mesh = ri.generate_disk_mesh(2, 2, 32)
    gamma = np.full(mesh.n_interface_nodes, 2.0)
    g = np.cos(mesh.boundary_theta)
    _poison_condensed_matrix(monkeypatch, -1.0)  # not positive definite
    with pytest.raises(ri.NumericalError):
        ri.assemble_system(mesh, sigma, gamma)
    _poison_condensed_matrix(monkeypatch, np.nan)
    try:
        system = ri.assemble_system(mesh, sigma, gamma)
    except ri.NumericalError:
        return  # LAPACK saw the NaN while factoring
    for _ in range(2):  # LAPACK factored through the NaN: no solve succeeds
        with pytest.raises(ri.NumericalError):
            ri.solve_forward(system, g)


def test_non_finite_solution_raises_numerical_error(system_coarse):
    g = np.cos(system_coarse.mesh.boundary_theta)
    g[0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised before any product can warn
        with pytest.raises(ri.NumericalError):
            ri.solve_forward(system_coarse, g)


def test_cli_maps_numerical_error_to_exit_2(tmp_path, monkeypatch):
    _poison_condensed_matrix(monkeypatch, np.nan)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_r_inner = 2\nn_r_outer = 2\nn_theta = 32\n")
    assert cli.main(["forward", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


def _dense_schur(mesh, K):
    """K_GG - K_GO K_OO^-1 K_OG with G the interface nodes and O all others."""
    gamma_nodes = mesh.interface_nodes
    others = np.setdiff1d(np.arange(mesh.n_nodes), gamma_nodes)
    K = K.toarray()
    K_GO = K[np.ix_(gamma_nodes, others)]
    return K[np.ix_(gamma_nodes, gamma_nodes)] - K_GO @ np.linalg.solve(
        K[np.ix_(others, others)], K_GO.T
    )


def test_cached_gamma_free_part_matches_fresh_assembly(sigma):
    mesh = ri.generate_disk_mesh(2, 2, 32)
    theta = mesh.interface_theta
    ri.assemble_system(mesh, sigma, np.ones(mesh.n_interface_nodes))  # fills the cache
    for gamma in (1.0 + 0.5 * np.cos(theta), np.exp(np.sin(2 * theta))):
        A = condensed_matrix(mesh, sigma, gamma)
        K = stiffness_matrix(mesh, sigma) + interface_form_matrix(mesh, gamma)
        fresh = _dense_schur(mesh, K)
        assert np.abs(A - fresh).max() <= 1e-13 * np.abs(fresh).max()
    assert list(mesh.cache) == [sigma]
    other = ri.Conductivity(1.0, 3.0)
    ones = np.ones(len(theta))
    A = condensed_matrix(mesh, other, ones)
    fresh = _dense_schur(mesh, stiffness_matrix(mesh, other) + interface_form_matrix(mesh, ones))
    assert np.abs(A - fresh).max() <= 1e-13 * np.abs(fresh).max()
    assert len(mesh.cache) == 2


def test_schur_without_rotational_symmetry_matches_dense(sigma, tmp_path):
    # a generated mesh condenses by a Fourier transform in theta; moving one
    # interior node, or losing the layout on a save and load, leaves the
    # sparse path
    mesh = ri.generate_disk_mesh(2, 2, 32)
    assert len(fem._theta_wedge(mesh)) * 32 == len(mesh.triangles)
    nodes = mesh.nodes.copy()
    nodes[0] += 1e-3  # the center
    moved = dataclasses.replace(mesh, nodes=nodes)
    ri.save_mesh(mesh, tmp_path / "mesh.txt")
    loaded = ri.load_mesh(tmp_path / "mesh.txt")
    assert loaded.theta_step is None
    gamma = 1.0 + 0.5 * np.cos(mesh.interface_theta)
    for other in (moved, loaded):
        K = stiffness_matrix(other, sigma)
        assert fem._theta_wedge(other) is None
        A = condensed_matrix(other, sigma, gamma)
        fresh = _dense_schur(other, K + interface_form_matrix(other, gamma))
        assert np.abs(A - fresh).max() <= 1e-13 * np.abs(fresh).max()


def test_lipschitz_and_stability_stay_on_the_ring(sigma, no_nodal_field):
    mesh = ri.generate_disk_mesh(2, 2, 32)
    report = ri.lipschitz_constant(mesh, sigma, 1.0, 1.5, ri.interface_partition(mesh, 2))
    assert report.complete
    samples = ri.verify_stability(report, mesh, sigma, 3, seed=1, n_modes=4)
    assert len(samples) == 3


def test_nodal_field_keeps_the_ring_values(system_coarse):
    # a field is the solve's ring values plus the recovered interior, for one
    # or k columns; the interior against spsolve is checked above
    mesh = system_coarse.mesh
    G = np.column_stack([np.cos(mesh.boundary_theta), np.sin(2 * mesh.boundary_theta)])
    x_ring = ri.solve_forward(system_coarse, G)
    x = ri.nodal_field(system_coarse, x_ring)
    assert x.shape == (mesh.n_nodes, 2)
    assert np.array_equal(x[np.concatenate([mesh.interface_nodes, mesh.boundary_nodes])], x_ring)
    single = ri.nodal_field(system_coarse, x_ring[:, 0])
    assert np.abs(single - x[:, 0]).max() <= 1e-14 * np.abs(single).max()
    with pytest.raises(ri.ParameterError):
        ri.nodal_field(system_coarse, x_ring[:-1])


def _stacks(mesh, members):
    """A nodal and an arcwise stack of the given number of coefficients."""
    rng = np.random.default_rng(23)
    part = ri.interface_partition(mesh, 4)
    return [
        rng.uniform(0.5, 4.0, (members, mesh.n_interface_nodes)),
        ri.ArcwiseGamma(part, rng.uniform(0.5, 4.0, (members, 4))),
    ]


def _member(gamma, i):
    if isinstance(gamma, ri.ArcwiseGamma):
        return ri.ArcwiseGamma(gamma.partition, gamma.values[i])
    return gamma[i]


def _assert_same(stacked, single):
    assert stacked.shape == single.shape
    assert np.abs(stacked - single).max() <= 1e-14 * np.abs(single).max()


@pytest.mark.parametrize("members, spans", [(1, [1]), (7, [3, 3, 1])])
def test_stacks_match_single_coefficients(mesh_coarse, sigma, monkeypatch, members, spans):
    mesh = mesh_coarse
    n, n_ring = mesh.n_interface_nodes, mesh.n_interface_nodes + mesh.n_boundary_nodes
    monkeypatch.setattr(fem, "_STACK_BYTES", 3 * 8 * n * n)  # three matrices per stack
    rng = np.random.default_rng(5)
    G = rng.standard_normal((mesh.n_boundary_nodes, 3))
    F = rng.standard_normal((n, 2))
    for gamma in _stacks(mesh, members):
        whole = condensed_matrix(mesh, sigma, gamma)
        assert whole.shape == (members, n, n)
        seen = []
        for span, system in fem.assemble_stacks(mesh, sigma, gamma):
            seen.append(span.stop - span.start)
            forms = ri.nd_form_matrix(system, 4).matrix
            own = rng.standard_normal((len(forms), mesh.n_boundary_nodes, 2))  # one load per member
            for i, member in enumerate(range(span.start, span.stop)):
                single = ri.assemble_system(mesh, sigma, _member(gamma, member))
                _assert_same(system.matrix[i], single.matrix)
                _assert_same(whole[member], single.matrix)
                for solve, load in (
                    (ri.solve_forward, G),
                    (ri.solve_adjoint, G),
                    (ri.solve_interface_source, F),
                ):
                    _assert_same(solve(system, load)[i], solve(single, load))
                    _assert_same(solve(system, load[:, 0])[i], solve(single, load[:, :1]))
                _assert_same(ri.solve_forward(system, own)[i], ri.solve_forward(single, own[i]))
                _assert_same(forms[i], ri.nd_form_matrix(single, 4).matrix)
            assert ri.solve_forward(system, G[:, 0]).shape == (len(forms), n_ring, 1)
        assert seen == spans


def test_assemble_stacks_takes_stacks_only(mesh_coarse, sigma):
    with pytest.raises(ri.ParameterError):
        next(fem.assemble_stacks(mesh_coarse, sigma, np.ones(mesh_coarse.n_interface_nodes)))
    with pytest.raises(ri.CoercivityError):  # every member must be coercive
        gamma = np.ones((3, mesh_coarse.n_interface_nodes))
        gamma[2, 5] = 0.0
        next(fem.assemble_stacks(mesh_coarse, sigma, gamma))
