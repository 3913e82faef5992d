import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robininv as ri
from robininv import fem, ndmap


def make_system(mesh, sigma, gamma_values):
    return ri.assemble_system(mesh, sigma, gamma_values)


def random_pw_linear(rng, n, lo=0.5, hi=3.0):
    return rng.uniform(lo, hi, size=n)


def test_apply_nd_radial(system_mid):
    mesh = system_mid.mesh
    out = ri.apply_nd(system_mid, np.ones(mesh.n_boundary_nodes))
    assert np.allclose(out, 1.0 + np.log(2.0), atol=5e-3)


def test_apply_nd_linear(system_coarse):
    mesh = system_coarse.mesh
    g = np.sin(3 * mesh.boundary_theta)
    u1 = ri.apply_nd(system_coarse, 2.5 * g)
    u2 = 2.5 * ri.apply_nd(system_coarse, g)
    assert np.allclose(u1, u2, atol=1e-12)


def test_self_adjointness(system_coarse):
    mesh = system_coarse.mesh
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = rng.standard_normal(mesh.n_boundary_nodes)
        h = rng.standard_normal(mesh.n_boundary_nodes)
        lhs = ri.boundary_l2(system_coarse, h, ri.apply_nd(system_coarse, g))
        rhs = ri.boundary_l2(system_coarse, g, ri.apply_nd(system_coarse, h))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_basis_orthonormal(system_mid):
    B = ri.orthonormal_boundary_basis(system_mid.mesh, 8)
    gram = B.T @ (system_mid.mesh.boundary_mass @ B)
    assert np.abs(gram - np.eye(17)).max() < 1e-10


def test_basis_too_large(system_coarse):
    # 2*16+1 = 33 > 32 boundary nodes
    with pytest.raises(ri.ParameterError):
        ri.orthonormal_boundary_basis(system_coarse.mesh, 16)


def test_nd_form_symmetric(system_mid):
    F = ri.nd_form_matrix(system_mid, 10)
    m = F.matrix
    assert np.abs(m - m.T).max() <= 1e-10 * np.abs(m).max()


def test_nd_form_diagonal_for_constant_gamma(system_mid, sigma):
    # concentric geometry decouples the modes, off-diagonals are leakage
    F = ri.nd_form_matrix(system_mid, 6)
    m = F.matrix
    off = np.abs(m - np.diag(np.diag(m))).max()
    assert off < 1e-2 * np.abs(np.diag(m)).max()
    # diagonal entries match the separated radial solutions
    for k in (1, 2, 3):
        A, B, C = ri.analytic_concentric_oracle(k, sigma, 2.0)
        # orthonormal mode: <g, Lambda g> is the boundary value of the trace
        assert m[2 * k - 1, 2 * k - 1] == pytest.approx(B + C, rel=5e-2)


def test_nd_form_invalid_modes(system_coarse):
    with pytest.raises(ri.ParameterError):
        ri.nd_form_matrix(system_coarse, 0)


def test_operator_norm_diff_zero_and_symmetric(system_coarse, mesh_coarse, sigma):
    F1 = ri.nd_form_matrix(system_coarse, 5)
    assert ri.operator_norm_diff(F1, F1) == 0.0
    gamma2 = np.full(mesh_coarse.n_interface_nodes, 3.0)
    F2 = ri.nd_form_matrix(make_system(mesh_coarse, sigma, gamma2), 5)
    d12 = ri.operator_norm_diff(F1, F2)
    assert d12 > 0
    assert d12 == ri.operator_norm_diff(F2, F1)


def test_operator_norm_diff_basis_mismatch(system_coarse):
    F1 = ri.nd_form_matrix(system_coarse, 4)
    F2 = ri.nd_form_matrix(system_coarse, 5)
    with pytest.raises(ri.ParameterError):
        ri.operator_norm_diff(F1, F2)


def test_operator_norm_monotone_in_modes(mesh_mid, sigma):
    theta = mesh_mid.interface_theta
    s1 = make_system(mesh_mid, sigma, np.exp(-np.cos(theta)))
    s2 = make_system(mesh_mid, sigma, np.exp(-np.cos(theta)) + 1.0)
    norms = []
    for n_modes in (4, 8, 16):
        d = ri.operator_norm_diff(
            ri.nd_form_matrix(s1, n_modes), ri.nd_form_matrix(s2, n_modes)
        )
        norms.append(d)
    # nested Galerkin norms: non-decreasing up to eigenvalue rounding
    assert norms[1] >= norms[0] - 1e-10 * norms[0]
    assert norms[2] >= norms[1] - 1e-10 * norms[1]


def test_check_monotonicity_equal(system_coarse):
    lam = ri.check_monotonicity(system_coarse, system_coarse, 6)
    assert abs(lam) < 1e-12


def test_check_monotonicity_constants(mesh_coarse, sigma):
    n = mesh_coarse.n_interface_nodes
    s1 = make_system(mesh_coarse, sigma, np.ones(n))
    s2 = make_system(mesh_coarse, sigma, np.full(n, 2.0))
    assert ri.check_monotonicity(s1, s2, 8) >= -1e-8


def test_check_monotonicity_figure_pair(mesh_mid, sigma):
    theta = mesh_mid.interface_theta
    s1 = make_system(mesh_mid, sigma, np.exp(-np.cos(theta)))
    s2 = make_system(mesh_mid, sigma, np.exp(-np.cos(theta)) + 1.0)
    assert ri.check_monotonicity(s1, s2, 10) >= -1e-8


def test_check_monotonicity_rejects_unordered(mesh_coarse, sigma):
    n = mesh_coarse.n_interface_nodes
    s1 = make_system(mesh_coarse, sigma, np.full(n, 2.0))
    s2 = make_system(mesh_coarse, sigma, np.ones(n))
    with pytest.raises(ri.ParameterError):
        ri.check_monotonicity(s1, s2, 6)


def test_figure_diagonal_ordering(mesh_mid, sigma):
    # <Lambda(gamma1) sin(i.), sin(i.)> >= the same with gamma1 + 1, i = 1..10
    theta = mesh_mid.interface_theta
    s1 = make_system(mesh_mid, sigma, np.exp(-np.cos(theta)))
    s2 = make_system(mesh_mid, sigma, np.exp(-np.cos(theta)) + 1.0)
    bt = mesh_mid.boundary_theta
    for i in range(1, 11):
        g = np.sin(i * bt)
        assert ri.nd_quadratic_form(s1, g) >= ri.nd_quadratic_form(s2, g)


def test_estimate_chain_equal_gammas(system_coarse, mesh_coarse):
    g = np.cos(mesh_coarse.boundary_theta)
    lhs, mid, rhs = ri.monotonicity_estimate_check(system_coarse, system_coarse, g)
    assert abs(lhs) < 1e-12 and abs(mid) < 1e-10 and abs(rhs) < 1e-12


def test_estimate_chain_constants(mesh_coarse, sigma):
    n = mesh_coarse.n_interface_nodes
    s1 = make_system(mesh_coarse, sigma, np.full(n, 2.0))
    s2 = make_system(mesh_coarse, sigma, np.ones(n))
    g = np.cos(mesh_coarse.boundary_theta)
    lhs, mid, rhs = ri.monotonicity_estimate_check(s1, s2, g)
    scale = max(abs(lhs), abs(mid), abs(rhs), 1.0)
    assert lhs >= mid - 1e-8 * scale
    assert mid >= rhs - 1e-8 * scale


def test_estimate_chain_random_sweep(mesh_coarse, sigma):
    rng = np.random.default_rng(20260823)
    n = mesh_coarse.n_interface_nodes
    g = np.sin(2 * mesh_coarse.boundary_theta)
    for _ in range(100):
        s1 = make_system(mesh_coarse, sigma, random_pw_linear(rng, n))
        s2 = make_system(mesh_coarse, sigma, random_pw_linear(rng, n))
        lhs, mid, rhs = ri.monotonicity_estimate_check(s1, s2, g)
        scale = max(abs(lhs), abs(mid), abs(rhs), 1.0)
        assert lhs >= mid - 1e-8 * scale
        assert mid >= rhs - 1e-8 * scale


@pytest.mark.parametrize(
    "verify, message",
    [
        (lambda s1, s2, g: ri.monotonicity_estimate_check(s1, s2, g), "share a mesh"),
        (lambda s1, s2, g: ri.alessandrini_residual(s1, s2, g, g), "share a mesh"),
        (lambda s1, s2, g: ri.check_monotonicity(s1, s2, 4), "share a mesh"),
        (
            lambda s1, s2, g: ri.operator_norm_diff(
                ri.nd_form_matrix(s1, 4), ri.nd_form_matrix(s2, 4)
            ),
            "different bases",
        ),
    ],
    ids=[
        "monotonicity_estimate_check",
        "alessandrini_residual",
        "check_monotonicity",
        "operator_norm_diff",
    ],
)
def test_identity_verifiers_reject_two_meshes(verify, message, system_coarse, mesh_coarse, sigma):
    # a copy with the center and one boundary node moved has the same node and
    # ring counts; the boundary node changes its boundary mass, hence its ND basis
    nodes = mesh_coarse.nodes.copy()
    nodes[0] += 0.1
    nodes[mesh_coarse.boundary_nodes[0]] *= 1.01
    moved = dataclasses.replace(mesh_coarse, nodes=nodes)
    other = make_system(moved, sigma, np.full(moved.n_interface_nodes, 2.0))
    g = np.cos(mesh_coarse.boundary_theta)
    for s1, s2 in ((system_coarse, other), (other, system_coarse)):
        with pytest.raises(ri.ParameterError, match=message):
            verify(s1, s2, g)


def test_alessandrini_equal_gammas(system_coarse, mesh_coarse):
    g = np.cos(mesh_coarse.boundary_theta)
    h = np.sin(mesh_coarse.boundary_theta)
    assert ri.alessandrini_residual(system_coarse, system_coarse, g, h) <= 1e-10


def test_alessandrini_constants(mesh_coarse, sigma):
    n = mesh_coarse.n_interface_nodes
    s1 = make_system(mesh_coarse, sigma, np.ones(n))
    s2 = make_system(mesh_coarse, sigma, np.full(n, 2.0))
    g = np.cos(mesh_coarse.boundary_theta)
    h = np.sin(mesh_coarse.boundary_theta)
    assert ri.alessandrini_residual(s1, s2, g, h) <= 1e-10


def test_alessandrini_random_sweep(mesh_coarse, sigma):
    rng = np.random.default_rng(7)
    n = mesh_coarse.n_interface_nodes
    nb = mesh_coarse.n_boundary_nodes
    for _ in range(50):
        s1 = make_system(mesh_coarse, sigma, random_pw_linear(rng, n))
        s2 = make_system(mesh_coarse, sigma, random_pw_linear(rng, n))
        g = rng.standard_normal(nb)
        h = rng.standard_normal(nb)
        assert ri.alessandrini_residual(s1, s2, g, h) <= 1e-10


def _bordered_form(mesh, sigma, gamma, n_modes):
    """F0 + Z^T A^-1 Z of an arcwise gamma from the bordered factor that nodal
    coefficients take, instead of the basis adapted to Z."""
    Z, F0 = mesh.cache[("nd_terms", sigma, n_modes)]
    stack = gamma if gamma.values.ndim == 2 else fem._members(gamma, None)
    forms = F0 + fem._bordered_forms(mesh, sigma, stack, Z)
    return forms if gamma.values.ndim == 2 else forms[0]


@pytest.mark.parametrize(
    "rung, moved",
    [
        pytest.param((2, 2, 32), False, id="rung0"),
        pytest.param((4, 4, 64), False, id="rung1"),
        pytest.param((8, 8, 128), False, id="rung2"),
        pytest.param((2, 2, 32), True, id="moved"),
    ],
)
def test_form_matches_the_solve_based_reference(rung, moved, sigma):
    # F0 + Z^T A^-1 Z against B^T M Lambda B from solves, for a nodal stack and
    # arcwise stacks on 1, 3 and 4 arcs, and for each of their members alone;
    # an arcwise form from the adapted basis also against the bordered factor.
    # A moved center leaves the mesh without its theta symmetry, so its
    # condensation takes the sparse path.
    mesh = ri.generate_disk_mesh(*rung)
    if moved:
        nodes = mesh.nodes.copy()
        nodes[0] += 1e-3
        mesh = dataclasses.replace(mesh, nodes=nodes)
    rng = np.random.default_rng(rung[2])
    stacks = [rng.uniform(0.5, 3.0, (3, mesh.n_interface_nodes))] + [
        ri.ArcwiseGamma(ri.interface_partition(mesh, arcs), rng.uniform(0.5, 3.0, (3, arcs)))
        for arcs in (1, 3, 4)
    ]
    M = mesh.boundary_mass
    for n_modes in (4, min(16, (mesh.n_boundary_nodes - 1) // 2)):  # 15 modes fit on 32 nodes
        for gamma in stacks:
            for member in (gamma, *(fem._members(gamma, i) for i in range(3))):
                system = ri.assemble_system(mesh, sigma, member)
                F = ri.nd_form_matrix(system, n_modes)
                ref = F.basis.T @ (M @ ri.apply_nd(system, F.basis))
                assert F.matrix.shape == ref.shape
                assert np.abs(F.matrix - ref).max() <= 1e-12 * np.abs(ref).max()
                assert np.array_equal(F.matrix, np.swapaxes(F.matrix, -1, -2))
                if isinstance(member, ri.ArcwiseGamma):
                    bordered = _bordered_form(mesh, sigma, member, n_modes)
                    assert np.abs(F.matrix - bordered).max() <= 1e-12 * np.abs(bordered).max()


@pytest.mark.parametrize("rung", [(2, 2, 32), (4, 4, 64)])
@pytest.mark.parametrize("n_arcs", [1, 4, 16, "n_theta"])
def test_arcwise_forms_of_both_paths_match_the_solve_based_reference(
    rung, n_arcs, sigma, monkeypatch
):
    # the adapted and the bordered path each give F0 + Z^T A^-1 Z of an arcwise
    # stack, and nd_form takes the adapted one where M n <= 64 d
    mesh = ri.generate_disk_mesh(*rung)
    part = ri.interface_partition(mesh, rung[2] if n_arcs == "n_theta" else n_arcs)
    values = np.random.default_rng(part.n_arcs).uniform(0.5, 3.0, (3, part.n_arcs))
    gamma = ri.ArcwiseGamma(part, values)
    taken = []
    for name in ("_adapted_forms", "_bordered_forms"):

        def spy(*args, real=getattr(fem, name), name=name):
            taken.append(name)
            return real(*args)

        monkeypatch.setattr(fem, name, spy)
    system = ri.assemble_system(mesh, sigma, gamma)
    F = ri.nd_form_matrix(system, 4)
    n, d = mesh.n_interface_nodes, 9
    assert taken == ["_adapted_forms" if part.n_arcs * n <= 64 * d else "_bordered_forms"]
    ref = F.basis.T @ (mesh.boundary_mass @ ri.apply_nd(system, F.basis))
    Z, F0 = mesh.cache[("nd_terms", sigma, 4)]
    for forms in (fem._adapted_forms, fem._bordered_forms):
        assert np.abs(F0 + forms(mesh, sigma, gamma, Z) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_nd_form_stays_on_the_ring(system_coarse, no_nodal_field):
    F = ri.nd_form_matrix(system_coarse, 4)
    assert F.matrix.shape == (9, 9)


def test_basis_built_once_per_mesh_and_modes(sigma, monkeypatch):
    mesh = ri.generate_disk_mesh(2, 2, 32)
    calls = []
    real = ndmap._orthonormalize

    def spy(V, M):
        calls.append(V.shape)
        return real(V, M)

    monkeypatch.setattr(ndmap, "_orthonormalize", spy)
    report = ri.lipschitz_constant(mesh, sigma, 1.0, 1.5, ri.interface_partition(mesh, 2))
    samples = ri.verify_stability(report, mesh, sigma, 5, seed=2, n_modes=4)
    assert len(samples) == 5  # 10 ND forms of 2 gammas each
    assert calls == [(32, 9)]  # the Lipschitz currents use the same basis
    # another n_modes, or another mesh, orthonormalizes its own basis once
    ri.verify_stability(report, mesh, sigma, 2, seed=3, n_modes=5)
    other = ri.generate_disk_mesh(2, 2, 32)
    ri.nd_form_matrix(ri.assemble_system(other, sigma, np.ones(32)), 4)
    ri.nd_form_matrix(ri.assemble_system(other, sigma, np.full(32, 2.0)), 4)
    assert calls == [(32, 9), (32, 11), (32, 9)]


def test_cached_basis_is_read_only(system_coarse):
    B = ri.orthonormal_boundary_basis(system_coarse.mesh, 4)
    F = ri.nd_form_matrix(system_coarse, 4)
    assert F.basis is B
    assert not B.flags.writeable
    with pytest.raises(ValueError):
        B[0, 0] = 1.0
    with pytest.raises(ValueError):
        F.basis *= 2.0


@settings(max_examples=25, deadline=None)
@given(
    n_r_inner=st.integers(1, 3),
    n_r_outer=st.integers(1, 3),
    half_theta=st.integers(4, 12),
    moved=st.booleans(),
    arcwise=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_discrete_identities_property(n_r_inner, n_r_outer, half_theta, moved, arcwise, seed):
    mesh = ri.generate_disk_mesh(n_r_inner, n_r_outer, 2 * half_theta)
    if moved:  # no longer rotation invariant: S comes from interior solves by column block
        nodes = mesh.nodes.copy()
        nodes[0] += 1e-3  # the center
        mesh = dataclasses.replace(mesh, nodes=nodes)
    rng = np.random.default_rng(seed)
    sigma = ri.Conductivity(*rng.uniform(0.2, 5.0, size=2))
    if arcwise:
        part = ri.interface_partition(mesh, int(rng.integers(1, 9)))
        n_values, as_gamma = part.n_arcs, lambda v: ri.ArcwiseGamma(part, v)
    else:
        n_values, as_gamma = mesh.n_interface_nodes, lambda v: v
    v1 = rng.uniform(0.05, 10.0, n_values)
    v2 = v1 + rng.uniform(0.0, 5.0, n_values)  # gamma1 <= gamma2
    s1 = ri.assemble_system(mesh, sigma, as_gamma(v1))
    s2 = ri.assemble_system(mesh, sigma, as_gamma(v2))
    nb = mesh.n_boundary_nodes
    g, h = rng.standard_normal((2, nb))

    # <h, Lambda g> = <g, Lambda h>, relative to the Cauchy-Schwarz bound of
    # both sides, so random currents whose pairing cancels do not divide
    # rounding by rounding
    Lg, Lh = ri.apply_nd(s1, g), ri.apply_nd(s1, h)
    lhs, rhs = ri.boundary_l2(s1, h, Lg), ri.boundary_l2(s1, g, Lh)
    scale = max(
        ri.boundary_norm(s1, h) * ri.boundary_norm(s1, Lg),
        ri.boundary_norm(s1, g) * ri.boundary_norm(s1, Lh),
    )
    assert abs(lhs - rhs) <= 1e-10 * scale
    assert ri.alessandrini_residual(s1, s2, g, h) <= 1e-10
    n_modes = min(10, (nb - 1) // 2)
    F1 = ri.nd_form_matrix(s1, n_modes)
    scale = np.abs(np.linalg.eigvalsh(0.5 * (F1.matrix + F1.matrix.T))).max()
    assert ri.check_monotonicity(s1, s2, n_modes) >= -1e-8 * scale
