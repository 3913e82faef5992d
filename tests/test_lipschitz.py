import tracemalloc

import numpy as np
import pytest

import robininv as ri
from robininv import cli, fem, lipschitz
from robininv.lipschitz import (
    build_gamma_km,
    compute_gkm,
    gamma_km_arcwise,
    gkm_condition,
    sample_pair,
)
from robininv.locpot import arc_edge_mask, arc_lengths


@pytest.fixture(scope="module")
def full_report(mesh_mid, sigma):
    part = ri.interface_partition(mesh_mid, 4)
    return ri.lipschitz_constant(mesh_mid, sigma, 1.0, 2.0, part), part


def test_compute_K_examples():
    assert ri.compute_K(1.0, 2.0) == 5
    assert ri.compute_K(1.0, 1.1) == 1


def test_compute_K_property_sweep():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a = rng.uniform(0.1, 5.0)
        b = a * rng.uniform(1.001, 10.0)
        K = ri.compute_K(a, b)
        assert K >= 1
        assert b < (K + 4) * a / 4.0 + 1e-9 * a


def test_compute_K_invalid():
    with pytest.raises(ri.ParameterError):
        ri.compute_K(2.0, 1.0)
    with pytest.raises(ri.ParameterError):
        ri.compute_K(0.0, 1.0)


def test_build_gamma_km_values(mesh_coarse):
    part = ri.interface_partition(mesh_coarse, 4)
    gamma = build_gamma_km(1, 1, 1.0, part)
    # (k+5)a/4 = 1.5 on the selected arc, a/2 = 0.5 elsewhere
    assert set(np.round(gamma, 12)) == {1.5, 0.5}
    assert gamma.min() == 0.5
    # the elevated value sits outside [a, b] for k = 1 only through a/2 < a
    arc = gamma_km_arcwise(3, 2, 1.0, part)
    assert arc.values[1] == 2.0
    assert np.all(np.delete(arc.values, 1) == 0.5)


def test_build_gamma_km_index_errors(mesh_coarse):
    part = ri.interface_partition(mesh_coarse, 4)
    with pytest.raises(ri.ParameterError):
        gamma_km_arcwise(0, 1, 1.0, part)
    with pytest.raises(ri.ParameterError):
        gamma_km_arcwise(1, 0, 1.0, part)
    with pytest.raises(ri.ParameterError):
        gamma_km_arcwise(1, 5, 1.0, part)


def test_gkm_condition_values(mesh_mid, sigma):
    part = ri.interface_partition(mesh_mid, 4)
    system = ri.assemble_system(mesh_mid, sigma, gamma_km_arcwise(1, 1, 1.0, part))
    # u == 4 chi on the arc gives exactly (1/2) * 16 * |arc| and no off term,
    # but nodal indicators smear one edge; evaluate the zero trace instead
    zero = np.zeros(mesh_mid.n_interface_nodes)
    assert gkm_condition(system, part, 1, 2.0, zero) == 0.0
    const = np.full(mesh_mid.n_interface_nodes, 4.0)
    mask = arc_edge_mask(part, [0])
    lengths = arc_lengths(system, part)
    expected = 0.5 * 16.0 * lengths[0] - 3.0 * 16.0 * (lengths.sum() - lengths[0])
    assert gkm_condition(system, part, 1, 2.0, const) == pytest.approx(expected, rel=1e-12)
    assert mask.sum() == 16


def test_compute_gkm_invalid(mesh_coarse, sigma):
    part = ri.interface_partition(mesh_coarse, 4)
    with pytest.raises(ri.ParameterError):
        compute_gkm(mesh_coarse, sigma, 0, 1, 1.0, 2.0, part)
    with pytest.raises(ri.ParameterError):
        compute_gkm(mesh_coarse, sigma, 6, 1, 1.0, 2.0, part)
    with pytest.raises(ri.ParameterError):
        compute_gkm(mesh_coarse, sigma, 1, 1, 2.0, 1.0, part)


def test_compute_gkm_achieves_and_reverifies(full_report, mesh_mid, sigma):
    report, part = full_report
    res = compute_gkm(mesh_mid, sigma, 1, 1, 1.0, 2.0, part)
    assert res.achieved and (res.k, res.m) == (1, 1)
    assert res.functional_value >= 1.0
    # independent re-evaluation of the localization condition of every entry
    for e in report.entries:
        system = ri.assemble_system(mesh_mid, sigma, gamma_km_arcwise(e.k, e.m, 1.0, part))
        u = ri.apply_Astar(system, e.g)
        assert gkm_condition(system, part, e.m, 2.0, u) >= 1.0 - 1e-10


def test_full_run_a1_b2(full_report):
    report, part = full_report
    assert report.K == 5
    assert len(report.entries) == 5 * 4
    assert report.complete
    assert all(e.achieved for e in report.entries)
    assert report.G > 0
    assert report.constant_proof == report.G
    assert report.constant_stated == pytest.approx(1.0 / report.G)
    norms = [e.g_norm_sq for e in report.entries]
    assert report.G == max(norms)


def test_single_arc_degenerate(mesh_mid, sigma):
    # M = 2, and M = 1, which leaves no complement arc: the condition is then
    # (1/2) int_Gamma u^2 >= 1
    for n_arcs in (2, 1):
        part = ri.interface_partition(mesh_mid, n_arcs)
        report = ri.lipschitz_constant(mesh_mid, sigma, 1.0, 1.1, part)
        assert report.K == 1
        assert len(report.entries) == n_arcs and report.complete


@pytest.mark.parametrize("rung", [(4, 4, 64), (8, 8, 128), (16, 16, 256)])
def test_single_arc_constant_is_closed_form(rung, sigma):
    # with sigma = (2, 1) and M = 1 the constant current gives the largest
    # interface trace; flux balance on the rings gives ||g||^2 = ((k+5)a/4)^2
    mesh = ri.generate_disk_mesh(*rung)
    report = ri.lipschitz_constant(mesh, sigma, 1.0, 2.0, ri.interface_partition(mesh, 1))
    assert report.complete and report.K == 5
    for e in report.entries:
        assert e.g_norm_sq == pytest.approx(((e.k + 5) / 4.0) ** 2, rel=1e-10)
    assert report.G == pytest.approx(6.25, rel=1e-10)


@pytest.mark.parametrize(
    "rung, n_modes, G",
    [((2, 2, 32), 4, 677.3), ((4, 4, 64), 4, 713.4), ((8, 8, 128), 4, 729.3),
     ((4, 4, 64), 16, 712.8)],
)
def test_constant_on_the_ladder(rung, n_modes, G, sigma):
    # the least norms settle with h, and 4 modes already hold the optimum
    mesh = ri.generate_disk_mesh(*rung)
    part = ri.interface_partition(mesh, 4)
    report = ri.lipschitz_constant(mesh, sigma, 1.0, 2.0, part, n_modes)
    assert report.complete and report.n_modes == n_modes
    assert round(report.G, 1) == G


def test_unreachable_entries_return_the_zero_current(mesh_mid, sigma):
    # with b = 5 the weight 2b/a - 1 = 9 on the rest of Gamma is more than the
    # currents of 1, cos and sin can overcome on a quarter arc
    part = ri.interface_partition(mesh_mid, 4)
    report = ri.lipschitz_constant(mesh_mid, sigma, 1.0, 5.0, part, n_modes=1)
    assert len(report.entries) == 17 * 4
    for e in report.entries:
        assert not e.achieved and e.functional_value == 0.0 and e.g_norm_sq == 0.0
        assert np.all(e.g == 0.0)
    assert not report.complete and report.G is None


def test_condition_holds_as_computed_for_wide_bounds(mesh_mid, sigma):
    # at b = 20 rounding leaves about half of the least-norm currents a few
    # 1e-10 below the condition; every returned current must meet it as
    # computed. Entries k >= 54 have no localizing current in 4 modes.
    part = ri.interface_partition(mesh_mid, 4)
    report = ri.lipschitz_constant(mesh_mid, sigma, 1.0, 20.0, part, n_modes=4)
    achieved = [e for e in report.entries if e.achieved]
    assert len(achieved) == 53 * 4
    for e in report.entries:
        if e.achieved:
            assert 1.0 <= e.functional_value <= 1.0 + 1e-8
        else:
            assert e.functional_value == 0.0 and np.all(e.g == 0.0)


def test_wider_bounds_do_not_shrink_constant(full_report, mesh_mid, sigma):
    r1, part = full_report
    r2 = ri.lipschitz_constant(mesh_mid, sigma, 1.0, 4.0, part)
    assert r2.K == ri.compute_K(1.0, 4.0) == 13
    assert r1.complete and r2.complete
    assert r2.G >= r1.G - 1e-9 * r1.G


def test_sample_pair_bounds():
    rng = np.random.default_rng(5)
    v1, v2 = sample_pair(rng, 4, 1.0, 2.0)
    for v in (v1, v2):
        assert v.shape == (4,)
        assert np.all((v >= 1.0) & (v <= 2.0))


def test_verify_stability_refuses_incomplete(mesh_coarse, sigma):
    part = ri.interface_partition(mesh_coarse, 4)
    report = ri.LipschitzReport(a=1.0, b=2.0, K=5, n_modes=4, partition=part)
    with pytest.raises(ri.ParameterError):
        ri.verify_stability(report, mesh_coarse, sigma, 2, seed=0)


def test_verify_stability_samples(full_report, mesh_mid, sigma):
    report, _ = full_report
    samples = ri.verify_stability(report, mesh_mid, sigma, 10, seed=17)
    assert len(samples) == 10
    for s in samples:
        assert s.nd_diff_norm > 0
        assert np.isfinite(s.ratio)
        assert s.ratio == pytest.approx(s.diff_inf / s.nd_diff_norm)
    # empirical Lipschitz ratios stay below the proof constant with margin
    assert max(s.ratio for s in samples) <= 1.05 * report.G


def test_lockstep_runs_match_single_runs(mesh_coarse, sigma, monkeypatch):
    part = ri.interface_partition(mesh_coarse, 4)
    n, d, p = mesh_coarse.n_interface_nodes, 9, 9  # an arc of 8 edges has 9 nodes
    monkeypatch.setattr(fem, "_SPAN_BYTES", 6 * 8 * n * (p + 2 * d))
    real, sizes = lipschitz.arc_step_traces, []

    def recording(*args):
        for span, U in real(*args):
            sizes.append(len(U))
            yield span, U

    monkeypatch.setattr(lipschitz, "arc_step_traces", recording)
    report = ri.lipschitz_constant(mesh_coarse, sigma, 1.0, 2.0, part)
    assert len(report.entries) == 20 and sizes == [6, 6, 6, 2]
    for e in report.entries:
        single = compute_gkm(mesh_coarse, sigma, e.k, e.m, 1.0, 2.0, part)
        assert (single.k, single.m, single.achieved) == (e.k, e.m, e.achieved)
        assert np.array_equal(single.g, e.g)
        assert single.g_norm_sq == e.g_norm_sq
        assert single.functional_value == e.functional_value
    assert report.G == max(e.g_norm_sq for e in report.entries)


def test_lipschitz_constant_holds_no_dense_arc_matrices(sigma):
    # the Robin blocks of 64 arcs on (4,4,64) are (64, 2, 2): a whole call
    # peaks below the 2 MB that the dense per-arc matrices (64, 64, 64) take
    mesh = ri.generate_disk_mesh(4, 4, 64)
    part = ri.interface_partition(mesh, 64)
    ri.lipschitz_constant(mesh, sigma, 1.0, 2.0, part)  # fills the mesh's caches
    tracemalloc.start()
    try:
        ri.lipschitz_constant(mesh, sigma, 1.0, 2.0, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 64 * 64 * 8


def _condition_gram_out_of_place(mesh, U, on_arc, b_over_a):
    """lipschitz._condition_gram as one expression per term, with its temporaries."""
    weight = np.where(on_arc, 0.5, 1.0 - 2.0 * b_over_a)
    w = (weight * (mesh.interface_edge_lengths / 6.0))[..., None]
    ends = U.take(mesh.interface_next, axis=1)
    DU = w * (2.0 * U + ends)
    DU += (w * (U + 2.0 * ends)).take(mesh.interface_prev, axis=1)
    return np.swapaxes(U, 1, 2) @ DU


def test_condition_gram_in_place_gives_the_same_bits(mesh_coarse, mesh_mid):
    rng = np.random.default_rng(17)
    for mesh in (mesh_coarse, mesh_mid):
        n = mesh.n_interface_nodes
        U = rng.standard_normal((6, n, 9))
        on_arc = rng.random((6, n)) < 0.3
        kept = U.copy()
        for b_over_a in (2.0, 625.75):
            gram = lipschitz._condition_gram(mesh, U, on_arc, b_over_a)
            assert np.array_equal(gram, _condition_gram_out_of_place(mesh, U, on_arc, b_over_a))
        assert np.array_equal(U, kept)


def test_verify_stability_factors_each_gamma_once_and_solves_nothing(
    full_report, mesh_mid, sigma, monkeypatch
):
    report, _ = full_report
    n, d = mesh_mid.n_interface_nodes, 2 * report.n_modes + 1
    span = fem._SPAN_BYTES // (16 * n * n)  # A' and its factor per coefficient
    factored = []  # the shape of each Cholesky call
    solved = []  # the shape of each solve's matrices
    real_cholesky, real_solve = fem.cholesky, np.linalg.solve

    def spy(K):
        factored.append(K.shape)
        return real_cholesky(K)

    def small_solves_only(a, b):
        solved.append(a.shape)
        assert a.shape[-1] < n, "no solve of size n"
        return real_solve(a, b)

    def refuse(*_args, **_kwargs):
        raise AssertionError("no system")

    monkeypatch.setattr(fem, "cholesky", spy)
    monkeypatch.setattr(np.linalg, "solve", small_solves_only)
    monkeypatch.setattr(fem, "assemble_system", refuse)
    samples = ri.verify_stability(report, mesh_mid, sigma, 50, seed=4, n_modes=report.n_modes)
    assert len(samples) == 50 and 2 <= span < 100
    # one n x n factorization per coefficient, in spans of the 100 coefficients
    sizes = [span] * (100 // span) + [100 % span] * (100 % span > 0)
    assert factored == [(size, n, n) for size in sizes]
    # and one stacked solve of the d x d trailing blocks of the factors
    assert solved == [(100, d, d)]


def test_verify_stability_refuses_fewer_modes_than_the_report(full_report, mesh_mid, sigma):
    # G bounds ||gamma1 - gamma2||_inf by the ND difference on the span of the
    # currents g^(km); measured on a smaller span the bound need not hold
    report, _ = full_report
    assert report.n_modes == 4
    with pytest.raises(ri.ParameterError, match="n_modes"):
        ri.verify_stability(report, mesh_mid, sigma, 2, seed=0, n_modes=3)


def test_verify_stability_draws_the_sample_pair_sequence(full_report, mesh_mid, sigma):
    report, part = full_report
    samples = ri.verify_stability(report, mesh_mid, sigma, 10, seed=3)
    rng = np.random.default_rng(3)
    for sample in samples:
        v1, v2 = sample_pair(rng, part.n_arcs, 1.0, 2.0)
        assert np.array_equal(sample.gamma1, v1) and np.array_equal(sample.gamma2, v2)
        F1, F2 = (
            ri.nd_form_matrix(ri.assemble_system(mesh_mid, sigma, ri.ArcwiseGamma(part, v)), 16)
            for v in (v1, v2)
        )
        assert sample.nd_diff_norm == pytest.approx(ri.operator_norm_diff(F1, F2), rel=1e-12)


@pytest.mark.parametrize(
    "rung, n_arcs, b, count", [((2, 2, 32), 2, 1.2, 2), ((4, 4, 64), 4, 20.0, 308)]
)
def test_lipschitz_constant_factors_one_base_matrix(rung, n_arcs, b, count, sigma, monkeypatch):
    # every gamma^(km) is A(a/2) plus a Robin term on one arc: the check of
    # A(a/2) is the only n x n factorization, its factor gives the inverse, and
    # no solve or inverse is n x n
    mesh = ri.generate_disk_mesh(*rung)
    n = mesh.n_interface_nodes
    fem.gamma_free_part(mesh, sigma)  # the (mesh, sigma) set-up is not counted
    factored = []
    real_cholesky, real_inv, real_solve = fem.cholesky, np.linalg.inv, np.linalg.solve

    def cholesky(A):
        factored.append(("cholesky", A.shape))
        return real_cholesky(A)

    def inv(A):
        factored.append(("inv", A.shape))
        return real_inv(A)

    def small_solves_only(A, B):
        assert A.shape[-1] < n, "no solve of size n"
        return real_solve(A, B)

    monkeypatch.setattr(fem, "cholesky", cholesky)
    monkeypatch.setattr(np.linalg, "inv", inv)
    monkeypatch.setattr(np.linalg, "solve", small_solves_only)
    report = ri.lipschitz_constant(mesh, sigma, 1.0, b, ri.interface_partition(mesh, n_arcs))
    assert len(report.entries) == count
    assert factored == [("cholesky", (n, n))]


@pytest.mark.parametrize("poison", [np.nan, -1.0])
def test_bad_base_matrix_exits_2_without_a_report(poison, tmp_path, monkeypatch):
    real = fem.condensed_matrix

    def poisoned(*args, **kwargs):
        A = real(*args, **kwargs)
        A[..., 0, 0] = poison
        return A

    monkeypatch.setattr(fem, "condensed_matrix", poisoned)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_r_inner = 2\nn_r_outer = 2\nn_theta = 32\nn_modes = 4\n")
    out = tmp_path / "out"
    assert cli.main(["lipschitz", "--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "lipschitz_report.csv").exists()
