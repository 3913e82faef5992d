import numpy as np
import pytest

import robininv as ri
from robininv import fem
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


def test_compute_gkm_achieves_and_reverifies(mesh_mid, sigma):
    part = ri.interface_partition(mesh_mid, 4)
    res = compute_gkm(mesh_mid, sigma, 1, 1, 1.0, 2.0, part)
    assert res.achieved
    assert res.functional_value >= 1.0
    # independent re-evaluation of the localization condition
    system = ri.assemble_system(mesh_mid, sigma, gamma_km_arcwise(1, 1, 1.0, part))
    u = ri.apply_Astar(system, res.g)
    assert gkm_condition(system, part, 1, 2.0, u) >= 1.0 - 1e-10


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
    # M = 1 leaves no complement arc: every target covers Gamma, CGNE still runs
    part = ri.interface_partition(mesh_mid, 2)
    report = ri.lipschitz_constant(mesh_mid, sigma, 1.0, 1.1, part)
    assert report.K == 1
    assert len(report.entries) == 2


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
    report = ri.LipschitzReport(a=1.0, b=2.0, K=5, partition=part)
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
    n = mesh_coarse.n_interface_nodes
    monkeypatch.setattr(fem, "_STACK_BYTES", 6 * 8 * n * n)  # stacks of 6, 6, 6 and 2
    report = ri.lipschitz_constant(mesh_coarse, sigma, 1.0, 2.0, part)
    assert len(report.entries) == 20
    singles = [compute_gkm(mesh_coarse, sigma, e.k, e.m, 1.0, 2.0, part) for e in report.entries]
    assert [e.iterations for e in report.entries] == [r.iterations for r in singles]
    assert [e.achieved for e in report.entries] == [r.achieved for r in singles]
    G = max(float(r.g @ (mesh_coarse.boundary_mass @ r.g)) for r in singles if r.achieved)
    assert report.G == pytest.approx(G, rel=1e-9)


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
