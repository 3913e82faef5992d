import numpy as np
import pytest

import robininv as ri
from robininv import fem, reconstruct
from robininv.cli import flux_set, gamma_selector


@pytest.fixture(scope="module")
def example1_setup(mesh_mid, sigma):
    gamma_true = gamma_selector("example1", mesh_mid.interface_theta)
    fluxes = flux_set("example1", mesh_mid.boundary_theta)
    data = ri.synthesize_data(mesh_mid, sigma, gamma_true, fluxes)
    return gamma_true, data


def test_synthesize_radial(mesh_mid, sigma):
    gamma = np.full(mesh_mid.n_interface_nodes, 2.0)
    data = ri.synthesize_data(mesh_mid, sigma, gamma, [np.ones(mesh_mid.n_boundary_nodes)])
    assert np.allclose(data.measurements[0], 1.0 + np.log(2.0), atol=5e-3)
    assert data.noise_level == 0.0


def test_synthesize_linear_in_flux(mesh_coarse, sigma):
    gamma = np.full(mesh_coarse.n_interface_nodes, 1.5)
    g = np.cos(mesh_coarse.boundary_theta)
    d1 = ri.synthesize_data(mesh_coarse, sigma, gamma, [g])
    d2 = ri.synthesize_data(mesh_coarse, sigma, gamma, [3.0 * g])
    assert np.allclose(d2.measurements[0], 3.0 * d1.measurements[0], atol=1e-12)


def test_dataset_pairing_enforced():
    with pytest.raises(ri.ParameterError):
        ri.DataSet(fluxes=[np.ones(4)], measurements=[])


def test_add_noise_zero_eps(example1_setup):
    _, data = example1_setup
    noisy = ri.add_noise(data, 0.0, seed=1)
    for u, v in zip(data.measurements, noisy.measurements):
        assert np.array_equal(u, v)


def test_add_noise_deterministic_and_scaled(example1_setup):
    _, data = example1_setup
    n1 = ri.add_noise(data, 0.05, seed=7)
    n2 = ri.add_noise(data, 0.05, seed=7)
    n3 = ri.add_noise(data, 0.05, seed=8)
    for a, b in zip(n1.measurements, n2.measurements):
        assert np.array_equal(a, b)
    assert any(
        not np.array_equal(a, b) for a, b in zip(n1.measurements, n3.measurements)
    )
    # relative perturbation statistics match the noise level over many nodes
    rel = np.concatenate(
        [(a - u) / u for a, u in zip(n1.measurements, data.measurements)]
    )
    assert rel.size >= 150
    assert abs(rel.std() - 0.05) < 0.2 * 0.05


def test_add_noise_rejects_negative(example1_setup):
    _, data = example1_setup
    with pytest.raises(ri.ParameterError):
        ri.add_noise(data, -0.1, seed=0)


def test_cost_at_truth_is_regularizer_only(mesh_mid, sigma, example1_setup):
    gamma_true, data = example1_setup
    assert ri.cost(mesh_mid, sigma, gamma_true, data) <= 1e-18
    lam = 0.3
    c = np.full(mesh_mid.n_interface_nodes, 2.0)
    data_c = ri.synthesize_data(mesh_mid, sigma, c, [np.ones(mesh_mid.n_boundary_nodes)])
    # misfit vanishes, so only (lam/2) c^2 |Gamma| remains (polygonal length)
    length = 64 * 2 * 0.5 * np.sin(np.pi / 64)
    expected = 0.5 * lam * 4.0 * length
    assert ri.cost(mesh_mid, sigma, c, data_c, lam) == pytest.approx(expected, rel=1e-10)


def test_cost_continuity(mesh_coarse, sigma):
    gamma = np.full(mesh_coarse.n_interface_nodes, 2.0)
    data = ri.synthesize_data(mesh_coarse, sigma, gamma, [np.ones(mesh_coarse.n_boundary_nodes)])
    base = ri.cost(mesh_coarse, sigma, gamma * 1.001, data)
    closer = ri.cost(mesh_coarse, sigma, gamma * 1.0001, data)
    assert 0 < closer < base


def test_gradient_zero_at_truth(mesh_mid, sigma, example1_setup):
    gamma_true, data = example1_setup
    g = ri.gradient(mesh_mid, sigma, gamma_true, data)
    assert np.abs(g).max() < 1e-9


def test_gradient_regularizer_only(mesh_mid, sigma):
    # with perfectly matched data the gradient reduces to lam * gamma
    gamma = np.full(mesh_mid.n_interface_nodes, 2.0)
    data = ri.synthesize_data(mesh_mid, sigma, gamma, [np.ones(mesh_mid.n_boundary_nodes)])
    lam = 0.7
    g = ri.gradient(mesh_mid, sigma, gamma, data, lam)
    assert np.allclose(g, lam * gamma, atol=1e-9)


def test_gradient_finite_difference(mesh_coarse, sigma):
    rng = np.random.default_rng(2024)
    n = mesh_coarse.n_interface_nodes
    g_flux = np.cos(mesh_coarse.boundary_theta)
    t = 1e-5
    for _ in range(20):
        gamma = rng.uniform(0.8, 2.5, size=n)
        gamma_true = rng.uniform(0.8, 2.5, size=n)
        data = ri.synthesize_data(mesh_coarse, sigma, gamma_true, [g_flux])
        lam = float(rng.uniform(0.0, 0.5))
        direction = rng.standard_normal(n)
        system = ri.assemble_system(mesh_coarse, sigma, gamma)
        rep = ri.gradient(mesh_coarse, sigma, gamma, data, lam)
        analytic = ri.interface_l2(system, rep, direction)
        fd = (
            ri.cost(mesh_coarse, sigma, gamma + t * direction, data, lam)
            - ri.cost(mesh_coarse, sigma, gamma - t * direction, data, lam)
        ) / (2.0 * t)
        assert abs(analytic - fd) <= 1e-5 * max(abs(fd), 1.0)


def test_bfgs_validates_init(mesh_coarse, sigma, example1_setup):
    _, data = example1_setup
    with pytest.raises(ri.ParameterError):
        ri.bfgs_minimize(mesh_coarse, sigma, data, 0.0, np.ones(5))
    bad = np.full(mesh_coarse.n_interface_nodes, 20.0)
    with pytest.raises(ri.ParameterError):
        ri.bfgs_minimize(mesh_coarse, sigma, data, 0.0, bad)


def test_bfgs_stationary_start(mesh_mid, sigma, example1_setup):
    gamma_true, data = example1_setup
    state = ri.bfgs_minimize(mesh_mid, sigma, data, 0.0, gamma_true)
    assert state.status == "converged"
    assert len(state.history) <= 2
    assert np.allclose(state.gamma, gamma_true, atol=1e-10)


@pytest.mark.parametrize("init_name", ["expinit", "constant:1"])
def test_bfgs_example1_noise_free(mesh_mid, sigma, example1_setup, init_name):
    gamma_true, data = example1_setup
    init = gamma_selector(init_name, mesh_mid.interface_theta)
    state = ri.bfgs_minimize(mesh_mid, sigma, data, 0.0, init)
    system = ri.assemble_system(mesh_mid, sigma, gamma_true)
    err = state.gamma - gamma_true
    rel = np.sqrt(
        ri.interface_l2(system, err, err) / ri.interface_l2(system, gamma_true, gamma_true)
    )
    assert rel <= 0.05
    # cost history is non-increasing and the gradient norm collapses
    J_hist = [h[0] for h in state.history]
    assert all(b <= a + 1e-15 for a, b in zip(J_hist, J_hist[1:]))
    assert state.history[-1][1] <= 1e-3 * state.history[0][1]


def test_bfgs_example2(mesh_mid, sigma):
    gamma_true = gamma_selector("example2", mesh_mid.interface_theta)
    fluxes = flux_set("example2", mesh_mid.boundary_theta)
    data = ri.synthesize_data(mesh_mid, sigma, gamma_true, fluxes)
    init = np.ones(mesh_mid.n_interface_nodes)
    state = ri.bfgs_minimize(mesh_mid, sigma, data, 0.0, init)
    system = ri.assemble_system(mesh_mid, sigma, gamma_true)
    err = state.gamma - gamma_true
    rel = np.sqrt(
        ri.interface_l2(system, err, err) / ri.interface_l2(system, gamma_true, gamma_true)
    )
    assert rel <= 0.05


def test_bfgs_noisy_costs_non_increasing(mesh_coarse, sigma):
    gamma_true = gamma_selector("example1", mesh_coarse.interface_theta)
    fluxes = flux_set("example1", mesh_coarse.boundary_theta)
    data = ri.add_noise(ri.synthesize_data(mesh_coarse, sigma, gamma_true, fluxes), 0.05, seed=3)
    init = np.ones(mesh_coarse.n_interface_nodes)
    state = ri.bfgs_minimize(
        mesh_coarse, sigma, data, 0.0, init, ri.BfgsOptions(max_iter=40)
    )
    J_hist = [h[0] for h in state.history]
    assert all(b <= a + 1e-15 for a, b in zip(J_hist, J_hist[1:]))


def test_bfgs_deterministic(mesh_coarse, sigma):
    gamma_true = gamma_selector("example1", mesh_coarse.interface_theta)
    fluxes = flux_set("example1", mesh_coarse.boundary_theta)
    data = ri.synthesize_data(mesh_coarse, sigma, gamma_true, fluxes)
    init = np.ones(mesh_coarse.n_interface_nodes)
    s1 = ri.bfgs_minimize(mesh_coarse, sigma, data, 0.0, init, ri.BfgsOptions(max_iter=15))
    s2 = ri.bfgs_minimize(mesh_coarse, sigma, data, 0.0, init, ri.BfgsOptions(max_iter=15))
    assert np.array_equal(s1.gamma, s2.gamma)
    assert s1.history == s2.history


def test_bfgs_factors_each_candidate_once(mesh_coarse, sigma, monkeypatch):
    calls = []
    real = fem.cholesky

    def spy(A):
        calls.append(A.tobytes())
        return real(A)

    monkeypatch.setattr(fem, "cholesky", spy)
    init = np.ones(mesh_coarse.n_interface_nodes)
    cases = (("example1", 0.1, 2, "stalled"), ("example2", 0.0, 0, "max_iter"))
    for which, eps, seed, status in cases:
        gamma_true = gamma_selector(which, mesh_coarse.interface_theta)
        fluxes = flux_set(which, mesh_coarse.boundary_theta)
        clean = ri.synthesize_data(mesh_coarse, sigma, gamma_true, fluxes)
        data = ri.add_noise(clean, eps, seed)
        calls.clear()
        state = ri.bfgs_minimize(mesh_coarse, sigma, data, 0.0, init, ri.BfgsOptions(max_iter=40))
        assert state.status == status
        assert len(set(calls)) == len(calls)  # no candidate is assembled twice
        # an accepted step 0.5**h was the (h + 1)-th line-search candidate
        candidates = sum(round(-np.log2(step)) + 1 for _, _, step in state.history[1:])
        assert candidates > len(state.history)  # some line searches halved
        # the start, then each candidate once: the accepted one's gradient reuses its system
        if status == "stalled":
            # the last line search stopped before its Armijo test reached
            # rounding level, after at most MAX_HALVINGS candidates
            assert 1 + candidates <= len(calls) <= 1 + candidates + reconstruct.MAX_HALVINGS
        else:
            assert len(calls) == 1 + candidates


def test_bfgs_stays_on_the_ring(mesh_coarse, sigma, no_nodal_field):
    gamma_true = gamma_selector("example1", mesh_coarse.interface_theta)
    fluxes = flux_set("example1", mesh_coarse.boundary_theta)
    data = ri.synthesize_data(mesh_coarse, sigma, gamma_true, fluxes)
    init = np.ones(mesh_coarse.n_interface_nodes)
    state = ri.bfgs_minimize(mesh_coarse, sigma, data, 0.0, init, ri.BfgsOptions(max_iter=2))
    assert len(state.history) == 3


def test_rank_two_update_matches_the_product_form():
    rng = np.random.default_rng(5)
    for n in (3, 32, 64):
        X = rng.standard_normal((n, n))
        H = X @ X.T + np.eye(n)
        s, y = rng.standard_normal((2, n))
        y += 2.0 * s  # s @ y > 0, as the curvature condition asks
        rho = 1.0 / (s @ y)
        V = np.eye(n) - rho * np.outer(s, y)
        expected = V @ H @ V.T + rho * np.outer(s, s)
        reconstruct._update_inverse_hessian(H, s, y, rho)
        assert np.abs(H - expected).max() <= 1e-12 * np.abs(expected).max()
