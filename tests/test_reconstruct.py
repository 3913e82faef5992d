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


def _example_data(mesh, sigma, which, eps, seed):
    gamma_true = gamma_selector(which, mesh.interface_theta)
    fluxes = flux_set(which, mesh.boundary_theta)
    return ri.add_noise(ri.synthesize_data(mesh, sigma, gamma_true, fluxes), eps, seed)


def test_bfgs_factors_each_candidate_once(mesh_coarse, sigma, monkeypatch):
    checked = []  # every matrix checked, one per member of a stack
    real = fem.cholesky

    def spy(A):
        checked.extend(M.tobytes() for M in A.reshape((-1,) + A.shape[-2:]))
        return real(A)

    def bounds(state):
        """Least and most matrices that a run of this history checks."""
        # an accepted step 0.5**h was the (h + 1)-th line-search candidate
        candidates = sum(round(-np.log2(step)) + 1 for _, _, step in state.history[1:])
        assert candidates > len(state.history)  # some line searches halved
        # the start, then each candidate once: the accepted one's gradient reuses its system
        if state.status == "stalled":
            # the last line search stopped before its Armijo test reached
            # rounding level, after at most MAX_HALVINGS candidates
            return 1 + candidates, 1 + candidates + reconstruct.MAX_HALVINGS
        return 1 + candidates, 1 + candidates

    def small_solves_only(A, B):
        # every solve of size n solves with the kept factor of the check
        assert A.shape[-1] < mesh_coarse.n_interface_nodes, "no solve of size n"
        return real_solve(A, B)

    real_solve = np.linalg.solve
    monkeypatch.setattr(fem, "cholesky", spy)
    monkeypatch.setattr(np.linalg, "solve", small_solves_only)
    theta = mesh_coarse.interface_theta
    init = np.ones(mesh_coarse.n_interface_nodes)
    opts = ri.BfgsOptions(max_iter=40)
    cases = (("example1", 0.1, 2, "stalled"), ("example2", 0.0, 0, "max_iter"))
    for which, eps, seed, status in cases:
        data = _example_data(mesh_coarse, sigma, which, eps, seed)
        checked.clear()
        state = ri.bfgs_minimize(mesh_coarse, sigma, data, 0.0, init, opts)
        assert state.status == status
        assert len(set(checked)) == len(checked)  # no candidate is assembled twice
        low, high = bounds(state)
        assert low <= len(checked) <= high

    # the max_iter case and a run that stalls on the same currents, from
    # another start, as one stack: each member checks what it checks alone
    members = [
        (_example_data(mesh_coarse, sigma, "example2", eps, seed), start)
        for eps, seed, start in ((0.0, 0, init), (0.05, 2, gamma_selector("expinit", theta)))
    ]
    alone = []
    for data, start in members:
        checked.clear()
        alone.append((ri.bfgs_minimize(mesh_coarse, sigma, data, 0.0, start, opts), len(checked)))
    checked.clear()
    measurements = [np.column_stack(data.measurements) for data, _ in members]
    starts = [start for _, start in members]
    fluxes = members[0][0].fluxes
    states = ri.bfgs_lockstep(mesh_coarse, sigma, fluxes, measurements, 0.0, starts, opts)
    assert [state.status for state in states] == ["max_iter", "stalled"]
    assert len(set(checked)) == len(checked)
    assert len(checked) == sum(count for _, count in alone)
    low, high = np.sum([bounds(state) for state in states], axis=0)
    assert low <= len(checked) <= high


def test_lockstep_members_match_single_runs(mesh_coarse, sigma, monkeypatch):
    n = mesh_coarse.n_interface_nodes
    gamma_true = gamma_selector("example2", mesh_coarse.interface_theta)
    clean = _example_data(mesh_coarse, sigma, "example2", 0.0, 0)
    # (data, start): a stationary start, a run to max_iter, and two noisy runs
    # that stall at different iterations
    members = [
        (clean, gamma_true),
        (clean, np.ones(n)),
        (ri.add_noise(clean, 0.05, 2), gamma_selector("expinit", mesh_coarse.interface_theta)),
        (ri.add_noise(clean, 0.1, 0), np.ones(n)),
    ]
    opts = ri.BfgsOptions(max_iter=40)
    alone = [ri.bfgs_minimize(mesh_coarse, sigma, data, 0.0, start, opts) for data, start in members]
    assert [state.status for state in alone] == ["converged", "max_iter", "stalled", "stalled"]
    assert len({len(state.history) for state in alone}) == len(alone)
    measurements = [np.column_stack(data.measurements) for data, _ in members]
    starts = [start for _, start in members]

    sizes = []
    real = fem.cholesky

    def spy(A):
        assert A.nbytes <= fem._SPAN_BYTES
        sizes.append(len(A))
        return real(A)

    monkeypatch.setattr(fem, "cholesky", spy)
    # one stack of four, then stacks of at most two matrices
    for stack_bytes, most in ((fem._SPAN_BYTES, 4), (2 * n * n * 8, 2)):
        monkeypatch.setattr(fem, "_SPAN_BYTES", stack_bytes)
        sizes.clear()
        states = ri.bfgs_lockstep(mesh_coarse, sigma, clean.fluxes, measurements, 0.0, starts, opts)
        assert max(sizes) == most
        for state, single in zip(states, alone):
            assert state.status == single.status
            assert state.history == single.history
            assert np.array_equal(state.gamma, single.gamma)
    one = ri.bfgs_lockstep(
        mesh_coarse, sigma, clean.fluxes, measurements[2:3], 0.0, starts[2:3], opts
    )
    assert len(one) == 1 and one[0].history == alone[2].history
    assert np.array_equal(one[0].gamma, alone[2].gamma)


def test_lockstep_validates_its_stack(mesh_coarse, sigma):
    data = _example_data(mesh_coarse, sigma, "example2", 0.0, 0)
    n = mesh_coarse.n_interface_nodes
    measured = np.column_stack(data.measurements)
    starts = np.ones((2, n))
    for bad_starts, bad_measured in (
        (np.ones((0, n)), measured[None][:0]),  # an empty stack
        (np.ones((2, n + 1)), [measured, measured]),
        (starts, [measured]),  # one measurement for two members
        (starts, [measured[:, :2], measured[:, :2]]),  # two currents measured of three
    ):
        with pytest.raises(ri.ParameterError):
            ri.bfgs_lockstep(mesh_coarse, sigma, data.fluxes, bad_measured, 0.0, bad_starts)


def test_negative_regularisation_weight_rejected(mesh_coarse, sigma):
    data = _example_data(mesh_coarse, sigma, "example2", 0.0, 0)
    gamma = np.ones(mesh_coarse.n_interface_nodes)
    for lam in (-1.0, float("nan")):
        with pytest.raises(ri.ParameterError, match="lambda"):
            ri.cost(mesh_coarse, sigma, gamma, data, lam)
        with pytest.raises(ri.ParameterError, match="lambda"):
            ri.bfgs_minimize(mesh_coarse, sigma, data, lam, gamma)


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
