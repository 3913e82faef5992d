"""Output-least-squares reconstruction of the Robin coefficient by BFGS.

The cost is J(gamma) = (1/2) sum_k ||u^{g_k}(gamma) - u_a^{g_k}||^2_{L2(dOmega)}
+ (lambda/2) ||gamma||^2_{L2(Gamma)}; the gradient comes from one adjoint
solve per flux, assembled with the same edge quadrature as the stiffness so
the finite-difference check closes to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import ParameterError
from .fem import (
    GAUSS_W,
    GAUSS_XI,
    Conductivity,
    SparseSystem,
    assemble_system,
    gamma_free_part,
    interface_fn_at_quadrature,
    interface_l2,
    solve_adjoint,
    solve_forward,
    trace_boundary,
    trace_interface,
)
from .mesh import Mesh


@dataclass
class DataSet:
    """Applied currents and the matching (possibly noisy) boundary voltages."""

    fluxes: list
    measurements: list
    noise_level: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if len(self.fluxes) != len(self.measurements):
            raise ParameterError("fluxes and measurements must pair up")


@dataclass
class BfgsOptions:
    gtol: float | None = None  # absolute; default 1e-8 * initial grad norm
    gtol_rel: float = 1e-8
    max_iter: int = 200
    c0: float = 1e-3
    c1: float = 10.0
    armijo_c: float = 1e-4
    max_halvings: int = 40


@dataclass
class BfgsState:
    gamma: np.ndarray
    H: np.ndarray
    history: list = field(default_factory=list)  # (J, grad_inf, step)
    status: str = "max_iter"  # converged | max_iter | line_search_failure


def synthesize_data(mesh: Mesh, sigma: Conductivity, gamma_true, fluxes) -> DataSet:
    """Noise-free synthetic measurements: one batched forward solve of all fluxes."""
    system = assemble_system(mesh, sigma, gamma_true)
    traces = trace_boundary(mesh, solve_forward(system, np.column_stack(fluxes)))
    return DataSet(fluxes=[np.asarray(g, dtype=float) for g in fluxes], measurements=list(traces.T))


def add_noise(data: DataSet, eps: float, seed: int) -> DataSet:
    """Multiplicative noise u * (1 + eps * delta), delta standard normal per node."""
    if eps < 0:
        raise ParameterError("noise level must be >= 0")
    rng = np.random.default_rng(seed)
    noisy = [u * (1.0 + eps * rng.standard_normal(len(u))) for u in data.measurements]
    return DataSet(fluxes=list(data.fluxes), measurements=noisy, noise_level=eps, seed=seed)


def _data_misfit(system: SparseSystem, data: DataSet):
    """Forward solves, residuals, and the data half of the cost.

    States and residuals hold one column per flux; all fluxes share one solve.
    """
    states = solve_forward(system, np.column_stack(data.fluxes))
    residuals = trace_boundary(system.mesh, states) - np.column_stack(data.measurements)
    J_data = 0.5 * float(np.sum(residuals * (system.boundary_mass @ residuals)))
    return states, residuals, J_data


def cost(mesh: Mesh, sigma: Conductivity, gamma, data: DataSet, lam: float = 0.0) -> float:
    system = assemble_system(mesh, sigma, gamma)
    _, _, J_data = _data_misfit(system, data)
    return J_data + 0.5 * lam * interface_l2(system, gamma, gamma)


def _gradient_covector(system: SparseSystem, data: DataSet, lam: float):
    """Exact discrete derivative dJ(gamma; ghat) = ghat @ covector, plus J."""
    mesh = system.mesh
    states, residuals, J_data = _data_misfit(system, data)
    adjoints = solve_adjoint(system, residuals)
    edges = mesh.interface_edges
    length = np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)
    shp = np.stack([1.0 - GAUSS_XI, GAUSS_XI], axis=0)  # (local node, q)
    # sum over fluxes of u v at the edge Gauss points
    uv = sum(
        interface_fn_at_quadrature(mesh, u) * interface_fn_at_quadrature(mesh, v)
        for u, v in zip(trace_interface(mesh, states).T, trace_interface(mesh, adjoints).T)
    )
    # d/dgamma_n of the assembled Robin term, paired with u and v: edge e feeds
    # its first node e and its second node e + 1
    contrib = np.einsum("eq,iq,q->ei", uv * length[:, None], shp, GAUSS_W)
    covector = contrib[:, 0] + np.roll(contrib[:, 1], 1)
    gamma = np.asarray(system.gamma, dtype=float)
    J = J_data + 0.5 * lam * interface_l2(system, gamma, gamma)
    covector = covector + lam * (system.interface_mass @ gamma)
    return J, covector


def gradient(mesh: Mesh, sigma: Conductivity, gamma, data: DataSet, lam: float = 0.0) -> np.ndarray:
    """Riesz representer of the cost derivative in the interface mass inner product."""
    system = assemble_system(mesh, sigma, gamma)
    _, covector = _gradient_covector(system, data, lam)
    return spla.spsolve(system.interface_mass.tocsc(), covector)


def bfgs_minimize(
    mesh: Mesh,
    sigma: Conductivity,
    data: DataSet,
    lam: float,
    gamma_init,
    opts: BfgsOptions | None = None,
) -> BfgsState:
    """Inverse-Hessian BFGS with Armijo backtracking and bound clipping.

    The iterate stays in [c0, c1]; the update is skipped when the curvature
    condition fails, keeping the approximation positive definite. The cost
    history is non-increasing by the acceptance rule.
    """
    opts = opts or BfgsOptions()
    x = np.asarray(gamma_init, dtype=float).copy()
    if len(x) != mesh.n_interface_nodes:
        raise ParameterError("gamma_init must live on the interface nodes")
    if x.min() < opts.c0 or x.max() > opts.c1:
        raise ParameterError("gamma_init violates the admissible bounds")

    n = len(x)
    _, mass, _ = gamma_free_part(mesh, sigma)
    mass_lu = spla.splu(mass.tocsc())

    def evaluate(gamma):
        system = assemble_system(mesh, sigma, gamma)
        J, covector = _gradient_covector(system, data, lam)
        representer = mass_lu.solve(covector)
        return J, covector, representer

    def cost_only(gamma):
        system = assemble_system(mesh, sigma, gamma)
        _, _, J_data = _data_misfit(system, data)
        return J_data + 0.5 * lam * interface_l2(system, gamma, gamma)

    J, grad, rep = evaluate(x)
    grad_inf = float(np.abs(rep).max())
    gtol = opts.gtol if opts.gtol is not None else opts.gtol_rel * grad_inf
    H = np.eye(n)
    state = BfgsState(gamma=x, H=H, history=[(J, grad_inf, 0.0)])

    for _ in range(opts.max_iter):
        if grad_inf <= gtol:
            state.status = "converged"
            return state
        d = -H @ grad
        slope = float(grad @ d)
        if slope >= 0.0:  # safeguard: reset to steepest descent
            H = np.eye(n)
            d = -grad
            slope = float(grad @ d)
        step = 1.0
        accepted = False
        for _halving in range(opts.max_halvings + 1):
            cand = np.clip(x + step * d, opts.c0, opts.c1)
            J_cand = cost_only(cand)
            if J_cand <= J + opts.armijo_c * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            state.status = "line_search_failure"
            return state
        J_new, grad_new, rep_new = evaluate(cand)
        s = cand - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            rho = 1.0 / sy
            V = np.eye(n) - rho * np.outer(s, y)
            H = V @ H @ V.T + rho * np.outer(s, s)
        x, J, grad, rep = cand, J_new, grad_new, rep_new
        grad_inf = float(np.abs(rep).max())
        state.gamma = x
        state.H = H
        state.history.append((J, grad_inf, step))

    if grad_inf <= gtol:
        state.status = "converged"
    return state
