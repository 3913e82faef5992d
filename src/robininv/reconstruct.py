"""Output-least-squares reconstruction of the Robin coefficient by BFGS.

The cost is J(gamma) = (1/2) sum_k ||u^{g_k}(gamma) - u_a^{g_k}||^2_{L2(dOmega)}
+ (lambda/2) ||gamma||^2_{L2(Gamma)}; the gradient comes from one adjoint
solve per flux, assembled with the same edge quadrature as the stiffness so
the finite-difference check closes to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .fem import (
    GAUSS_SHAPE,
    GAUSS_W,
    Conductivity,
    assemble_system,
    interface_fn_at_quadrature,
    interface_l2,
    solve_adjoint,
    solve_forward,
    trace_boundary,
    trace_interface,
)
from .mesh import Mesh

GTOL_REL = 1e-8  # default gtol, relative to the initial gradient norm
ARMIJO_C = 1e-4  # sufficient-decrease constant of the Armijo test
MAX_HALVINGS = 40  # step halvings before a line search fails
# a line search stalls once the decrease the Armijo test asks for,
# ARMIJO_C * step * |slope|, falls below STALL_ULPS rounding units of |J|
STALL_ULPS = 8.0


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
    gtol: float | None = None  # absolute; default GTOL_REL * initial grad norm
    max_iter: int = 200
    c0: float = 1e-3
    c1: float = 10.0


@dataclass
class BfgsState:
    gamma: np.ndarray
    history: list = field(default_factory=list)  # (J, grad_inf, step)
    status: str = "max_iter"  # converged | max_iter | line_search_failure | stalled


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


def _evaluate(mesh: Mesh, sigma: Conductivity, gamma, data: DataSet, lam: float):
    """J(gamma), and a function that returns the covector of its derivative:
    dJ(gamma; ghat) = ghat @ covector().

    All fluxes share one forward solve, and the covector costs one adjoint
    solve on the same system, states and residuals, which live as long as
    the function does.
    """
    system = assemble_system(mesh, sigma, gamma)
    states = solve_forward(system, np.column_stack(data.fluxes))
    residuals = trace_boundary(mesh, states) - np.column_stack(data.measurements)
    J_data = 0.5 * float(np.sum(residuals * (mesh.boundary_mass @ residuals)))
    gamma = np.asarray(gamma, dtype=float)
    J = J_data + 0.5 * lam * interface_l2(system, gamma, gamma)

    def covector() -> np.ndarray:
        adjoints = solve_adjoint(system, residuals)
        uq = interface_fn_at_quadrature(mesh, trace_interface(mesh, states))
        vq = interface_fn_at_quadrature(mesh, trace_interface(mesh, adjoints))
        # sum over fluxes of u v at the edge Gauss points, times the rule's weights
        uvw = (uq * vq).sum(axis=2) * GAUSS_W * mesh.interface_edge_lengths[:, None]
        # d/dgamma_n of the assembled Robin term, paired with u and v: edge e
        # feeds its first node e and its second node e + 1
        contrib = uvw @ GAUSS_SHAPE.T  # (E, local node)
        robin = contrib[:, 0] + contrib[mesh.interface_prev, 1]
        return robin + lam * (mesh.interface_mass @ gamma)

    return J, covector


def _riesz_map(mesh: Mesh):
    """covector -> its Riesz representer in the L2(Gamma) inner product (inverse interface mass)."""
    return np.linalg.inv(mesh.interface_mass).__matmul__


def _update_inverse_hessian(H: np.ndarray, s: np.ndarray, y: np.ndarray, rho: float) -> None:
    """H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T in place, as a rank-two update.

    H - rho (s (Hy)^T + (Hy) s^T) + (rho^2 y^T H y + rho) s s^T, Nocedal & Wright eq. 6.17.
    """
    Hy = H @ y
    H += np.outer((rho * rho * float(y @ Hy) + rho) * s - rho * Hy, s)
    H -= rho * np.outer(s, Hy)


def cost(mesh: Mesh, sigma: Conductivity, gamma, data: DataSet, lam: float = 0.0) -> float:
    return _evaluate(mesh, sigma, gamma, data, lam)[0]


def gradient(mesh: Mesh, sigma: Conductivity, gamma, data: DataSet, lam: float = 0.0) -> np.ndarray:
    """Riesz representer of the cost derivative in the interface mass inner product."""
    return _riesz_map(mesh)(_evaluate(mesh, sigma, gamma, data, lam)[1]())


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
    history is non-increasing by the acceptance rule. A line search that
    would compare costs at rounding level ends the run as ``stalled``.
    """
    opts = opts or BfgsOptions()
    x = np.asarray(gamma_init, dtype=float).copy()
    if len(x) != mesh.n_interface_nodes:
        raise ParameterError("gamma_init must live on the interface nodes")
    if x.min() < opts.c0 or x.max() > opts.c1:
        raise ParameterError("gamma_init violates the admissible bounds")

    n = len(x)
    riesz = _riesz_map(mesh)

    J, covector_at = _evaluate(mesh, sigma, x, data, lam)
    grad = covector_at()
    rep = riesz(grad)
    del covector_at  # no factor is kept alive while the next line search runs
    grad_inf = float(np.abs(rep).max())
    gtol = opts.gtol if opts.gtol is not None else GTOL_REL * grad_inf
    H = np.eye(n)
    state = BfgsState(gamma=x, history=[(J, grad_inf, 0.0)])

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
        for _halving in range(MAX_HALVINGS + 1):
            if ARMIJO_C * step * abs(slope) < STALL_ULPS * np.finfo(float).eps * abs(J):
                state.status = "stalled"
                return state
            cand = np.clip(x + step * d, opts.c0, opts.c1)
            J_cand, covector_at = _evaluate(mesh, sigma, cand, data, lam)
            if J_cand <= J + ARMIJO_C * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            state.status = "line_search_failure"
            return state
        grad_new = covector_at()
        rep_new = riesz(grad_new)
        del covector_at
        s = cand - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            _update_inverse_hessian(H, s, y, 1.0 / sy)
        x, J, grad, rep = cand, J_cand, grad_new, rep_new
        grad_inf = float(np.abs(rep).max())
        state.gamma = x
        state.history.append((J, grad_inf, step))

    if grad_inf <= gtol:
        state.status = "converged"
    return state
