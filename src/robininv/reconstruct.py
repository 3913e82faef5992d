"""Output-least-squares reconstruction of the Robin coefficient by BFGS.

The cost is J(gamma) = (1/2) sum_k ||u^{g_k}(gamma) - u_a^{g_k}||^2_{L2(dOmega)}
+ (lambda/2) ||gamma||^2_{L2(Gamma)}; the gradient comes from one adjoint
solve per flux, paired with the state by ``fem.robin_covector``, the exact
transpose of the assembled Robin term, so the finite-difference check
closes to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError
from .fem import (
    Conductivity,
    SparseSystem,
    assemble_stacks,
    assemble_system,
    robin_covector,
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
_EPS = float(np.finfo(float).eps)


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


def _evaluate(system: SparseSystem, fluxes: np.ndarray, measurements: np.ndarray, lam: float):
    """J at every member of a system stack, and a function that returns the
    covectors of its derivative at the members index, one row each:
    dJ_i(gamma_i; ghat) = ghat @ covector(index)[j] for i = index[j].

    Every member takes the currents fluxes (n_dOmega, k) and is measured as
    measurements[i] (n_dOmega, k): one stacked forward solve serves them all.
    The covectors cost one stacked adjoint solve on the same systems, states
    and residuals, which live as long as the function does.
    """
    if not lam >= 0.0:  # also rejects NaN
        raise ParameterError("lambda must be >= 0")
    mesh = system.mesh
    gamma = system.gamma
    states = solve_forward(system, fluxes)
    residuals = trace_boundary(mesh, states) - measurements
    M_B, M_G = mesh.boundary_mass, mesh.interface_mass
    if not residuals.any() and fluxes.any():  # J = 0: from data without W x_G, the gamma part?
        if (measurements == system.part.S_BB_inv @ (M_B @ fluxes)).all():
            raise NumericalError("rounding erases W x_G, the gamma part of the boundary values")
    M_G_gamma = (M_G @ gamma[..., None])[..., 0]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        misfit = (residuals * (M_B @ residuals)).reshape(len(gamma), -1).sum(axis=1)
        J = 0.5 * misfit + 0.5 * lam * (gamma * M_G_gamma).sum(axis=1)
    if not np.isfinite(J).all():  # e.g. measurements so large that their squares overflow
        raise NumericalError("the cost is not finite")
    J = J.tolist()

    def covector(index) -> np.ndarray:
        members = system if len(index) == len(J) else system.members(index)
        adjoints = solve_adjoint(members, residuals[index])
        robin = robin_covector(
            mesh, trace_interface(mesh, states[index]), trace_interface(mesh, adjoints)
        )
        return robin + lam * M_G_gamma[index]

    return J, covector


def _stack_of_one(mesh: Mesh, sigma: Conductivity, gamma, data: DataSet):
    """The arguments of :func:`_evaluate` for one gamma, as a stack of one."""
    system = assemble_system(mesh, sigma, np.asarray(gamma, dtype=float)[None])
    return system, np.column_stack(data.fluxes), np.column_stack(data.measurements)[None]


def _riesz_map(mesh: Mesh):
    """covector -> its Riesz representer in the L2(Gamma) inner product (inverse interface mass)."""
    return np.linalg.inv(mesh.interface_mass).__matmul__


def _update_inverse_hessian(H: np.ndarray, s: np.ndarray, y: np.ndarray, rho: float) -> None:
    """H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T in place, as a rank-two update.

    H - rho (s (Hy)^T + (Hy) s^T) + (rho^2 y^T H y + rho) s s^T, Nocedal & Wright eq. 6.17.
    """
    Hy = H @ y
    H += ((rho * rho * float(y @ Hy) + rho) * s - rho * Hy)[:, None] * s
    H -= (rho * s)[:, None] * Hy


def cost(mesh: Mesh, sigma: Conductivity, gamma, data: DataSet, lam: float = 0.0) -> float:
    J, _ = _evaluate(*_stack_of_one(mesh, sigma, gamma, data), lam)
    return J[0]


def gradient(mesh: Mesh, sigma: Conductivity, gamma, data: DataSet, lam: float = 0.0) -> np.ndarray:
    """Riesz representer of the cost derivative in the interface mass inner product."""
    _, covector = _evaluate(*_stack_of_one(mesh, sigma, gamma, data), lam)
    return _riesz_map(mesh)(covector([0])[0])


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
    This is :func:`bfgs_lockstep` on a stack of one.
    """
    starts = np.asarray(gamma_init, dtype=float)[None]
    measurements = np.column_stack(data.measurements)[None]
    return bfgs_lockstep(mesh, sigma, data.fluxes, measurements, lam, starts, opts)[0]


def bfgs_lockstep(
    mesh: Mesh,
    sigma: Conductivity,
    fluxes,
    measurements,
    lam: float,
    gamma_init,
    opts: BfgsOptions | None = None,
) -> list:
    """:func:`bfgs_minimize` for every member of a stack, in lockstep.

    Member i starts at gamma_init[i] (s, n_Gamma) and fits measurements[i]
    (s, n_dOmega, k), its voltages for the k shared currents fluxes. Each
    round evaluates the line-search candidates of all running members with
    one stacked assembly (cut by :func:`assemble_stacks`) and one stacked
    forward solve, then the covectors of the members that accept their
    candidate with one stacked adjoint solve. Each member runs
    :func:`_bfgs_member` and stops on its own, so its :class:`BfgsState` is
    that of a run alone. Returns one state per member.
    """
    opts = opts or BfgsOptions()
    x = np.array(gamma_init, dtype=float)
    if x.ndim != 2 or not len(x) or x.shape[1] != mesh.n_interface_nodes:
        raise ParameterError("gamma_init must live on the interface nodes")
    if x.min() < opts.c0 or x.max() > opts.c1:
        raise ParameterError("gamma_init violates the admissible bounds")
    fluxes = np.column_stack(fluxes)
    measurements = np.asarray(measurements, dtype=float)
    if measurements.shape != (len(x),) + fluxes.shape:
        raise ParameterError("one measurement per member and flux required")

    riesz = _riesz_map(mesh)
    states = [BfgsState(gamma=start) for start in x]
    members = [_bfgs_member(start, state, riesz, opts) for start, state in zip(x, states)]
    requests = [next(member) for member in members]
    live = np.arange(len(x))
    while len(live):
        for span, system in assemble_stacks(mesh, sigma, np.array([requests[i] for i in live])):
            chunk = live[span]
            J, covector = _evaluate(system, fluxes, measurements[chunk], lam)
            for j, i in enumerate(chunk):
                requests[i] = _advance(members[i], J[j])
            ask = [j for j, i in enumerate(chunk) if requests[i] is _COVECTOR]
            if ask:
                for j, grad in zip(ask, covector(ask)):
                    requests[chunk[j]] = _advance(members[chunk[j]], grad)
            del system, covector  # no stack is kept alive while the next one is assembled
        live = np.array([i for i in live if requests[i] is not None], dtype=int)
    return states


# what a member yields to ask for the covector at the point it has just accepted
_COVECTOR = "covector"


def _advance(member, value):
    """Send value to a member; its next request, or None once it has stopped."""
    try:
        return member.send(value)
    except StopIteration:
        return None


def _bfgs_member(x: np.ndarray, state: BfgsState, riesz, opts: BfgsOptions):
    """The BFGS run of one member, as a generator that records it in state.

    It yields every point whose cost it needs and is sent J there; once it
    accepts a point it yields _COVECTOR and is sent the covector at that
    point. It returns when it stops, with state.status set.
    """
    J = yield x
    grad = yield _COVECTOR
    grad_inf = float(np.abs(riesz(grad)).max())
    gtol = opts.gtol if opts.gtol is not None else GTOL_REL * grad_inf
    n = len(x)
    H = np.eye(n)
    state.history.append((J, grad_inf, 0.0))

    for _ in range(opts.max_iter):
        if grad_inf <= gtol:
            state.status = "converged"
            return
        d = -H @ grad
        slope = float(grad @ d)
        if slope >= 0.0:  # safeguard: reset to steepest descent
            H = np.eye(n)
            d = -grad
            slope = float(grad @ d)
        step = 1.0
        for _halving in range(MAX_HALVINGS + 1):
            if ARMIJO_C * step * abs(slope) < STALL_ULPS * _EPS * abs(J):
                state.status = "stalled"
                return
            cand = np.minimum(np.maximum(x + step * d, opts.c0), opts.c1)  # np.clip, faster
            J_cand = yield cand
            if J_cand <= J + ARMIJO_C * step * slope:
                break
            step *= 0.5
        else:
            state.status = "line_search_failure"
            return
        grad_new = yield _COVECTOR
        s = cand - x
        y = grad_new - grad
        sy = float(s @ y)
        if sy > 1e-12 * np.sqrt(float(s @ s) * float(y @ y)):
            _update_inverse_hessian(H, s, y, 1.0 / sy)
        x, J, grad = cand, J_cand, grad_new
        grad_inf = float(np.abs(riesz(grad)).max())
        state.gamma = x
        state.history.append((J, grad_inf, step))

    if grad_inf <= gtol:
        state.status = "converged"
