"""Runge approximation and localized potentials via CGNE.

The operator pair is A f = v|_dOmega (interface-source solve) and
A* g = u|_Gamma (forward solve); they are adjoint between the discrete
L2(Gamma) and L2(dOmega) inner products by Galerkin symmetry. CGNE runs
conjugate gradients on the normal equations of A* g = target, costing one
forward and one interface-source solve per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .fem import (
    SparseSystem,
    solve_forward,
    solve_interface_source,
    trace_boundary,
    trace_interface,
)
from .mesh import PartitionSpec


@dataclass
class CgneResult:
    """Outcome of a CGNE run: the current, its history, and the stop status.

    stopped_by is "stop test" (achieved), "stagnation" or "max_iter".
    """

    g: np.ndarray
    iterations: int
    residual_history: list = field(default_factory=list)
    achieved: bool = False
    functional_value: float | None = None
    stopped_by: str = ""


def apply_A(system: SparseSystem, f) -> np.ndarray:
    """A: interface density f -> boundary trace of the interface-source solve."""
    return trace_boundary(system.mesh, solve_interface_source(system, f))


def apply_Astar(system: SparseSystem, g) -> np.ndarray:
    """A*: boundary current g -> interface trace of the forward solve."""
    return trace_interface(system.mesh, solve_forward(system, g))


def _sq_norms(M: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared norms of the rows in the inner product of the mass M.

    One product per row, so a member's norms do not depend on the stack around it.
    """
    return ((rows[:, None, :] @ M)[:, 0] * rows).sum(axis=1)


def cgne_lockstep(system: SparseSystem, targets, stops, max_iter: int) -> list:
    """CGNE on A_i* g = targets[i] for every member i of a system stack, in lockstep.

    One stacked forward and one stacked interface-source solve per iteration
    serve every member still running. Member i stops on its own: when
    ``stops[i](iteration, residual_norm, u_trace, g)`` holds (achieved), on
    stagnation (denominator or rho not positive, before the update), or
    after max_iter iterations; it then leaves the stack. Returns one
    :class:`CgneResult` per member, as :func:`cgne_solve` would give it.
    """
    mesh = system.mesh
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[1] != mesh.n_interface_nodes:
        raise ParameterError("target must live on the interface nodes")
    if system.matrix.ndim != 3 or len(system.matrix) != len(targets):
        raise ParameterError("one target per member of the system stack required")
    if max_iter < 1:
        raise ParameterError("max_iter must be >= 1")
    M_G, M_B = mesh.interface_mass, mesh.boundary_mass
    results = [CgneResult(g=np.zeros(mesh.n_boundary_nodes), iterations=0) for _ in targets]
    live = np.arange(len(targets))  # members still running, and their iterates below
    g = np.zeros((len(targets), mesh.n_boundary_nodes))
    r = targets.copy()

    def record(it: int) -> np.ndarray:
        """Residual norms and stop tests of the live members; True where achieved."""
        norms = np.sqrt(np.maximum(_sq_norms(M_G, r), 0.0))
        held = np.zeros(len(live), dtype=bool)
        for j, i in enumerate(live):
            result = results[i]
            result.g, result.iterations = g[j], it
            result.residual_history.append(norms[j])
            held[j] = stops[i](it, norms[j], targets[i] - r[j], g[j])
            if held[j]:
                result.achieved, result.stopped_by = True, "stop test"
        return held

    running = ~record(0)
    live, g, r = live[running], g[running], r[running]
    if len(live) == 0:
        return results
    stack = system.members(live) if len(live) < len(targets) else system
    s = apply_A(stack, r[..., None])[..., 0]  # loads (s, n, 1): one per member
    p = s
    rho = _sq_norms(M_B, s)
    for it in range(1, max_iter + 1):
        q = apply_Astar(stack, p[..., None])[..., 0]
        denom = _sq_norms(M_G, q)
        running = (denom > 0.0) & (rho > 0.0)  # else the residual is in the null space of A
        for i in live[~running]:
            results[i].stopped_by = "stagnation"
        live, g, r, p, q, rho, denom = (
            x[running] for x in (live, g, r, p, q, rho, denom)
        )
        alpha = rho / denom
        g = g + alpha[:, None] * p
        r = r - alpha[:, None] * q
        running = ~record(it)
        live, g, r, p, rho = (x[running] for x in (live, g, r, p, rho))
        if len(live) == 0 or it == max_iter:
            break
        if len(live) < len(stack.matrix):
            stack = system.members(live)
        s = apply_A(stack, r[..., None])[..., 0]
        rho_new = _sq_norms(M_B, s)
        p = s + (rho_new / rho)[:, None] * p
        rho = rho_new
    for i in live:
        results[i].stopped_by = "max_iter"
    return results


def cgne_solve(system: SparseSystem, target, stop, max_iter: int) -> CgneResult:
    """Conjugate gradients on the normal equations of A* g = target.

    ``stop(iteration, residual_norm, u_trace, g)`` is evaluated at every
    iterate, including the zero start; the residual norm is
    ||A* g - target||_{L2(Gamma)} and u_trace is the current A* g.
    The residual history is non-increasing by construction. This is
    :func:`cgne_lockstep` on a stack of one.
    """
    target = np.asarray(target, dtype=float)
    if target.ndim != 1:
        raise ParameterError("target must live on the interface nodes")
    return cgne_lockstep(system.members(np.newaxis), target[None], [stop], max_iter)[0]


def runge_approximate(system: SparseSystem, f, tol: float, max_iter: int) -> CgneResult:
    """Drive the interface trace of a forward solution toward f in L2(Gamma)."""
    if tol <= 0:
        raise ParameterError("tol must be positive")

    def stop(_it, res, _u, _g):
        return res <= tol

    return cgne_solve(system, f, stop, max_iter)


def arc_integral_sq(system: SparseSystem, u_iface, edge_mask: np.ndarray) -> float:
    """int over the masked edges of u^2 ds, exact for piecewise-linear u."""
    a = np.asarray(u_iface, dtype=float)
    b = a[system.mesh.interface_next]
    per_edge = system.mesh.interface_edge_lengths * (a * a + a * b + b * b) / 3.0
    return float(per_edge[edge_mask].sum())


def arc_edge_mask(partition: PartitionSpec, arcs) -> np.ndarray:
    arcs = np.atleast_1d(np.asarray(arcs, dtype=np.int64))
    if arcs.size == 0:
        raise ParameterError("arc set must be nonempty")
    if (arcs < 0).any() or (arcs >= partition.n_arcs).any():
        raise ParameterError("arc index out of range")
    # a few arcs: one comparison each is cheaper than np.isin's general method
    return (partition.arc_of_edge[:, None] == arcs).any(axis=1)


def arc_lengths(system: SparseSystem, partition: PartitionSpec) -> np.ndarray:
    length = system.mesh.interface_edge_lengths
    return np.bincount(partition.arc_of_edge, weights=length, minlength=partition.n_arcs)


def indicator_nodal(partition: PartitionSpec, arcs) -> np.ndarray:
    """Nodal indicator of an arc set; shared nodes go to the lower-index arc."""
    arcs = np.atleast_1d(np.asarray(arcs, dtype=np.int64))
    return (partition.node_arc[:, None] == arcs).any(axis=1).astype(float)


def localized_potential(
    system: SparseSystem,
    partition: PartitionSpec,
    arcs,
    alpha: float = 2.0,
    beta: float = 0.5,
    max_iter: int = 500,
) -> CgneResult:
    """Boundary current concentrating the interface trace on the given arcs.

    Runs the Runge iteration toward chi_M / |M| and rescales each iterate by
    (int_{Gamma \\ M} u^2 ds)^{-1/4}; achieved once the scaled solution has
    int_M u^2 >= alpha and int_{Gamma \\ M} u^2 <= beta.
    """
    mask = arc_edge_mask(partition, arcs)
    if mask.all():
        raise ParameterError("arc set must be a strict subset of the partition")
    length_m = float(arc_lengths(system, partition)[np.atleast_1d(arcs)].sum())
    target = indicator_nodal(partition, arcs) / length_m

    state = {"scale": None, "ratio": None}

    def stop(_it, _res, u_trace, _g):
        off = arc_integral_sq(system, u_trace, ~mask)
        if off <= 0.0:
            return False
        scale = off**0.25
        on_scaled = arc_integral_sq(system, u_trace, mask) / np.sqrt(off)
        off_scaled = np.sqrt(off)
        state["scale"] = scale
        state["ratio"] = on_scaled / off_scaled
        return on_scaled >= alpha and off_scaled <= beta

    result = cgne_solve(system, target, stop, max_iter)
    if state["scale"] is not None:
        result.g = result.g / state["scale"]
        result.functional_value = state["ratio"]
    return result
