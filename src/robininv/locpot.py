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
from .mesh import Mesh, PartitionSpec


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


def cgne_solve(system: SparseSystem, target, stop, max_iter: int) -> CgneResult:
    """Conjugate gradients on the normal equations of A* g = target.

    ``stop(iteration, residual_norm, u_trace, g)`` is evaluated at every
    iterate, including the zero start; the residual norm is
    ||A* g - target||_{L2(Gamma)} and u_trace is the current A* g. The run
    ends when it holds (achieved, "stop test"), on stagnation (denominator or
    rho not positive, before the update) or after max_iter iterations. Each
    iteration costs one forward and one interface-source solve. The residual
    history is non-increasing by construction.
    """
    mesh = system.mesh
    target = np.asarray(target, dtype=float)
    if target.shape != (mesh.n_interface_nodes,):
        raise ParameterError("target must live on the interface nodes")
    if system.factor.ndim != 2:
        raise ParameterError("cgne_solve takes the system of one gamma")
    if max_iter < 1:
        raise ParameterError("max_iter must be >= 1")
    M_G, M_B = mesh.interface_mass, mesh.boundary_mass
    result = CgneResult(g=np.zeros(mesh.n_boundary_nodes), iterations=0)
    r = target.copy()

    def record(it: int, g: np.ndarray) -> bool:
        norm = float(np.sqrt(max(r @ (M_G @ r), 0.0)))
        result.g, result.iterations = g, it
        result.residual_history.append(norm)
        result.achieved = bool(stop(it, norm, target - r, g))
        return result.achieved

    if record(0, result.g):
        result.stopped_by = "stop test"
        return result
    s = apply_A(system, r)
    p = s
    rho = s @ (M_B @ s)
    for it in range(1, max_iter + 1):
        q = apply_Astar(system, p)
        denom = q @ (M_G @ q)
        if not (denom > 0.0 and rho > 0.0):  # the residual is in the null space of A
            result.stopped_by = "stagnation"
            return result
        alpha = rho / denom
        r = r - alpha * q
        if record(it, result.g + alpha * p):
            result.stopped_by = "stop test"
            return result
        if it == max_iter:
            break
        s = apply_A(system, r)
        rho_new = s @ (M_B @ s)
        p = s + (rho_new / rho) * p
        rho = rho_new
    result.stopped_by = "max_iter"
    return result


def runge_approximate(system: SparseSystem, f, tol: float, max_iter: int) -> CgneResult:
    """Drive the interface trace of a forward solution toward f in L2(Gamma)."""
    if tol <= 0:
        raise ParameterError("tol must be positive")

    def stop(_it, res, _u, _g):
        return res <= tol

    return cgne_solve(system, f, stop, max_iter)


def edge_integrals_sq(mesh: Mesh, u_iface) -> np.ndarray:
    """int over every interface edge of u^2 ds, exact for piecewise-linear u;
    per row for a stack of traces (s, n_Gamma)."""
    a = np.asarray(u_iface, dtype=float)
    b = a.take(mesh.interface_next, axis=-1)
    return mesh.interface_edge_lengths * (a * a + a * b + b * b) / 3.0


def arc_integral_sq(system: SparseSystem, u_iface, edge_mask: np.ndarray) -> float:
    """int over the masked edges of u^2 ds, exact for piecewise-linear u."""
    return float(edge_integrals_sq(system.mesh, u_iface)[edge_mask].sum())


def arc_edge_mask(partition: PartitionSpec, arcs) -> np.ndarray:
    arcs = np.atleast_1d(np.asarray(arcs, dtype=np.int64))
    if arcs.size == 0:
        raise ParameterError("arc set must be nonempty")
    if (arcs < 0).any() or (arcs >= partition.n_arcs).any():
        raise ParameterError("arc index out of range")
    if len(np.unique(arcs)) != arcs.size:  # a repeated arc would count its length twice
        raise ParameterError("arc indices must not repeat")
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
        per_edge = edge_integrals_sq(system.mesh, u_trace)
        off = float(per_edge[~mask].sum())
        if off <= 0.0:
            return False
        scale = off**0.25
        on_scaled = float(per_edge[mask].sum()) / np.sqrt(off)
        off_scaled = np.sqrt(off)
        state["scale"] = scale
        state["ratio"] = on_scaled / off_scaled
        return on_scaled >= alpha and off_scaled <= beta

    result = cgne_solve(system, target, stop, max_iter)
    if state["scale"] is not None:
        result.g = result.g / state["scale"]
        result.functional_value = state["ratio"]
    return result
