"""Computable Lipschitz stability constant for arcwise-constant Robin coefficients.

For bounds 0 < a < b and a partition of the interface into M arcs, the
special coefficients gamma^(km) take the value (k+5)a/4 on arc m and a/2
elsewhere, k = 1..K with K = floor(4(b/a - 1)) + 1. Each g^(km) is the
boundary current of least L2(dOmega) norm whose solution satisfies the
localization condition (1/2) int_{arc m} u^2 - (2b/a - 1) int_elsewhere u^2 >= 1,
among the currents of the M-orthonormal trigonometric basis B of ``ndmap``
(2 n_modes + 1 columns). With U the interface traces of the solves of B, the
condition on g = B c is c^T Q c >= 1 for Q = U^T D_m U, where D_m is the
condition's quadratic form on P1 interface functions. The least ||g||^2 = |c|^2
is then 1/lambda_max(Q), reached at c = v/sqrt(lambda_max); no current of the
span localizes if lambda_max <= 0. G = max ||g^(km)||^2 yields the stability
constant, for the ND difference measured on currents of that span or a larger one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError
from .fem import ArcwiseGamma, Conductivity, arc_step_traces
from .locpot import edge_integrals_sq
from .mesh import Mesh, PartitionSpec
from .ndmap import NdForm, nd_form, operator_norm_diff, orthonormal_boundary_basis


@dataclass
class GkmEntry:
    """The current g^(km) and its condition value; the zero current where no
    current of the span meets the condition (achieved False)."""

    k: int  # 1-based
    m: int  # 1-based
    g: np.ndarray
    g_norm_sq: float
    achieved: bool
    functional_value: float


@dataclass
class LipschitzReport:
    a: float
    b: float
    K: int
    n_modes: int  # the currents g^(km) lie in the span of 2 n_modes + 1 basis functions
    partition: PartitionSpec
    entries: list = field(default_factory=list)
    complete: bool = False
    G: float | None = None

    @property
    def constant_proof(self) -> float | None:
        """G itself: the proof yields ||g1 - g2||_inf <= G ||dLambda||_*."""
        return self.G

    @property
    def constant_stated(self) -> float | None:
        """1/G as printed in the quantitative stability statement."""
        return None if self.G is None else 1.0 / self.G


@dataclass
class StabilitySample:
    gamma1: np.ndarray  # per-arc values
    gamma2: np.ndarray
    diff_inf: float
    nd_diff_norm: float
    ratio: float


def compute_K(a: float, b: float) -> int:
    """K = floor(4(b/a - 1)) + 1; guarantees b < (K+4) a / 4."""
    if a <= 0 or b <= a:
        raise ParameterError("bounds must satisfy 0 < a < b")
    K = math.floor(4.0 * (b / a - 1.0)) + 1
    assert b < (K + 4) * a / 4.0 + 1e-12 * a
    return K


def _condition_gram(mesh: Mesh, U, on_arc, b_over_a) -> np.ndarray:
    """Q = U^T D U per member, (s, d, d), for traces U (s, n_Gamma, d): c^T Q c is
    the condition (1/2) int_arc u^2 - (2 b/a - 1) int_rest u^2 of the trace
    u = U c, on the arc marked by the edge row of on_arc (s, n_edges). D is the
    P1 mass of the interface edges, each weighted by 1/2 on the arc and by
    -(2 b/a - 1) elsewhere: edge e of length L adds w L / 6 [[2, 1], [1, 2]] at
    its nodes e and e + 1."""
    weight = np.where(on_arc, 0.5, 1.0 - 2.0 * b_over_a)
    w = (weight * (mesh.interface_edge_lengths / 6.0))[..., None]
    # in place, so no more than three (s, n_Gamma, d) arrays are held beside U
    ends = U.take(mesh.interface_next, axis=1)
    DU = 2.0 * U
    DU += ends
    DU *= w  # from the edges that start at each node
    ends *= 2.0
    ends += U
    ends *= w
    DU += ends.take(mesh.interface_prev, axis=1)  # and those that end there
    return np.swapaxes(U, 1, 2) @ DU


def _conditions(mesh: Mesh, U, C, on_arc, b_over_a) -> np.ndarray:
    """The condition (1/2) int_arc u^2 - (2 b/a - 1) int_rest u^2 of every
    current c of C (s, d), whose traces are u = U c for U (s, n_Gamma, d), on the
    arcs marked by the edge rows of on_arc (s, n_edges)."""
    per_edge = edge_integrals_sq(mesh, (U @ C[:, :, None])[:, :, 0])
    on = np.where(on_arc, per_edge, 0.0).sum(axis=1)
    off = np.where(on_arc, 0.0, per_edge).sum(axis=1)
    return 0.5 * on - (2.0 * b_over_a - 1.0) * off


def _gkm_entries(mesh: Mesh, km, U, basis, b_over_a, partition) -> list:
    """The minimal-norm currents g^(km), one per (k, m) of km, from the interface
    traces U (s, n_Gamma, d) of the basis currents: one stacked eigh.

    c^T Q c = 1 holds in exact arithmetic for c = v / sqrt(lambda_max), but
    rounding can leave the computed condition a little below 1; such currents
    are scaled up until it is >= 1.0 as computed. Where it is not positive (or
    lambda_max is not), the entry is missed: the zero current and 0.0.
    """
    arcs = np.array([m - 1 for _, m in km])
    on_arc = partition.arc_of_edge == arcs[:, None]
    lam, V = np.linalg.eigh(_condition_gram(mesh, U, on_arc, b_over_a))
    lam_max = lam[:, -1]
    reach = lam_max > 0.0
    C = np.where(reach[:, None], V[:, :, -1], 0.0)
    C /= np.sqrt(np.where(reach, lam_max, 1.0))[:, None]
    values, bump = _conditions(mesh, U, C, on_arc, b_over_a), 2.0**-50
    low = (0.0 < values) & (values < 1.0)
    while low.any():  # an entry still low has been low since the start: one bump serves all
        C[low] *= (np.sqrt(1.0 / values[low]) + bump)[:, None]
        values[low] = _conditions(mesh, U[low], C[low], on_arc[low], b_over_a)
        low, bump = (0.0 < values) & (values < 1.0), 2.0 * bump
    achieved = values >= 1.0
    C[~achieved], values[~achieved] = 0.0, 0.0
    entries = []
    for (k, m), c, value, hit in zip(km, C, values.tolist(), achieved.tolist()):
        g = basis @ c
        g_norm_sq = float(g @ (mesh.boundary_mass @ g))
        entries.append(GkmEntry(k, m, g, g_norm_sq, achieved=hit, functional_value=value))
    return entries


def _gkm_stack(mesh: Mesh, sigma: Conductivity, km, a: float, b: float,
               partition: PartitionSpec, n_modes: int) -> list:
    """The entries of the (k, m) of km. gamma^(km) is a/2 plus t_k = (k+3)a/4 on
    arc m, so :func:`robininv.fem.arc_step_traces` gives the traces of the basis
    currents of every gamma^(km) from one inverse of A(a/2), span by span."""
    basis = orthonormal_boundary_basis(mesh, n_modes)
    base = ArcwiseGamma(partition, np.full(partition.n_arcs, a / 2.0))
    arcs = np.array([m - 1 for _, m in km])
    steps = np.array([(k + 3) * a / 4.0 for k, _ in km])
    entries = []
    for span, U in arc_step_traces(mesh, sigma, base, partition, arcs, steps, basis):
        entries += _gkm_entries(mesh, km[span], U, basis, b / a, partition)
    return entries


def lipschitz_constant(
    mesh: Mesh,
    sigma: Conductivity,
    a: float,
    b: float,
    partition: PartitionSpec,
    n_modes: int = 4,
) -> LipschitzReport:
    """All K*M minimal-norm currents g^(km) in the span of 2 n_modes + 1 basis
    functions, and G = max ||g||^2.

    Every gamma^(km) differs from the constant a/2 on one arc only, so one
    factorization and one inverse of A(a/2) serve all of them: each (k, m)
    then costs one p x p solve for the p nodes of arc m, in bounded spans,
    and each span one stacked eigenproblem.
    """
    K = compute_K(a, b)
    report = LipschitzReport(a=a, b=b, K=K, n_modes=n_modes, partition=partition)
    km = [(k, m) for k in range(1, K + 1) for m in range(1, partition.n_arcs + 1)]
    report.entries = _gkm_stack(mesh, sigma, km, a, b, partition, n_modes)
    achieved = [e for e in report.entries if e.achieved]
    report.complete = len(achieved) == len(report.entries)
    if achieved:
        report.G = max(e.g_norm_sq for e in achieved)
    return report


def verify_stability(
    report: LipschitzReport,
    mesh: Mesh,
    sigma: Conductivity,
    n_samples: int,
    seed: int,
    n_modes: int = 16,
) -> list:
    """Empirical stability sweep over random arcwise coefficient pairs.

    For each pair records ||gamma1 - gamma2||_inf, the truncated ND-difference
    norm, and their ratio, to compare against the proof constant G and the
    stated constant 1/G. Refuses incomplete reports, and an n_modes below the
    report's: G bounds the ND difference only on a span holding its currents.
    A pair whose forms agree to rounding (e.g. when a tiny sigma2 makes the
    gamma-free part of the form swamp the rest) raises NumericalError.
    The ND forms of all 2 n_samples coefficients come from one
    :func:`robininv.ndmap.nd_form` call: one n x n Cholesky factorization per
    coefficient and no solve of size n.
    """
    if not report.complete:
        raise ParameterError("stability verification requires a complete report")
    if n_modes < report.n_modes:
        raise ParameterError(
            f"n_modes={n_modes} is below the report's n_modes={report.n_modes}"
        )
    rng = np.random.default_rng(seed)
    part = report.partition
    # every pair at once, in the order of successive pairs of rng.uniform(a, b, M)
    pairs = rng.uniform(report.a, report.b, size=(n_samples, 2, part.n_arcs))
    diff_inf = np.abs(pairs[:, 0] - pairs[:, 1]).max(axis=1)
    pairs, diff_inf = pairs[diff_inf != 0.0], diff_inf[diff_inf != 0.0]
    if len(pairs) == 0:
        return []
    forms = nd_form(mesh, sigma, ArcwiseGamma(part, pairs.reshape(-1, part.n_arcs)), n_modes)
    nd_norms = operator_norm_diff(
        NdForm(n_modes, forms.basis, forms.matrix[0::2]),
        NdForm(n_modes, forms.basis, forms.matrix[1::2]),
    )
    if not (nd_norms > 0.0).all():  # distinct gammas have distinct forms in exact arithmetic
        raise NumericalError(
            "the ND forms of a pair of distinct coefficients agree to rounding: "
            "their stability ratio is unbounded"
        )
    samples = []
    for (v1, v2), diff, nd_norm in zip(pairs, diff_inf.tolist(), nd_norms.tolist()):
        samples.append(
            StabilitySample(
                gamma1=v1, gamma2=v2, diff_inf=diff, nd_diff_norm=nd_norm, ratio=diff / nd_norm
            )
        )
    return samples
