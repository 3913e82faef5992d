"""Command-line front end: experiment drivers with CSV emission.

Usage: robininv <subcommand> --config <path> [--out <dir>] [--seed <u64>]

Config files are flat ``key = value`` text with ``#`` comments. Every CSV
starts with a comment line recording the config hash and seed so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from . import (
    ArcwiseGamma,
    BfgsOptions,
    Conductivity,
    CoercivityError,
    NumericalError,
    ParameterError,
    add_noise,
    assemble_system,
    bfgs_minimize,
    boundary_l2,
    generate_disk_mesh,
    interface_partition,
    lipschitz_constant,
    localized_potential,
    nodal_field,
    nd_form_matrix,
    nd_quadratic_form,
    save_mesh,
    solve_forward,
    synthesize_data,
    trace_boundary,
    trace_interface,
    verify_stability,
)

EXIT_OK = 0
EXIT_PARAMETER = 1
EXIT_NUMERICAL = 2
EXIT_NOT_ACHIEVED = 3

NOISE_LEVELS = (0.0, 0.01, 0.03, 0.05, 0.1)


@dataclass
class ExperimentConfig:
    n_r_inner: int = 4
    n_r_outer: int = 4
    n_theta: int = 64
    sigma1: float = 2.0
    sigma2: float = 1.0
    gamma_true: str = "example1"
    gamma_init: str = "constant:1"
    fluxes: str = "example1"
    flux: str = "constant:1"
    eps: float = 0.0
    seed: int = 0
    reg_lambda: float = 0.0
    gtol: float = 0.0  # 0 means relative default
    max_iter: int = 200
    c0: float = 1e-3
    c1: float = 10.0
    partition_m: int = 4
    a: float = 1.0
    b: float = 2.0
    n_modes: int = 16
    arcs: str = "0"
    alpha: float = 2.0
    beta: float = 0.5
    cgne_max_iter: int = 500
    out: str = "out"


def parse_number(text: str, kind, what: str):
    """int(text) or a finite float(text); anything else is a ParameterError."""
    try:
        value = kind(text)
    except ValueError:
        raise ParameterError(f"{what}: '{text}' is not a valid {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise ParameterError(f"{what}: '{text}' is not finite")
    return value


def check_ranges(cfg: ExperimentConfig, where: str) -> None:
    """Reject a value outside its key's range with a ParameterError naming the key."""
    rules = (
        (cfg.eps >= 0, "eps must be >= 0"),
        (0 <= cfg.seed < 2**64, "seed must be in 0 .. 2**64 - 1"),
        (cfg.max_iter >= 0, "max_iter must be >= 0"),
        (cfg.gtol >= 0, "gtol must be >= 0"),
        (0 < cfg.c0 < cfg.c1, "c0 and c1 must satisfy 0 < c0 < c1"),
        (0 < cfg.a < cfg.b, "a and b must satisfy 0 < a < b"),
        (cfg.n_r_inner >= 1 and cfg.n_r_outer >= 1, "n_r_inner and n_r_outer must be >= 1"),
        (cfg.n_theta >= 8 and cfg.n_theta % 2 == 0, "n_theta must be even and >= 8"),
        (cfg.n_modes >= 1, "n_modes must be >= 1"),
        # the interface of a generated mesh has n_theta edges
        (1 <= cfg.partition_m <= cfg.n_theta, "partition_m must be in 1 .. n_theta"),
    )
    for ok, message in rules:
        if not ok:
            raise ParameterError(f"{where}: {message}")


def parse_config(path: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    kinds = get_type_hints(ExperimentConfig)  # key -> int, float or str
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "lambda":  # friendlier alias for the regularization weight
                key = "reg_lambda"
            if key not in kinds:
                raise ParameterError(f"{path}:{lineno}: unknown config key '{key}'")
            if kinds[key] is str:
                setattr(cfg, key, value)
            else:
                setattr(cfg, key, parse_number(value, kinds[key], f"{path}:{lineno}: {key}"))
    check_ranges(cfg, path)
    return cfg


def config_hash(cfg: ExperimentConfig) -> str:
    payload = ";".join(f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def gamma_selector(name: str, theta: np.ndarray) -> np.ndarray:
    if name == "example1":
        return np.exp(-0.5 * np.cos(theta))
    if name == "example2":
        return 1.0 + np.cos(theta) ** 2
    if name == "expinit":
        return np.exp(-0.2 * np.cos(theta))
    if name.startswith("constant:"):
        return np.full_like(theta, parse_number(name.split(":", 1)[1], float, name))
    raise ParameterError(f"unknown gamma selector '{name}'")


def flux_selector(name: str, theta: np.ndarray) -> np.ndarray:
    if name.startswith("constant:"):
        return np.full_like(theta, parse_number(name.split(":", 1)[1], float, name))
    if name.startswith("cos:"):
        return np.cos(parse_number(name.split(":", 1)[1], int, name) * theta)
    if name.startswith("sin:"):
        return np.sin(parse_number(name.split(":", 1)[1], int, name) * theta)
    raise ParameterError(f"unknown flux selector '{name}'")


def flux_set(name: str, theta: np.ndarray) -> list:
    if name == "example1":
        return [np.cos(theta), np.sin(theta), np.cos(theta) ** 2 - np.sin(theta) ** 2]
    if name == "example2":
        return [
            5.0 + np.cos(theta),
            1.0 + np.sin(theta),
            3.0 + np.cos(theta) ** 2 - np.sin(theta) ** 2,
        ]
    return [flux_selector(name, theta)]


def write_csv(path, header, rows, cfg: ExperimentConfig) -> None:
    """Floats as %.17g, anything else as str(value); one row format per row of value types."""
    lines = [f"# config={config_hash(cfg)} seed={cfg.seed}", ",".join(header)]
    formats = {}
    for row in rows:
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(
                "%.17g" if issubclass(kind, float) else "%s" for kind in kinds
            )
        lines.append(fmt % tuple(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_text(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def write_gnuplot(path, csv_name: str, title: str, columns: list) -> None:
    plots = ", ".join(
        f"'{csv_name}' using {spec} with linespoints title '{label}'"
        for spec, label in columns
    )
    write_text(
        path,
        "set datafile separator ','\n"
        f"set title '{title}'\n"
        "set key outside\n"
        f"plot {plots}\n",
    )


def _mesh_sigma(cfg: ExperimentConfig):
    mesh = generate_disk_mesh(cfg.n_r_inner, cfg.n_r_outer, cfg.n_theta)
    return mesh, Conductivity(cfg.sigma1, cfg.sigma2)


def cmd_mesh(cfg, out):
    mesh, _ = _mesh_sigma(cfg)
    save_mesh(mesh, os.path.join(out, "mesh.txt"))
    write_text(
        os.path.join(out, "summary.txt"),
        f"mesh {cfg.n_r_inner},{cfg.n_r_outer},{cfg.n_theta}: "
        f"{mesh.n_nodes} nodes, {len(mesh.triangles)} triangles, h={mesh.h:.6g}\n",
    )
    return EXIT_OK


def cmd_forward(cfg, out):
    mesh, sigma = _mesh_sigma(cfg)
    gamma = gamma_selector(cfg.gamma_true, mesh.interface_theta)
    system = assemble_system(mesh, sigma, gamma)
    g = flux_selector(cfg.flux, mesh.boundary_theta)
    u = nodal_field(system, solve_forward(system, g))
    rows = [(i, float(x), float(y), float(v)) for i, ((x, y), v) in enumerate(zip(mesh.nodes, u))]
    write_csv(os.path.join(out, "field.csv"), ["node", "x", "y", "value"], rows, cfg)
    write_text(
        os.path.join(out, "summary.txt"),
        f"forward solve: flux={cfg.flux}, max |u| = {np.abs(u).max():.6g}\n",
    )
    return EXIT_OK


def cmd_ndmap(cfg, out):
    mesh, sigma = _mesh_sigma(cfg)
    gamma = gamma_selector(cfg.gamma_true, mesh.interface_theta)
    form = nd_form_matrix(assemble_system(mesh, sigma, gamma), cfg.n_modes)
    rows = [
        (i, j, float(form.matrix[i, j]))
        for i in range(form.matrix.shape[0])
        for j in range(form.matrix.shape[1])
    ]
    write_csv(os.path.join(out, "ndform.csv"), ["i", "j", "value"], rows, cfg)
    write_text(
        os.path.join(out, "summary.txt"),
        f"ND form: n_modes={cfg.n_modes}, trace={np.trace(form.matrix):.6g}\n",
    )
    return EXIT_OK


def cmd_monotonicity(cfg, out):
    mesh, sigma = _mesh_sigma(cfg)
    theta_g = mesh.interface_theta
    gamma1 = np.exp(-np.cos(theta_g))
    gamma2 = gamma1 + 1.0
    sys1 = assemble_system(mesh, sigma, gamma1)
    sys2 = assemble_system(mesh, sigma, gamma2)
    rows = []
    ordered = True
    for i in range(1, 11):
        gi = np.sin(i * mesh.boundary_theta)
        q1 = nd_quadratic_form(sys1, gi)
        q2 = nd_quadratic_form(sys2, gi)
        ordered = ordered and q1 >= q2
        rows.append((i, q1, q2))
    write_csv(
        os.path.join(out, "monotonicity.csv"),
        ["i", "quad_gamma1", "quad_gamma2"],
        rows,
        cfg,
    )
    write_gnuplot(
        os.path.join(out, "monotonicity.gp"),
        "monotonicity.csv",
        "ND quadratic forms for sin(i theta) currents",
        [("1:2", "gamma1"), ("1:3", "gamma2")],
    )
    write_text(
        os.path.join(out, "summary.txt"),
        f"monotonicity ordering holds for all 10 currents: {ordered}\n",
    )
    return EXIT_OK if ordered else EXIT_NOT_ACHIEVED


def cmd_locpot(cfg, out):
    mesh, sigma = _mesh_sigma(cfg)
    partition = interface_partition(mesh, cfg.partition_m)
    arcs = [parse_number(tok, int, "arcs") for tok in cfg.arcs.split(",") if tok.strip() != ""]
    gamma = gamma_selector(cfg.gamma_true, mesh.interface_theta)
    system = assemble_system(mesh, sigma, gamma)
    result = localized_potential(
        system, partition, arcs, alpha=cfg.alpha, beta=cfg.beta, max_iter=cfg.cgne_max_iter
    )
    write_csv(
        os.path.join(out, "locpot_residuals.csv"),
        ["iteration", "residual"],
        list(enumerate(result.residual_history)),
        cfg,
    )
    u_trace = trace_interface(mesh, solve_forward(system, result.g))
    write_csv(
        os.path.join(out, "locpot_trace.csv"),
        ["theta", "u_interface"],
        list(zip(mesh.interface_theta, u_trace)),
        cfg,
    )
    write_text(
        os.path.join(out, "summary.txt"),
        f"localized potential on arcs {arcs}: achieved={result.achieved} "
        f"after {result.iterations} iterations (stopped by {result.stopped_by})\n",
    )
    return EXIT_OK if result.achieved else EXIT_NOT_ACHIEVED


def cmd_lipschitz(cfg, out):
    mesh, sigma = _mesh_sigma(cfg)
    partition = interface_partition(mesh, cfg.partition_m)
    report = lipschitz_constant(mesh, sigma, cfg.a, cfg.b, partition, cfg.cgne_max_iter)
    rows = [
        (e.k, e.m, e.g_norm_sq, e.iterations, int(e.achieved), e.functional_value)
        for e in report.entries
    ]
    write_csv(
        os.path.join(out, "lipschitz_report.csv"),
        ["k", "m", "g_norm_sq", "iterations", "achieved", "condition_value"],
        rows,
        cfg,
    )
    summary = [
        f"a={report.a} b={report.b} K={report.K} M={partition.n_arcs}",
        f"complete={report.complete}",
        f"G={report.G}",
        f"constant_proof={report.constant_proof}  (||g1-g2||_inf <= G ||dLambda||_*)",
        f"constant_stated={report.constant_stated}  (reciprocal form 1/G; the "
        "derivation supports the G-sided bound, so both are reported)",
    ]
    if not report.complete:
        write_text(os.path.join(out, "summary.txt"), "\n".join(summary) + "\n")
        return EXIT_NOT_ACHIEVED
    samples = verify_stability(report, mesh, sigma, 50, cfg.seed, cfg.n_modes)
    write_csv(
        os.path.join(out, "lipschitz_verification.csv"),
        ["sample", "diff_inf", "nd_diff_norm", "ratio"],
        [(i, s.diff_inf, s.nd_diff_norm, s.ratio) for i, s in enumerate(samples)],
        cfg,
    )
    max_ratio = max(s.ratio for s in samples)
    summary.append(f"max empirical ratio={max_ratio:.6g} vs G={report.G:.6g}")
    write_text(os.path.join(out, "summary.txt"), "\n".join(summary) + "\n")
    return EXIT_OK


def _true_data(cfg, mesh, sigma):
    """The true coefficient and its noise-free data for the configured fluxes."""
    gamma_true = gamma_selector(cfg.gamma_true, mesh.interface_theta)
    return gamma_true, synthesize_data(
        mesh, sigma, gamma_true, flux_set(cfg.fluxes, mesh.boundary_theta)
    )


def _run_reconstruction(cfg, mesh, sigma, gamma_true, clean, eps, init_name, seed):
    data = add_noise(clean, eps, seed) if eps > 0 else clean
    opts = BfgsOptions(
        gtol=cfg.gtol if cfg.gtol > 0 else None,
        max_iter=cfg.max_iter,
        c0=cfg.c0,
        c1=cfg.c1,
    )
    gamma_init = gamma_selector(init_name, mesh.interface_theta)
    state = bfgs_minimize(mesh, sigma, data, cfg.reg_lambda, gamma_init, opts)
    mass = mesh.interface_mass
    diff = state.gamma - gamma_true
    return state, np.sqrt((diff @ (mass @ diff)) / (gamma_true @ (mass @ gamma_true)))


def _emit_reconstruction(cfg, out, tag, mesh, state, gamma_true, rel_err):
    write_csv(
        os.path.join(out, f"history_{tag}.csv"),
        ["iteration", "J", "grad_inf_norm", "step"],
        [(i, J, gi, st) for i, (J, gi, st) in enumerate(state.history)],
        cfg,
    )
    write_csv(
        os.path.join(out, f"coefficient_{tag}.csv"),
        ["theta", "gamma_reconstructed", "gamma_true"],
        list(zip(mesh.interface_theta, state.gamma, gamma_true)),
        cfg,
    )
    write_gnuplot(
        os.path.join(out, f"coefficient_{tag}.gp"),
        f"coefficient_{tag}.csv",
        f"Robin coefficient reconstruction ({tag})",
        [("1:2", "reconstructed"), ("1:3", "true")],
    )
    return (
        f"{tag}: status={state.status} iterations={len(state.history) - 1} "
        f"J={state.history[-1][0]:.6g} grad_inf={state.history[-1][1]:.6g} "
        f"rel_L2_error={rel_err:.6g}\n"
    )


def cmd_reconstruct(cfg, out):
    mesh, sigma = _mesh_sigma(cfg)
    gamma_true, clean = _true_data(cfg, mesh, sigma)
    state, rel_err = _run_reconstruction(
        cfg, mesh, sigma, gamma_true, clean, cfg.eps, cfg.gamma_init, cfg.seed
    )
    summary = _emit_reconstruction(cfg, out, "run", mesh, state, gamma_true, rel_err)
    write_text(os.path.join(out, "summary.txt"), summary)
    return EXIT_OK


def _cmd_example(cfg, out, which: str):
    mesh, sigma = _mesh_sigma(cfg)
    cfg.gamma_true = which
    cfg.fluxes = which
    inits = ["expinit", "constant:1"] if which == "example1" else ["constant:1"]
    levels = NOISE_LEVELS if which == "example1" else (0.0, 0.05)
    gamma_true, clean = _true_data(cfg, mesh, sigma)
    summary = []
    for eps in levels:
        for init in inits:
            tag = f"eps{eps:g}_init_{init.replace(':', '')}"
            state, rel_err = _run_reconstruction(
                cfg, mesh, sigma, gamma_true, clean, eps, init, cfg.seed
            )
            summary.append(_emit_reconstruction(cfg, out, tag, mesh, state, gamma_true, rel_err))
    write_text(os.path.join(out, "summary.txt"), "".join(summary))
    return EXIT_OK


def cmd_example1(cfg, out):
    return _cmd_example(cfg, out, "example1")


def cmd_example2(cfg, out):
    return _cmd_example(cfg, out, "example2")


COMMANDS = {
    "mesh": cmd_mesh,
    "forward": cmd_forward,
    "ndmap": cmd_ndmap,
    "monotonicity": cmd_monotonicity,
    "locpot": cmd_locpot,
    "lipschitz": cmd_lipschitz,
    "reconstruct": cmd_reconstruct,
    "example1": cmd_example1,
    "example2": cmd_example2,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="robininv", description=__doc__)
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, our EXIT_NUMERICAL
        return EXIT_OK if exc.code == 0 else EXIT_PARAMETER

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            check_ranges(cfg, "--seed")
        out = args.out or cfg.out
        os.makedirs(out, exist_ok=True)
        code = COMMANDS[args.subcommand](cfg, out)
    except (ParameterError, CoercivityError, OSError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return code


if __name__ == "__main__":
    sys.exit(main())
