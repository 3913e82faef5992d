import numpy as np
import pytest

import robininv as ri
from robininv import cli


COARSE = """
# coarse test geometry
n_r_inner = 2
n_r_outer = 2
n_theta = 32
seed = 5
max_iter = 60
"""


def write_config(tmp_path, text=COARSE, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_parse_config_defaults_and_overrides(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path))
    assert cfg.n_theta == 32
    assert cfg.seed == 5
    assert cfg.sigma1 == 2.0  # untouched default


def test_parse_config_lambda_alias(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, "lambda = 0.25\n"))
    assert cfg.reg_lambda == 0.25


def test_parse_config_unknown_key_named(tmp_path):
    path = write_config(tmp_path, "bogus_key = 3\n")
    with pytest.raises(ri.ParameterError, match="bogus_key"):
        cli.parse_config(path)


def test_parse_config_malformed_line(tmp_path):
    path = write_config(tmp_path, "just words\n")
    with pytest.raises(ri.ParameterError):
        cli.parse_config(path)


def test_config_hash_stable(tmp_path):
    c1 = cli.parse_config(write_config(tmp_path))
    c2 = cli.parse_config(write_config(tmp_path, name="cfg2.txt"))
    assert cli.config_hash(c1) == cli.config_hash(c2)
    c2.seed = 6
    assert cli.config_hash(c1) != cli.config_hash(c2)


def test_selectors_reject_unknown():
    theta = np.linspace(0, 2 * np.pi, 8)
    with pytest.raises(ri.ParameterError):
        cli.gamma_selector("nope", theta)
    with pytest.raises(ri.ParameterError):
        cli.flux_selector("nope", theta)


def test_mesh_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["mesh", "--config", cfg, "--out", str(out)]) == 0
    mesh = ri.load_mesh(out / "mesh.txt")
    assert mesh.n_nodes == 1 + 4 * 32
    assert "nodes" in (out / "summary.txt").read_text()


def test_forward_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["forward", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "field.csv")
    assert header == ["node", "x", "y", "value"]
    assert len(rows) == 1 + 2 * 32 + 2 * 32  # node count of the (2,2,32) mesh


def test_monotonicity_command_ordering(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["monotonicity", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "monotonicity.csv")
    assert header == ["i", "quad_gamma1", "quad_gamma2"]
    assert len(rows) == 10
    for row in rows:
        assert float(row[1]) >= float(row[2])
    assert (out / "monotonicity.gp").exists()


def test_locpot_command(tmp_path):
    cfg = write_config(tmp_path, COARSE + "gamma_true = constant:1\n")
    out = tmp_path / "out"
    assert cli.main(["locpot", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "locpot_residuals.csv")
    res = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(res, res[1:]))
    assert "(stopped by stop test)" in (out / "summary.txt").read_text()


def test_reconstruct_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "history_run.csv")
    assert header == ["iteration", "J", "grad_inf_norm", "step"]
    J = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-15 for a, b in zip(J, J[1:]))
    assert "rel_L2_error" in (out / "summary.txt").read_text()


def test_bad_config_path_exit_code(tmp_path):
    assert cli.main(["mesh", "--config", str(tmp_path / "missing.txt")]) == 1


def test_parameter_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, "n_theta = 7\n")
    out = tmp_path / "out"
    assert cli.main(["mesh", "--config", cfg, "--out", str(out)]) == 1


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    cli.main(["forward", "--config", cfg, "--out", str(out1)])
    cli.main(["forward", "--config", cfg, "--out", str(out2), "--seed", "99"])
    first1 = (out1 / "field.csv").read_text().splitlines()[0]
    first2 = (out2 / "field.csv").read_text().splitlines()[0]
    assert "seed=5" in first1
    assert "seed=99" in first2


def test_example1_determinism(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert cli.main(["example1", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["example1", "--config", cfg, "--out", str(out2)]) == 0
    csvs = sorted(p.name for p in out1.glob("*.csv"))
    assert csvs  # one history and coefficient file per (eps, init)
    for name in csvs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_usage_error_exit_code(tmp_path):
    assert cli.main(["bogus", "--config", str(tmp_path / "x")]) == cli.EXIT_PARAMETER
    assert cli.main(["mesh"]) == cli.EXIT_PARAMETER  # --config missing


@pytest.mark.parametrize("line", ["n_theta = abc", "seed = 1.5", "sigma1 = two"])
def test_non_numeric_config_values_exit_1(tmp_path, line):
    cfg = write_config(tmp_path, COARSE + line + "\n")
    with pytest.raises(ri.ParameterError, match=line.split()[0]):
        cli.parse_config(cfg)
    assert cli.main(["mesh", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("line", ["gamma_true = constant:x", "flux = cos:x"])
def test_non_numeric_selectors_exit_1(tmp_path, line):
    cfg = write_config(tmp_path, COARSE + line + "\n")
    assert cli.main(["forward", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_selectors_reject_non_numeric_and_non_finite():
    theta = np.linspace(0, 2 * np.pi, 8)
    for name in ("constant:x", "constant:nan", "constant:inf"):
        with pytest.raises(ri.ParameterError):
            cli.gamma_selector(name, theta)
        with pytest.raises(ri.ParameterError):
            cli.flux_selector(name, theta)
    for name in ("cos:x", "sin:1.5"):
        with pytest.raises(ri.ParameterError):
            cli.flux_selector(name, theta)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.01"])
def test_bad_eps_rejected(tmp_path, value):
    cfg = write_config(tmp_path, COARSE + f"eps = {value}\n")
    with pytest.raises(ri.ParameterError, match="eps"):
        cli.parse_config(cfg)
    assert cli.main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize(
    "line",
    ["seed = -1", f"seed = {2**64}", "max_iter = -3", "gtol = -1e-6",
     "c0 = 0", "c1 = 1e-4", "a = -1", "b = 0.5", "n_r_inner = 0", "n_r_outer = 0",
     "n_theta = 31", "n_modes = 0", "partition_m = 0", "partition_m = 33"],
)
def test_out_of_range_config_values_exit_1(tmp_path, line):
    key = line.split()[0]
    cfg = write_config(tmp_path, COARSE + "eps = 0.01\n" + line + "\n")
    with pytest.raises(ri.ParameterError, match=rf"\b{key} (and|must)\b"):
        cli.parse_config(cfg)
    assert cli.main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_flag_exit_1(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, COARSE + "eps = 0.01\n")
    out = str(tmp_path / "out")
    assert cli.main(["reconstruct", "--config", cfg, "--out", out, "--seed", seed]) == 1
    assert "--seed: seed must be" in capsys.readouterr().err


def test_range_errors_stop_before_any_output(tmp_path, capsys):
    # lipschitz reads n_modes only after every CGNE run, and partition_m when
    # it splits the interface: both are checked, by name, before any work
    for line in ("n_modes = 0", "partition_m = 0"):
        cfg = write_config(tmp_path, COARSE + line + "\n")
        out = tmp_path / "out"
        assert cli.main(["lipschitz", "--config", cfg, "--out", str(out)]) == 1
        assert line.split()[0] + " must be" in capsys.readouterr().err
        assert not out.exists()


def test_range_bounds_accepted(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, f"seed = {2**64 - 1}\nmax_iter = 0\ngtol = 0\n"))
    assert (cfg.seed, cfg.max_iter, cfg.gtol) == (2**64 - 1, 0, 0.0)
    mesh_keys = "n_r_inner = 1\nn_r_outer = 1\nn_theta = 8\nn_modes = 1\npartition_m = 8\n"
    cfg = cli.parse_config(write_config(tmp_path, mesh_keys, name="mesh.txt"))
    assert (cfg.n_r_inner, cfg.n_r_outer, cfg.n_theta, cfg.n_modes, cfg.partition_m) == (
        1, 1, 8, 1, 8
    )


def test_write_csv_matches_per_value_formatting(tmp_path):
    # the per-value expression write_csv used before it formatted whole rows
    def old_line(row):
        return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)

    rows = [
        (0, 0.1, np.float64(2.0 / 3.0), -0.0),
        (1, float("nan"), float("inf"), -float("inf")),
        (np.int64(2), 1e-300, 123456789.0, 2**70),
        (3, 5, None, True),  # a column may change its type from row to row
        [4, np.float64(1e22), "text", np.float32(0.1)],
    ]
    cfg = cli.ExperimentConfig()
    path = tmp_path / "rows.csv"
    cli.write_csv(path, ["a", "b", "c", "d"], rows, cfg)
    expected = [f"# config={cli.config_hash(cfg)} seed={cfg.seed}", "a,b,c,d"]
    assert path.read_text() == "\n".join(expected + [old_line(row) for row in rows]) + "\n"
