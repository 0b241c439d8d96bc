import json
from pathlib import Path

import numpy as np
import pytest

from subquad_bsde.cli import build_parser, main, parse_config, run_experiment
from subquad_bsde.errors import ConfigurationError

MINIMAL = """
[experiment]
generator = example1
steps = 32
paths = 1000
alpha = 1.5
seed = 7
"""

SMALL_RUN = """
[experiment]
generator = example1
terminal = clamp-bt
terminal_bound = 3.0
alpha = 1.5
beta = 0.5
gamma = 0.25
steps = 8
paths = 1500
seed = 7
basis = piecewise-constant-bins
basis_size = 12
basis_lo = -4.0
basis_hi = 4.0
ladder = 1, 2
cloud_samples = 2000
checks = EX1, UNprime-i, pointwise, comparison
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.generator == "example1"
    assert cfg.steps == 32 and cfg.paths == 1000 and cfg.seed == 7


def test_parse_rejects_alpha_out_of_range():
    with pytest.raises(ConfigurationError) as err:
        parse_config(MINIMAL.replace("alpha = 1.5", "alpha = 2.0"))
    assert any("alpha must lie in (1,2)" in m for m in err.value.messages)


def test_parse_unknown_generator_lists_catalog():
    with pytest.raises(ConfigurationError) as err:
        parse_config(MINIMAL.replace("example1", "example9"))
    assert any("example9" in m and "catalog" in m for m in err.value.messages)


def test_parse_collects_all_errors():
    bad = (MINIMAL.replace("alpha = 1.5", "alpha = 2.5")
           .replace("example1", "nope")
           .replace("paths = 1000", "paths = -3"))
    bad += "mystery = 1\n"
    with pytest.raises(ConfigurationError) as err:
        parse_config(bad)
    assert len(err.value.messages) >= 4


def test_parse_malformed_text():
    with pytest.raises(ConfigurationError):
        parse_config(MINIMAL + "paths = 1\n")     # duplicate key


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = parse_config(SMALL_RUN)
    cfg.out = str(tmp_path / "runA")
    report = run_experiment(cfg)
    assert not report.any_violation
    out = Path(cfg.out)
    assert (out / "report.txt").exists()
    assert (out / "solution.csv").exists()
    with open(out / "solution.csv") as fh:
        header = fh.readline().strip()
    assert header == "time,y_mean,y_q05,y_q95,z_norm_mean"
    text = (out / "report.txt").read_text()
    assert "log_K" in text and "condition EX1: pass" in text


def test_run_reproducible_byte_identical(tmp_path):
    cfg1 = parse_config(SMALL_RUN)
    cfg1.out = str(tmp_path / "r1")
    run_experiment(cfg1)
    cfg2 = parse_config(SMALL_RUN)
    cfg2.out = str(tmp_path / "r2")
    run_experiment(cfg2)
    for name in ("solution.csv", "bound_pointwise-two-sided.csv", "bound_comparison.csv"):
        a = (Path(cfg1.out) / name).read_bytes()
        b = (Path(cfg2.out) / name).read_bytes()
        assert a == b, name


def test_comparison_hypothesis_violation_recorded(tmp_path):
    text = SMALL_RUN + "comparison_shift = -1.0\n"
    cfg = parse_config(text)
    cfg.out = str(tmp_path / "bad")
    report = run_experiment(cfg)
    assert report.any_violation
    assert any("hypothesis violated" in note for note in report.notes)
    assert "note: comparison hypothesis violated" in (Path(cfg.out) / "report.txt").read_text()


def test_main_exit_codes(tmp_path):
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(SMALL_RUN + f"out = {tmp_path / 'run'}\n")
    assert main(["run", "--config", str(cfg_file)]) == 0

    bad_file = tmp_path / "bad.ini"
    bad_file.write_text(MINIMAL.replace("alpha = 1.5", "alpha = 9"))
    assert main(["run", "--config", str(bad_file)]) == 2


def test_check_conditions_command(capsys):
    rc = main(["check-conditions", "--generator", "example1", "--condition", "EX1",
               "--samples", "2000", "--seed", "3"])
    assert rc == 0
    assert "condition EX1: pass" in capsys.readouterr().out

    rc = main(["check-conditions", "--generator", "custom-expression",
               "--expression", "z^2", "--condition", "EX1", "--samples", "2000"])
    assert rc == 1


def test_solve_and_verify_roundtrip(tmp_path, capsys):
    sol_file = str(tmp_path / "sol.npz")
    rc = main(["solve", "--generator", "example2", "--terminal", "clamp-bt",
               "--steps", "8", "--paths", "1500", "--ladder", "4", "4",
               "--seed", "5", "--out", sol_file])
    assert rc == 0
    assert Path(sol_file).exists() and Path(sol_file).with_suffix(".csv").exists()
    capsys.readouterr()

    rc = main(["verify-bounds", "--run", sol_file, "--bound", "sup", "--p", "2"])
    assert rc == 0
    assert "satisfied" in capsys.readouterr().out

    rc = main(["verify-bounds", "--run", sol_file, "--bound", "fhat-moment"])
    assert rc == 0


def test_lemma_tests_command(capsys):
    rc = main(["lemma-tests", "--lemma", "A3", "--family", "abs", "--samples", "3000"])
    assert rc == 0
    assert "A3/abs: pass" in capsys.readouterr().out
    rc = main(["lemma-tests", "--lemma", "A1", "--samples", "2000"])
    assert rc == 0


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


EXPRESSION_RUN = """
[experiment]
generator = custom-expression
expression = 0 - abs(y) + 0.1*z1
terminal = constant
terminal_value = 1.0
alpha = 1.5
beta = 0.5*exp(0-t)
gamma = 0.25
steps = 8
paths = 1200
seed = 3
ladder = 1, 4
cloud_samples = 1000
checks = pointwise, sup
"""


def test_run_with_expression_generator_and_coefficients(tmp_path):
    from subquad_bsde.cli import parse_config, run_experiment
    cfg = parse_config(EXPRESSION_RUN)
    cfg.out = str(tmp_path / "expr")
    report = run_experiment(cfg)
    assert not report.any_violation
    assert cfg.beta_fn()(0.0) == pytest.approx(0.5)


def test_parse_rejects_bad_expression():
    bad = EXPRESSION_RUN.replace("beta = 0.5*exp(0-t)", "beta = import os")
    with pytest.raises(ConfigurationError) as err:
        parse_config(bad)
    assert any("beta" in m for m in err.value.messages)


def test_verify_bounds_writes_csv(tmp_path, capsys):
    sol_file = str(tmp_path / "s.npz")
    main(["solve", "--generator", "example1", "--steps", "6", "--paths", "1000",
          "--ladder", "2", "2", "--seed", "1", "--out", sol_file])
    csv_file = tmp_path / "bound.csv"
    rc = main(["verify-bounds", "--run", sol_file, "--bound", "pointwise",
               "--out", str(csv_file)])
    assert rc == 0
    header = csv_file.read_text().splitlines()[0]
    assert header == "time,log_lhs,log_rhs,se,verdict"


def test_verify_bounds_uses_saved_zero_coefficients(tmp_path, monkeypatch):
    import subquad_bsde.cli as cli
    sol_file = str(tmp_path / "z.npz")
    assert main(["solve", "--generator", "example1", "--beta", "0", "--gamma", "0",
                 "--steps", "6", "--paths", "800", "--ladder", "2", "2", "--seed", "2",
                 "--out", sol_file]) == 0
    seen = []
    real = cli.make_generator

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "make_generator", spy)
    main(["verify-bounds", "--run", sol_file, "--bound", "sup"])
    assert seen and seen[-1]["beta"] == 0.0 and seen[-1]["gamma"] == 0.0


def test_verify_bounds_on_custom_expression_solve(tmp_path, capsys):
    sol_file = str(tmp_path / "e.npz")
    assert main(["solve", "--generator", "custom-expression",
                 "--expression", "0 - abs(y) + 0.1*z1", "--terminal", "constant",
                 "--terminal-value", "1.0", "--steps", "6", "--paths", "1000",
                 "--ladder", "2", "2", "--seed", "3", "--out", sol_file]) == 0
    capsys.readouterr()
    rc = main(["verify-bounds", "--run", sol_file, "--bound", "sup"])
    assert rc == 0, capsys.readouterr().err


def test_solve_basis_range_saved_and_reloaded(tmp_path, monkeypatch):
    import subquad_bsde.cli as cli
    from subquad_bsde import RegressionBasis
    sol_file = str(tmp_path / "b.npz")
    assert main(["solve", "--generator", "example2", "--basis", "piecewise-constant-bins",
                 "--basis-size", "12", "--basis-lo", "-2.5", "--basis-hi", "2.5",
                 "--steps", "6", "--paths", "1000", "--ladder", "2", "2", "--seed", "4",
                 "--out", sol_file]) == 0
    expected = RegressionBasis("piecewise-constant-bins", 12, lo=-2.5, hi=2.5)
    assert cli._load_solution(sol_file)[0].basis == expected

    # the comparison check re-solves on the basis the run was solved on
    seen = []
    real = cli.solve_bounded

    def spy(*args, **kwargs):
        seen.append(args[4])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_bounded", spy)
    main(["verify-bounds", "--run", sol_file, "--bound", "comparison"])
    assert seen and all(basis == expected for basis in seen)

    # files saved without the range were solved on the default [-5, 5]
    data = dict(np.load(sol_file))
    meta = json.loads(str(data.pop("meta")))
    del meta["basis_lo"], meta["basis_hi"]
    old_file = str(tmp_path / "old.npz")
    np.savez_compressed(old_file, meta=json.dumps(meta), **data)
    loaded = cli._load_solution(old_file)[0].basis
    assert (loaded.lo, loaded.hi) == (-5.0, 5.0)
