"""Experiment runner: config parsing, pipeline orchestration, stable outputs.

Configuration is flat key=value INI text under an [experiment] section; all
randomness flows from the single seed through the keys of `paths`: the paths
are keyed (seed, path index), and the condition cloud of `run` is the named
stream "cloud" of seed + 1 (`paths.stream`), a key that no path reaches.
Exit codes:
0 all requested checks satisfied, 1 violations found, 2 configuration error,
3 internal/solver error (the truncation ladder's verdict is only reported).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from configparser import ConfigParser, NoSectionError
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import conditions as cond_mod
from .constants import conjugate_exponent, derive_constants, gamma_integral
from .envelopes import (construct_A2_envelope, construct_A3_envelope, lemmaA1_check,
                        lemmaA2_check, lemmaA3_check, lemma_samples, remainder_check)
from .errors import ConfigurationError, InvalidCoefficientError
from .expressions import ExpressionError, compile_time_function
from .families import FAMILY_REGISTRY
from .generators import (GENERATOR_IDS, TERMINAL_IDS, TruncationIndex, make_generator,
                         make_terminal, truncate_generator, truncate_terminal)
from .paths import (BASIS_KINDS, GRID_SCHEMES, SEED_LIMIT, RegressionBasis, as_step_major,
                    build_grid, sample_paths)
from .solver import SolutionField, solve_bounded, solve_ladder

_BOUND_IDS = ("pointwise", "pointwise-one-sided", "sup", "comparison", "fhat-moment")
# checks that read the convexity tier's int_0^T gamma and need it finite and positive
_GAMMA_INTEGRAL_CHECKS = ("UN-i", "UN-ii", "fhat-moment")


@dataclass
class ExperimentConfig:
    generator: str = "example1"
    expression: str = ""
    terminal: str = "clamp-bt"
    terminal_value: float = 0.0
    terminal_bound: float = 3.0
    terminal_shift: float = 0.0
    alpha: float = 1.5
    beta: str = "0.5"
    gamma: str = "0.25"
    dims: int = 1
    horizon: float = 1.0
    steps: int = 24
    scheme: str = "uniform"
    paths: int = 20000
    seed: int = 7
    basis: str = "polynomial"
    basis_size: int = 3
    basis_lo: float = -5.0
    basis_hi: float = 5.0
    ladder: tuple = (1, 2, 4, 8, 16)
    checks: tuple = ("EX1", "EX2", "pointwise", "sup")
    p: float = 2.0
    cloud_samples: int = 20000
    comparison_shift: float = 1.0
    out: str = "out"

    def beta_fn(self):
        return compile_time_function(self.beta)

    def gamma_fn(self):
        return compile_time_function(self.gamma)


_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse, set the ``overrides`` keys, and validate the result once; reports every
    validation error, not just the first."""
    # values are literal (`%` is not special); ` ; ` starts a comment, as in the README
    parser = ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        parser.read_string(text if text.lstrip().startswith("[") else "[experiment]\n" + text)
        raw = {k: v for k, v in parser.items("experiment") if k not in overrides}
    except NoSectionError:
        raise ConfigurationError("missing [experiment] section") from None
    except Exception as exc:
        raise ConfigurationError(f"malformed configuration text: {exc}") from None
    cfg = ExperimentConfig()
    errors = []

    # every key converts like its default, except the two lists
    convert = {"ladder": lambda s: tuple(int(v) for v in s.replace(",", " ").split()),
               "checks": lambda s: tuple(v.strip() for v in s.split(",") if v.strip())}
    for f in fields(ExperimentConfig):
        if f.name in raw:
            try:
                setattr(cfg, f.name, convert.get(f.name, type(f.default))(raw.pop(f.name)))
            except (TypeError, ValueError) as exc:
                errors.append(f"{f.name}: {exc}")
    for key in raw:
        errors.append(f"unknown key {key!r}")
    return _validate(replace(cfg, **overrides), errors)


def _validate(cfg: ExperimentConfig, errors=()) -> ExperimentConfig:
    """``cfg`` when it describes a runnable experiment; otherwise raise every problem found.

    Each builder runs here on its own, before any path is sampled; the checks
    written out here are those that no builder makes.
    """
    errors = list(errors)
    if cfg.paths < 1:
        errors.append("paths must be >= 1")
    if not 0 <= cfg.seed < SEED_LIMIT - 1:      # run draws its condition cloud from seed + 1
        errors.append(f"seed must lie in [0, 2**64 - 2], got {cfg.seed}")
    if cfg.dims < 1:
        errors.append(f"dims must be >= 1, got {cfg.dims}")
    elif cfg.basis == "piecewise-constant-bins" and cfg.dims != 1:
        errors.append(f"basis piecewise-constant-bins needs dims = 1, got {cfg.dims}")
    if not cfg.p > 1.0:
        errors.append(f"p must exceed 1, got {cfg.p}")
    if cfg.cloud_samples < 1:
        errors.append(f"cloud_samples must be >= 1, got {cfg.cloud_samples}")
    if not cfg.ladder or min(cfg.ladder) < 1:
        errors.append("ladder levels must be positive integers")
    for c in cfg.checks:
        if c not in cond_mod.CONDITION_IDS and c not in _BOUND_IDS:
            errors.append(f"unknown check {c!r}; conditions: {', '.join(cond_mod.CONDITION_IDS)}; "
                          f"bounds: {', '.join(_BOUND_IDS)}")
        elif c in cond_mod._Z_REGULARITY_IDS and cfg.dims != 1:
            errors.append(f"check {c} is stated for scalar noise and needs dims = 1, "
                          f"got {cfg.dims}")
    reported = {}          # bad coefficients; the generator is built on their defaults instead
    for key, fn in (("beta", ExperimentConfig.beta_fn), ("gamma", ExperimentConfig.gamma_fn)):
        try:
            fn(cfg)(0.0)
        except ExpressionError as exc:
            errors.append(f"{key}: {exc}")
            reported[key] = getattr(ExperimentConfig, key)
    for build in (lambda c: conjugate_exponent(c.alpha), _build_terminal, _build_basis,
                  lambda c: _gate_coefficients(replace(c, **reported)),
                  lambda c: build_grid(c.horizon, c.steps, c.scheme)):
        try:
            build(cfg)
        except KeyError as exc:
            errors.append(exc.args[0])
        except ValueError as exc:
            errors.append(str(exc))
    if errors:             # a bad alpha fails its own check and the generator's alike
        raise ConfigurationError(list(dict.fromkeys(errors)))
    return cfg


@dataclass
class ReportDocument:
    config: ExperimentConfig
    constants: dict = field(default_factory=dict)
    condition_reports: list = field(default_factory=list)
    bound_results: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    ladder: dict = field(default_factory=dict)
    fhat_checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    wall_clock: float = 0.0

    @property
    def any_violation(self) -> bool:
        """True unless every check passed: exit 0 claims that all of them were satisfied,
        so an inconclusive or indeterminate verdict counts as well."""
        return (any(r.verdict != "pass" for r in self.condition_reports)
                or any(r.verdict != "satisfied" for r in self.bound_results)
                or any(not c.jensen_consistent for c in self.fhat_checks))


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, columns: dict) -> None:
    keys = list(columns)
    rows = zip(*(columns[k] for k in keys))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(keys)
        for row in rows:
            w.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def _build_generator(cfg: ExperimentConfig):
    return make_generator(cfg.generator, cfg.alpha, beta=cfg.beta_fn(), gamma=cfg.gamma_fn(),
                          d=cfg.dims, horizon=cfg.horizon, expression=cfg.expression or None)


def _gate_coefficients(cfg: ExperimentConfig) -> None:
    """Raise unless the built profile's constants derive on [0, horizon] and each requested
    check of ``_GAMMA_INTEGRAL_CHECKS`` has a convexity-tier gamma that `gamma_integral` admits.
    """
    profile = _build_generator(cfg).profile
    if cfg.horizon <= 0.0:
        return                                   # build_grid reports it
    try:
        derive_constants(cfg.alpha, cfg.horizon, profile.beta, profile.gamma)
    except InvalidCoefficientError as exc:
        # the profile's coefficients can differ from the configured ones: name those too
        named = ", ".join(f"{k} = {getattr(cfg, k)!r}" for k in ("beta", "gamma") if k in str(exc))
        if not named:
            raise
        raise InvalidCoefficientError(f"{exc} ({cfg.generator} builds it from {named})") from None
    for c in cfg.checks:
        if c in _GAMMA_INTEGRAL_CHECKS:
            gamma_integral(profile.convexity_tier()[2], cfg.horizon, f"check {c}'s gamma")


def _build_terminal(cfg: ExperimentConfig):
    return make_terminal(cfg.terminal, value=cfg.terminal_value, bound=cfg.terminal_bound,
                         shift=cfg.terminal_shift)


def _build_basis(cfg: ExperimentConfig) -> RegressionBasis:
    return RegressionBasis(cfg.basis, cfg.basis_size, lo=cfg.basis_lo, hi=cfg.basis_hi)


def run_experiment(cfg: ExperimentConfig) -> ReportDocument:
    """sample -> ladder-solve -> requested checks -> CSVs + report."""
    started = time.perf_counter()
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    gen = _build_generator(cfg)
    grid = build_grid(cfg.horizon, cfg.steps, cfg.scheme)
    bundle = sample_paths(grid, cfg.dims, cfg.paths, cfg.seed)
    basis = _build_basis(cfg)
    prof = gen.profile
    constants = derive_constants(cfg.alpha, cfg.horizon, prof.beta, prof.gamma)

    report = ReportDocument(config=cfg, constants=constants.to_dict(p_values=(cfg.p,)))

    ladder = solve_ladder(gen, _build_terminal(cfg), grid, bundle, basis, cfg.ladder, cfg.ladder)
    sol = ladder.final
    report.ladder = {k: getattr(ladder, k) for k in ("n_levels", "q_levels", "violations",
                                                     "comparisons", "violation_fraction",
                                                     "diagonal_gaps", "verdict")}
    report.summary = sol.summary()
    _write_csv(outdir / "solution.csv", report.summary)

    cloud = cond_mod.build_cloud(cfg.horizon, cfg.dims, cfg.cloud_samples,
                                 "random", seed=cfg.seed + 1)
    # the rung the ladder returned, which the comparison check solves again
    idx = TruncationIndex(ladder.n_levels[-1], ladder.q_levels[-1])

    for check in cfg.checks:
        if check in cond_mod.CONDITION_IDS:
            report.condition_reports.append(cond_mod.check_condition(gen, check, cloud))
        else:
            _check_bound(report, check, gen, constants, sol, idx)

    for r in report.bound_results:
        _write_csv(outdir / f"bound_{r.bound_id}.csv", r.columns())

    report.wall_clock = time.perf_counter() - started
    _write_report(outdir / "report.txt", report)
    return report


def _check_bound(report: ReportDocument, bound_id: str, gen, constants, sol,
                 idx: TruncationIndex) -> None:
    """Run bound check ``bound_id`` on the solved field ``sol`` and record it in ``report``.

    ``sol`` was solved on the rung ``idx`` of the problem ``report.config``; its terminal
    values are its node-N column, which no check writes to.
    """
    cfg, prof, xi_vals = report.config, gen.profile, sol.y(sol.grid.steps)
    if bound_id in ("pointwise", "pointwise-one-sided"):
        side = "two-sided" if bound_id == "pointwise" else "one-sided"
        report.bound_results.append(
            bounds_mod.verify_pointwise_bound(sol, constants, xi_vals, prof.f, side))
    elif bound_id == "sup":
        report.bound_results.append(
            bounds_mod.verify_sup_bound(sol, constants, xi_vals, prof.f, p=cfg.p))
    elif bound_id == "comparison":
        # the allowance includes both fields' regression noise, so a field without it
        # would be compared on a narrower allowance than a fresh solve gets
        if sol.fit_noise is None:
            raise ConfigurationError("the solution has no 'fit_noise' array, which the comparison "
                                     "check needs; re-solve it with `subquad-bsde solve`")
        shifted = replace(cfg, terminal_shift=cfg.terminal_shift + cfg.comparison_shift)
        xi_hi = truncate_terminal(_build_terminal(shifted), idx)
        sol_hi = solve_bounded(truncate_generator(gen, idx), xi_hi, sol.grid, sol.bundle, sol.basis)
        r = bounds_mod.verify_comparison(sol, sol_hi, xi_vals, sol_hi.y(sol.grid.steps))
        if r.witnesses:
            report.notes.append(f"comparison hypothesis violated: terminal ordering xi <= xi' "
                                f"fails on {r.terminal_failures} paths "
                                f"(witnesses {list(r.witnesses[:3])})")
        report.bound_results.append(r)
    else:                                        # "fhat-moment"; ids come from _BOUND_IDS
        fh = bounds_mod.fhat_process(prof, sol)
        chk = bounds_mod.verify_fhat_moment(fh, sol.grid, cfg.p, constants.alpha_star,
                                            gamma=prof.convexity_tier()[2], z_prime=sol.Z)
        report.fhat_checks.append(chk)
        report.notes.append(f"fhat moment: log value {chk.moment.log_value!r} "
                            f"(rel se {chk.moment.se_rel!r}); "
                            f"jensen consistent: {chk.jensen_consistent}")


def _condition_block(r) -> str:
    lines = [f"condition {r.condition_id}: {r.verdict}",
             f"  worst margin  {r.worst_margin!r}",
             f"  samples used  {r.samples_used}"]
    for w in r.witnesses:
        lines.append(f"  witness {w}")
    if r.note:
        lines.append(f"  note: {r.note}")
    return "\n".join(lines)


def _bound_line(r) -> str:
    """The one-line verdict of a bound check, as `run` reports and `verify-bounds` prints it.

    An ``indeterminate`` check states how many of its nodes were undecided
    in place of a margin: the minimum over nodes would come from the nodes
    that were never in doubt, such as the comparison's horizon node.  A
    decided comparison quotes the minimum over nodes 0..N-1 for the same
    reason (node N's allowance holds no fit noise), unless its terminal order
    failed: node N is then the measured failure.
    """
    if r.verdict == "indeterminate":
        return (f"bound {r.bound_id}: indeterminate "
                f"({r.undecided} of {len(r.times)} nodes undecided)")
    margins = r.margin_min[:-1] if r.bound_id == "comparison" and not r.witnesses else r.margin_min
    return (f"bound {r.bound_id}: {r.verdict} (min margin {float(np.min(margins))!r}, "
            f"violation fraction {r.violation_fraction!r})")


def _write_report(path: Path, report: ReportDocument) -> None:
    cfg = report.config
    lines = ["experiment report", "=" * 17, ""]
    lines.append("[config]")
    for k, v in vars(cfg).items():
        lines.append(f"{k} = {v}")
    lines.append("")
    lines.append("[constants]")
    lines.append(json.dumps(report.constants, sort_keys=True, indent=2))
    lines.append("")
    lines.append("[ladder]")
    lines.append(json.dumps(report.ladder, sort_keys=True))
    lines.append("")
    for r in report.condition_reports:
        lines.append(_condition_block(r))
        lines.append("")
    for r in report.bound_results:
        lines.append(_bound_line(r))
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append("")
    lines.append(f"wall clock: {report.wall_clock:.2f} s; seed {cfg.seed}")
    path.write_text("\n".join(lines))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}
    cfg = parse_config(Path(args.config).read_text(), **overrides)
    report = run_experiment(cfg)
    print(Path(cfg.out, "report.txt").read_text())
    return 1 if report.any_violation else 0


def _config_from_flags(args, errors=(), **keys) -> ExperimentConfig:
    """The validated experiment that a subcommand's flags describe; flags are named as keys."""
    flags = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}
    return _validate(ExperimentConfig(**flags, **keys), errors)


def _cmd_check_conditions(args) -> int:
    cfg = _config_from_flags(args, checks=(args.condition,))
    cloud = cond_mod.build_cloud(cfg.horizon, cfg.dims, cfg.cloud_samples,
                                 args.strategy, seed=cfg.seed)
    report = ReportDocument(config=cfg, condition_reports=[
        cond_mod.check_condition(_build_generator(cfg), args.condition, cloud)])
    print(_condition_block(report.condition_reports[0]))
    return 1 if report.any_violation else 0


def _doubling_levels(top: int) -> list[int]:
    # the powers of two below top, then top
    return [2 ** k for k in range(max(top - 1, 0).bit_length())] + [top]


def _cmd_solve(args) -> int:
    n_max, q_max = args.final_rung
    cfg = _config_from_flags(args, ["ladder N_MAX and Q_MAX must be positive integers"]
                             if min(n_max, q_max) < 1 else [])
    grid = build_grid(cfg.horizon, cfg.steps, cfg.scheme)
    bundle = sample_paths(grid, cfg.dims, cfg.paths, cfg.seed)
    ladder = solve_ladder(_build_generator(cfg), _build_terminal(cfg), grid, bundle,
                          _build_basis(cfg), _doubling_levels(n_max), _doubling_levels(q_max))
    sol = ladder.final
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    # the config without the file's own path, so that one solve saved anywhere holds one meta
    meta = {k: v for k, v in vars(cfg).items() if k != "out"} | {
        "n_levels": list(ladder.n_levels), "q_levels": list(ladder.q_levels),
        "n_max": n_max, "q_max": q_max}
    np.savez_compressed(out, Y=sol.Y, Z=sol.Z, nodes=grid.nodes, fit_noise=sol.fit_noise,
                        meta=json.dumps(meta))
    _write_csv(out.with_suffix(".csv"), sol.summary())
    share = f" ({100 * ladder.violation_fraction:.4f}%)" if ladder.comparisons else ""
    print(f"ladder {ladder.verdict}: violations {ladder.violations}/{ladder.comparisons}"
          f"{share}, gaps {list(ladder.diagonal_gaps)}")
    print(f"solution written to {out} (+ {out.with_suffix('.csv').name})")
    return 0


def _load_solution(path: str, **overrides):
    """The saved field, the config it was solved for, and the truncation of its final rung.

    A key the file lacks takes the config default; files written before the whole
    config was saved hold beta and gamma as numbers, which load as their text.  Nodes, Y
    and Z that disagree with the saved config are a configuration error, and so is a terminal
    column Y[:, N] (every check's xi) other than the config's terminal at the final rung.
    """
    path = path if path.endswith(".npz") else path + ".npz"
    data = np.load(path, allow_pickle=False)
    meta = json.loads(str(data["meta"]))
    cfg = ExperimentConfig(**{k: tuple(v) if isinstance(v, list) else v
                              for k, v in meta.items() if k in _CONFIG_KEYS})
    cfg = _validate(replace(cfg, beta=str(cfg.beta), gamma=str(cfg.gamma), **overrides))
    grid = build_grid(cfg.horizon, cfg.steps, cfg.scheme)
    Y, Z = data["Y"], data["Z"]
    if not np.array_equal(data["nodes"], grid.nodes):
        raise ConfigurationError(f"{path}: its nodes differ from the {cfg.steps}-step "
                                 f"{cfg.scheme} grid on [0, {cfg.horizon}] of its config")
    for name, saved, shape in (("Y", Y, (cfg.paths, cfg.steps + 1)),
                               ("Z", Z, (cfg.paths, cfg.steps, cfg.dims))):
        if saved.shape != shape:
            raise ConfigurationError(f"{path}: {name} has shape {saved.shape}, "
                                     f"its config (paths, steps, dims) needs {shape}")
    bundle = sample_paths(grid, cfg.dims, cfg.paths, cfg.seed)
    idx = TruncationIndex(meta["n_max"], meta["q_max"])
    xi = truncate_terminal(_build_terminal(cfg), idx)
    if not np.array_equal(Y[:, -1], xi(bundle.terminal())):
        raise ConfigurationError(f"{path}: its Y[:, {cfg.steps}] is not its config's terminal "
                                 f"truncated at ({idx.n}, {idx.q}) on the paths of seed {cfg.seed}")
    # per-node columns in the solvers' layout, whatever order the file was written in
    sol = SolutionField.from_columns(as_step_major(Y), as_step_major(Z), bundle,
                                     _build_basis(cfg), fit_noise=data.get("fit_noise"))
    return sol, cfg, idx


def _cmd_verify_bounds(args) -> int:
    if args.bound == "fhat-moment" and args.out:
        raise ConfigurationError("--out: fhat-moment writes no CSV; it has no per-node rows, "
                                 "and its values are on its note line")
    sol, cfg, idx = _load_solution(args.run, p=args.p, checks=(args.bound,))
    gen = _build_generator(cfg)
    prof = gen.profile
    constants = derive_constants(cfg.alpha, cfg.horizon, prof.beta, prof.gamma)
    report = ReportDocument(config=cfg)
    _check_bound(report, args.bound, gen, constants, sol, idx)
    for r in report.bound_results:
        if args.out:
            _write_csv(Path(args.out), r.columns())
        print(_bound_line(r))
    for note in report.notes:
        print(note)
    return 1 if report.any_violation else 0


def _cmd_lemma_tests(args) -> int:
    if args.samples < 1:
        raise ConfigurationError(f"samples must be >= 1, got {args.samples}")
    if not 0 <= args.seed < SEED_LIMIT:
        raise ConfigurationError(f"seed must lie in [0, 2**64), got {args.seed}")
    families = FAMILY_REGISTRY[args.lemma]
    names = [args.family] if args.family else list(families)
    samples = lemma_samples(args.samples, seed=args.seed)
    status = 0
    for name in names:
        if name not in families:
            raise ConfigurationError(f"unknown family {name!r} for {args.lemma}; "
                                     f"have: {', '.join(families)}")
        f = families[name](args.seed)
        extra, remainder = "", "pass"           # A1 has no remainder
        if args.lemma == "A1":
            r = lemmaA1_check(f, f.k1, f.k2, samples)
        else:
            build, check = ((construct_A2_envelope, lemmaA2_check) if args.lemma == "A2"
                            else (construct_A3_envelope, lemmaA3_check))
            con = build(f, f.a, f.k)
            r = check(f, f.a, f.k, samples, construction=con)
            remainder = remainder_check(con, samples).verdict
            extra = f"; remainder {remainder}"
        print(f"{args.lemma}/{name}: {r.verdict} (worst margin {r.worst_margin!r}){extra}")
        if r.verdict != "pass" or remainder != "pass":
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="subquad-bsde",
                                description="BSDE simulation and verification toolkit")
    sub = p.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, formatter_class=argparse.ArgumentDefaultsHelpFormatter))
    defaults = ExperimentConfig()

    def keys(sp, *flags, **kwargs):
        # flags that set the config keys they name, typed and defaulted like those keys
        for flag in flags:
            dest = kwargs.get("dest", flag[2:].replace("-", "_"))
            default = getattr(defaults, dest)
            sp.add_argument(flag, **{"dest": dest, "type": type(default), "default": default,
                                     "help": f"config key {dest}", **kwargs})

    def add_generator_args(sp):
        keys(sp, "--generator", choices=GENERATOR_IDS)
        keys(sp, "--expression", help="driver of custom-expression, over t, y, z, z1..z9, babs")
        keys(sp, "--alpha", "--dims", "--horizon", "--seed")
        keys(sp, "--beta", "--gamma", help="constant or expression of t")

    sp = sub.add_parser("check-conditions", help="sampled verdict for one structural condition")
    add_generator_args(sp)
    sp.add_argument("--condition", required=True, choices=cond_mod.CONDITION_IDS)
    keys(sp, "--samples", dest="cloud_samples")
    sp.add_argument("--strategy", default="random", help="placement of the sample cloud",
                    choices=("random", "grid", "adversarial-corner"))
    sp.set_defaults(fn=_cmd_check_conditions)

    sp = sub.add_parser("solve", help="truncation-ladder solve, write solution + summary CSV")
    add_generator_args(sp)
    keys(sp, "--terminal", choices=TERMINAL_IDS)
    keys(sp, "--terminal-value", "--terminal-bound", "--terminal-shift", "--steps")
    keys(sp, "--scheme", choices=GRID_SCHEMES)
    keys(sp, "--paths")
    sp.add_argument("--ladder", type=int, nargs=2, default=(16, 16), help="top truncation levels",
                    metavar=("N_MAX", "Q_MAX"), dest="final_rung")
    keys(sp, "--basis", choices=BASIS_KINDS)
    keys(sp, "--basis-size", "--basis-lo", "--basis-hi")
    sp.add_argument("--out", default="solution.npz", help="solution file")
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("verify-bounds", help="check an a-priori bound on a saved solution")
    sp.add_argument("--run", required=True, help="solution .npz written by solve")
    sp.add_argument("--bound", required=True, choices=_BOUND_IDS)
    keys(sp, "--p")
    sp.add_argument("--out", default=None, help="optional CSV path (none for fhat-moment)")
    sp.set_defaults(fn=_cmd_verify_bounds)

    sp = sub.add_parser("lemma-tests", help="randomized sweeps of the band inequalities")
    sp.add_argument("--lemma", required=True, choices=("A1", "A2", "A3"))
    sp.add_argument("--family", default=None, help="one family; all of the lemma's if unset")
    sp.add_argument("--samples", type=int, default=10000, help="sampled triples")
    sp.add_argument("--seed", type=int, default=0, help="seed of the samples and families")
    sp.set_defaults(fn=_cmd_lemma_tests)

    sp = sub.add_parser("run", help="full pipeline from a config file")
    sp.add_argument("--config", required=True)
    keys(sp, "--out", "--seed", "--paths", "--steps", default=argparse.SUPPRESS,
         help="overrides the config file's key")
    sp.set_defaults(fn=_cmd_run)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except Exception as exc:                     # noqa: BLE001 - exit-code contract
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
