"""Command-line interface.

Subcommands: integrate, verify, sweep, validate-model.  Exit status contract:
0 success, 1 a verification or validation check failed, 2 configuration or
usage errors and output-write errors, 3 solver failures (non-convergence,
window collapse, step underflow).  All files are written atomically (temp
file + rename), and a command whose later write fails removes the files it
already wrote, so a crashed run never leaves a partial artifact behind.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import config as cfgmod
from .errors import (ConfigError, ContractionViolationError, DomainError,
                     ModelValidationError, NonConvergenceError, StepSizeUnderflowError,
                     StreamuniqError, WindowCollapseError)
from .picard import picard_solve
from .rk import rk_solve
from .svgplot import line_plot
from .verify import (CONTRACTION_RATIO_MAX, CROSS_METHOD_SUP_MAX, LOWER_BOUND_TOL,
                     continuity_sweep, default_r_max, run_uniqueness_analysis)
from .vorticity import validate_hypotheses

# exit 2: configuration and usage errors, and output directories or files
# that cannot be written
_CONFIG_ERRORS = (ConfigError, DomainError, ModelValidationError, OSError)
_SOLVER_ERRORS = (NonConvergenceError, WindowCollapseError, StepSizeUnderflowError)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


CSV_BLOCK_ROWS = 65536


def write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_csv(path: str, header: str, columns) -> None:
    """Write equal-length columns of floats, one %.17g row per index.

    Rows are formatted CSV_BLOCK_ROWS at a time, so the Python floats of
    only one block exist next to the text being built.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    parts = [header + "\n"]
    for start in range(0, columns[0].size, CSV_BLOCK_ROWS):
        block = [c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns]
        parts.append("".join(map(row.format, *block)))
    write_atomic(path, "".join(parts))


def write_trajectory_csv(path: str, traj) -> None:
    write_csv(path, "r,psi,u", (traj.nodes, traj.psi, traj.u))


def _write_artifacts(out: str, artifacts) -> None:
    """Call write(os.path.join(out, name)) for each (name, write) in order.

    When one write fails, the files already written by this call are removed
    before the error propagates, so a run never leaves a partial set behind.
    """
    written = []
    try:
        for name, write in artifacts:
            path = os.path.join(out, name)
            write(path)
            written.append(path)
    except BaseException:
        for path in written:
            os.remove(path)
        raise


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI run configuration")
    common.add_argument("--out", dest="out_dir", metavar="OUT",
                        help="output directory (default: out; validate-model "
                             "writes only when one is given)")
    common.add_argument("--r0", type=float, help="left endpoint, >= 1")
    common.add_argument("--psi1", type=float, help="initial slope, nonzero")
    common.add_argument("--model", dest="model_kind",
                        choices=["classical", "oscillatory", "custom"],
                        help="vorticity model kind")
    common.add_argument("--tol", type=float,
                        help="solver tolerance (fixed-point tol and RK rel_tol)")

    parser = argparse.ArgumentParser(
        prog="streamuniq",
        description="Solve the radial stream-function problem two ways and "
                    "certify local uniqueness numerically.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", parents=[common],
                           help="run one solver and write the trajectory")
    p_int.add_argument("--method", choices=["picard", "rk"], help="solver to use")
    p_ver = sub.add_parser("verify", parents=[common],
                           help="run both solvers and the uniqueness checks")
    p_sw = sub.add_parser("sweep", parents=[common],
                          help="continuity sweep over initial slopes")
    # parsed in _load, so a bad list is a ConfigError (exit 2), not a traceback
    p_sw.add_argument("--psi1-values", dest="sweep_psi1", metavar="PSI1_VALUES",
                      help="comma list, first value is the baseline")
    for p in (p_int, p_ver, p_sw):
        p.add_argument("--r-max", type=float, help="right endpoint")
        p.add_argument("--nodes", type=int, dest="grid_n", metavar="NODES",
                       help="grid node count")

    sub.add_parser("validate-model", parents=[common],
                   help="sample the model hypotheses and report")
    return parser


def _load(args) -> cfgmod.RunConfig:
    """The config file (or the defaults), overridden by every flag given.

    Each flag's dest is the RunConfig field it sets; --tol also sets rel_tol.
    """
    cfg = cfgmod.load_config(args.config) if args.config else cfgmod.RunConfig()
    names = {f.name for f in fields(cfg)}
    for name, value in vars(args).items():
        if value is not None and name in names:
            setattr(cfg, name, value)
    if args.tol is not None:
        cfg.rel_tol = args.tol
    if getattr(args, "sweep_psi1", None) is not None:
        cfg.sweep_psi1 = cfgmod.parse_float_list(args.sweep_psi1)
    return cfg


def _outdir(cfg: cfgmod.RunConfig) -> str:
    out = cfg.out_dir if cfg.out_dir is not None else "out"
    os.makedirs(out, exist_ok=True)
    return out


def cmd_integrate(cfg: cfgmod.RunConfig) -> int:
    model = cfgmod.build_model(cfg)
    r_max = cfg.r_max if cfg.r_max is not None else 2.0 * cfg.r0
    grid = cfgmod.build_grid(cfg, cfg.r0, r_max)
    if cfg.method == "picard":
        traj, diag = picard_solve(model, cfg.r0, cfg.psi1, grid,
                                  tol=cfg.tol, max_iter=cfg.max_iter)
        log_lines = ["method = picard",
                     f"iterations = {diag.iterations}",
                     f"converged = {_fmt(diag.converged)}",
                     "weighted_deltas = " + ",".join(_fmt(d) for d in diag.weighted_deltas)]
    elif cfg.method == "rk":
        traj, diag = rk_solve(model, cfg.r0, cfg.psi1, r_max,
                              control=cfgmod.build_control(cfg), output_grid=grid)
        log_lines = ["method = rk",
                     f"accepted_steps = {diag.n_accepted}",
                     f"rejected_steps = {diag.n_rejected}",
                     f"h_final = {_fmt(diag.h_final)}",
                     f"rel_tol = {_fmt(diag.rel_tol)}",
                     f"abs_tol = {_fmt(diag.abs_tol)}"]
    else:
        raise ConfigError(f"unknown method {cfg.method!r}")
    _write_artifacts(_outdir(cfg), (
        ("trajectory.csv", lambda path: write_trajectory_csv(path, traj)),
        ("run_log.txt", lambda path: write_atomic(path, "\n".join(log_lines) + "\n"))))
    print(f"window_end = {_fmt(traj.window_end)}")
    print(f"psi_at_r_max = {_fmt(traj.psi[-1])}")
    return 0


def cmd_verify(cfg: cfgmod.RunConfig) -> int:
    model = cfgmod.build_model(cfg)
    out = _outdir(cfg)
    hypothesis = validate_hypotheses(model)
    checks: list[tuple[str, bool]] = [
        ("sign_condition", hypothesis.sign_margin > 0.0),
        ("holder_bound", hypothesis.holder_sup <= model.holder_C),
    ]
    if not hypothesis.verdict:
        for name, ok in checks:
            print(f"{name}: {'PASS' if ok else 'FAIL'}")
        print("verdict = false")
        return 1

    r_max = cfg.r_max
    if r_max is None:
        r_max = default_r_max(model, cfg.r0, cfg.psi1)
    grid = cfgmod.build_grid(cfg, cfg.r0, r_max)
    try:
        result = run_uniqueness_analysis(
            model, r0=cfg.r0, psi1=cfg.psi1, r_max=r_max, grid=grid,
            picard_tol=cfg.tol, picard_max_iter=cfg.max_iter,
            control=cfgmod.build_control(cfg))
        report = result.report
        checks.append(("lower_bound", report.lower_bound_margin >= -LOWER_BOUND_TOL))
        checks.append(("contraction", report.contraction_ratio <= CONTRACTION_RATIO_MAX))
        checks.append(("cross_method", report.cross_method_weighted_sup <= CROSS_METHOD_SUP_MAX))
    except ContractionViolationError as exc:
        checks.append(("contraction", False))
        for name, ok in checks:
            print(f"{name}: {'PASS' if ok else 'FAIL'}")
        print(f"contraction violated at r = {_fmt(exc.r_at)} (excess {_fmt(exc.excess)})")
        print("verdict = false")
        return 1

    lines = [f"{key} = {_fmt(value)}" for key, value in report.as_dict().items()]
    lines.append(f"sign_margin = {_fmt(hypothesis.sign_margin)}")
    lines.append(f"holder_sup = {_fmt(hypothesis.holder_sup)}")
    lines.append(f"holder_C = {_fmt(model.holder_C)}")
    trace_r = [r for r, _ in report.deviation_limit_trace]
    trace_y = [y for _, y in report.deviation_limit_trace]
    # each trajectory's CSV text is built inside its own write, one at a time
    _write_artifacts(out, (
        ("report.txt", lambda path: write_atomic(path, "\n".join(lines) + "\n")),
        ("trace.csv", lambda path: write_csv(path, "r,y", (trace_r, trace_y))),
        ("trajectory_picard.csv",
         lambda path: write_trajectory_csv(path, result.traj_picard)),
        ("trajectory_rk.csv", lambda path: write_trajectory_csv(path, result.traj_rk)),
        ("trace.svg", lambda path: write_atomic(path, line_plot(
            [("weighted deviation", trace_r, trace_y)],
            "Cross-method weighted deviation toward r0", "r", "y(r)")))))

    for name, ok in checks:
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    print(f"verdict = {_fmt(report.verdict)}")
    return 0 if report.verdict and all(ok for _, ok in checks) else 1


def cmd_sweep(cfg: cfgmod.RunConfig) -> int:
    model = cfgmod.build_model(cfg)
    r_max = cfg.r_max if cfg.r_max is not None else 2.0 * cfg.r0
    grid = cfgmod.build_grid(cfg, cfg.r0, r_max)
    rows = continuity_sweep(model, cfg.r0, cfg.sweep_psi1, r_max=r_max,
                            grid=grid, tol=cfg.tol)
    xs = [r for r, _ in rows]
    ys = [s for _, s in rows]
    _write_artifacts(_outdir(cfg), (
        ("sweep.csv", lambda path: write_csv(path, "dpsi1,sup_dev", (xs, ys))),
        ("sweep.svg", lambda path: write_atomic(path, line_plot(
            [("sup deviation", xs, ys)],
            "Weighted deviation vs initial-slope perturbation", "dpsi1", "sup_dev")))))
    for dpsi1, sup_dev in rows:
        print(f"dpsi1 = {_fmt(dpsi1)}  sup_dev = {_fmt(sup_dev)}")
    return 0


def cmd_validate_model(cfg: cfgmod.RunConfig) -> int:
    model = cfgmod.build_model(cfg)
    report = validate_hypotheses(model)
    lines = [f"kind = {model.kind}",
             f"delta = {_fmt(model.delta)}",
             f"holder_C = {_fmt(model.holder_C)}",
             f"sign_margin = {_fmt(report.sign_margin)}",
             f"holder_sup = {_fmt(report.holder_sup)}",
             f"samples_used = {report.samples_used}",
             f"verdict = {_fmt(report.verdict)}"]
    text = "\n".join(lines)
    print(text)
    # a bare run only prints; --out or [run] out also writes the file
    if cfg.out_dir is not None:
        write_atomic(os.path.join(_outdir(cfg), "hypothesis.txt"), text + "\n")
    return 0 if report.verdict else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load(args)
        if args.command == "integrate":
            return cmd_integrate(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "validate-model":
            return cmd_validate_model(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except StreamuniqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
