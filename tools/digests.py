"""sha256 digests of what the solvers and the command line produce.

    python tools/digests.py TREE OUT.json

TREE is a checkout of this repository.  The script imports ``streamuniq``
from TREE/src and the seeded benchmark cases from TREE/perfbench, then
digests:

- the 256 cert-batch analyses (seeds 0 and 1): Picard and RK ``psi``/``u``,
  the report, the hypothesis report, the deviation trace, the Picard deltas,
  the RK diagnostics and the window (the report's ``r2``, binding
  constraint and effective end, and each trajectory's band exit), or the
  error an analysis raised;
- the ``continuity_sweep`` rows of 8 sweep-fine cases;
- the hypothesis report of each of the six benchmark laws, on a freshly
  built model (``api/hypothesis/<law>``) and on that model again after one
  analysis (``api/hypothesis-reused/<law>``);
- the error ``rk_solve`` raises when the step size underflows, driven by
  ``underflow_law`` below;
- stdout, stderr, exit code and every artifact of a fixed set of
  ``python -m streamuniq`` command lines, each run in a fresh directory;
  the ``validate-model`` runs print the sampled hypothesis report, and the
  two custom laws without ``holder_c`` their automatic ``holder_C``;
  ``sweep-mixed`` mixes signs and repeats its baseline, so it covers the
  sweep's reuse of a solved slope and its same-sign continuation;
  ``integrate-rk-underflow`` runs ``underflow_law`` (the child imports it
  from this script's directory), ``verify-tol-zero`` pins which input
  check answers ``--tol 0``, and ``verify-cross-method-fail`` (a loose
  tolerance on 33 nodes) pins how a failed check ends a run: its ``FAIL``
  line, exit 1 and all five artifacts.

OUT.json holds one digest per line, so two trees compare with ``cmp`` and
``diff`` names the items that differ.  Needs only the standard library and
numpy.  A full run takes 30-40 s on a 2-core machine, most of it in the two
1048577-node ``verify`` runs: ``verify-1m`` (classical, positive values only)
and ``verify-1m-oscillatory-neg`` (``psi1 = -1.3``, whose CSVs add ``-0``,
negative values and exponent-form values at 1M rows).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def cert_digests(out: dict) -> None:
    from perfbench.workloads import build_models, make_case
    from streamuniq import StreamuniqError
    from streamuniq.verify import run_uniqueness_analysis

    models = build_models("cert-batch")
    for seed in (0, 1):
        for i in range(128):
            case = make_case("cert-batch", seed, i)
            key = f"cert/{seed}/{i:03d}"
            try:
                res = run_uniqueness_analysis(models[case.model], r0=case.r0, psi1=case.psi1)
            except StreamuniqError as exc:
                out[key + "/error"] = sha(error_text(exc))
                continue
            rep, dp, drk = res.report, res.picard_diagnostics, res.rk_diagnostics
            out[key + "/picard_psi"] = sha(res.traj_picard.psi.tobytes())
            out[key + "/picard_u"] = sha(res.traj_picard.u.tobytes())
            out[key + "/rk_psi"] = sha(res.traj_rk.psi.tobytes())
            out[key + "/rk_u"] = sha(res.traj_rk.u.tobytes())
            out[key + "/report"] = sha(repr(rep.as_dict()))
            out[key + "/hypothesis"] = sha(repr(res.hypothesis))
            out[key + "/trace"] = sha(repr(rep.deviation_limit_trace))
            out[key + "/picard_deltas"] = sha(repr((dp.iterations, dp.converged,
                                                    dp.weighted_deltas)))
            out[key + "/rk_diagnostics"] = sha(repr(drk))
            out[key + "/window"] = sha(repr((rep.r2, rep.binding_constraint,
                                             rep.window_end_effective,
                                             res.traj_picard.window_end,
                                             res.traj_rk.window_end)))


def sweep_digests(out: dict) -> None:
    from perfbench.workloads import build_models, make_case, sweep_op, sweep_prepare

    models = build_models("sweep-fine")
    for i in range(8):
        case = make_case("sweep-fine", 0, i)
        rows = sweep_op(models, case, sweep_prepare(case))
        out[f"sweep/{i}"] = sha(repr([(float(d), float(s)) for d, s in rows]))


def hypothesis_digests(out: dict) -> None:
    from perfbench.workloads import MODEL_FACTORIES
    from streamuniq.verify import run_uniqueness_analysis
    from streamuniq.vorticity import validate_hypotheses

    for law, factory in MODEL_FACTORIES.items():
        model = factory()
        out[f"api/hypothesis/{law}"] = sha(repr(validate_hypotheses(model)))
        run_uniqueness_analysis(model, r0=1.0, psi1=1.0)
        out[f"api/hypothesis-reused/{law}"] = sha(repr(validate_hypotheses(model)))


def underflow_law(psi: float) -> float:
    """The classical law plus 1e9 where |psi| > 0.3.

    Validation samples only |psi| <= delta = 0.25, so the law passes it;
    the RK step collapses where the solution crosses 0.3.
    """
    f = psi - psi / math.sqrt(abs(psi)) if psi != 0.0 else 0.0
    return f + 1.0e9 if abs(psi) > 0.3 else f


def underflow_digest(out: dict) -> None:
    from streamuniq import StepSizeUnderflowError, VorticityModel, rk_solve

    try:
        rk_solve(VorticityModel.custom(underflow_law), 1.0, 1.0, 2.0)
    except StepSizeUnderflowError as exc:
        out["api/underflow"] = sha(repr((error_text(exc), exc.r_at)))
    else:
        out["api/underflow"] = "no error"


ZERO_AUTO_C_INI = "[model]\nkind = custom\npath = streamuniq.vorticity:zero_vorticity\n"
ZERO_INI = ZERO_AUTO_C_INI + "holder_c = 1.0\n"
ROOT_AUTO_C_INI = "[model]\nkind = custom\npath = perfbench.workloads:odd_root_law\n"
UNDERFLOW_INI = "[model]\nkind = custom\npath = digests:underflow_law\n"

# (name, argv after "python -m streamuniq", config text or None); a config is
# written to run.ini in the run directory and passed with --config
COMMANDS = (
    ("verify", ["verify"], None),
    ("verify-4097-neg", ["verify", "--nodes", "4097", "--psi1", "-0.7"], None),
    ("verify-oscillatory-neg", ["verify", "--model", "oscillatory", "--psi1", "-1.3"], None),
    ("verify-zero", ["verify"], ZERO_INI),
    ("verify-tol-zero", ["verify", "--tol", "0"], None),
    ("verify-cross-method-fail", ["verify", "--tol", "1e-3", "--nodes", "33"], None),
    ("verify-1m", ["verify", "--nodes", "1048577", "--r-max", "1.5"], None),
    ("verify-1m-oscillatory-neg", ["verify", "--model", "oscillatory", "--psi1", "-1.3",
                                   "--nodes", "1048577", "--r-max", "1.5"], None),
    ("integrate-picard-pos", ["integrate", "--method", "picard", "--psi1", "0.8"], None),
    ("integrate-picard-neg", ["integrate", "--method", "picard", "--psi1", "-0.8"], None),
    ("integrate-rk-pos", ["integrate", "--method", "rk", "--psi1", "0.8"], None),
    ("integrate-rk-neg", ["integrate", "--method", "rk", "--psi1", "-0.8"], None),
    ("integrate-rk-underflow", ["integrate", "--method", "rk"], UNDERFLOW_INI),
    ("integrate-window-collapse",
     ["integrate", "--psi1", "50", "--nodes", "5", "--r-max", "3"], None),
    ("sweep", ["sweep"], None),
    ("sweep-mixed", ["sweep", "--psi1-values", "1.0,-1.0,0.5,1.0,2.0,-0.5"], None),
    ("validate-classical", ["validate-model"], None),
    ("validate-oscillatory", ["validate-model", "--model", "oscillatory"], None),
    ("validate-zero-auto-c", ["validate-model"], ZERO_AUTO_C_INI),
    ("validate-root-auto-c", ["validate-model"], ROOT_AUTO_C_INI),
)


def cli_digests(out: dict, tree: str) -> None:
    # the tree itself is on the path for the perfbench law, this script's
    # directory for underflow_law
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(tree, "src"), tree, here]))
    for name, argv, ini in COMMANDS:
        with tempfile.TemporaryDirectory() as run_dir:
            if ini is not None:
                with open(os.path.join(run_dir, "run.ini"), "w", encoding="utf-8") as fh:
                    fh.write(ini)
                argv = argv + ["--config", "run.ini"]
            proc = subprocess.run([sys.executable, "-m", "streamuniq", *argv], cwd=run_dir,
                                  env=env, capture_output=True, check=False)
            key = f"cli/{name}"
            out[key + "/exit"] = str(proc.returncode)
            out[key + "/stdout"] = sha(proc.stdout)
            out[key + "/stderr"] = sha(proc.stderr)
            out_dir = os.path.join(run_dir, "out")
            out[key + "/out"] = (" ".join(sorted(os.listdir(out_dir)))
                                 if os.path.isdir(out_dir) else "absent")
            if os.path.isdir(out_dir):
                for artifact in sorted(os.listdir(out_dir)):
                    with open(os.path.join(out_dir, artifact), "rb") as fh:
                        out[f"{key}/{artifact}"] = sha(fh.read())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    tree, out_path = os.path.abspath(argv[0]), argv[1]
    sys.path[:0] = [os.path.join(tree, "src"), tree]
    out: dict = {}
    cert_digests(out)
    sweep_digests(out)
    hypothesis_digests(out)
    underflow_digest(out)
    cli_digests(out, tree)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
