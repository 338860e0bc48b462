"""streamuniq benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload cert-batch --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file, and the benchmark refuses to run without it.  One
client issues one op at a time; ``verify-1m`` starts one child process per
op.  Workloads and their inputs are described in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median over
fresh interpreters that import streamuniq and build the workload's inputs),
``ops_per_s``, ``op_p50_ms`` and ``peak_rss_mb`` of the process doing the
work.  It also prints ``op_tail_ms`` (when at least 20 ops ran) and
``failed_share``, which are not in the result line because they can be
missing or zero.

``--trace 1`` spends half the time untraced and half traced (wrappers from
``tracing.py``, the verify-1m op then runs in-process through
``streamuniq.cli.main``) and reports the per-layer metrics per traced op,
plus the tracing overhead as traced minus untraced median op latency.

Every op's output is checked (``workloads.*_check``).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record with per-op digests and the environment is
written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 7
# no op starts once it would end past this, so every run exits well within 180 s
HARD_CAP_S = 150.0
TAIL_BEYOND = 10


@dataclass
class OpRecord:
    index: int
    latency_s: float
    outcome: object
    rss_kb: int = 0
    rk_step_s: float = 0.0
    rk_steps_same: bool = True


class Runner:
    """Runs, times and checks single ops of one workload."""

    def __init__(self, wl, workload: str, seed: int):
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.models = wl.build_models(workload)
        self.scratch = WORK / "work"
        self.scratch.mkdir(parents=True, exist_ok=True)

    def one_op(self, index: int, tracer=None) -> OpRecord:
        wl = self.wl
        case = wl.make_case(self.workload, self.seed, index)
        if self.workload == "verify-1m":
            return self._verify_op(case, tracer)
        first_span = len(tracer.spans) if tracer else 0
        with tracer.recording() if tracer else nullcontext():
            prepared = wl.sweep_prepare(case) if self.workload == "sweep-fine" else None
        op, check = ((wl.cert_op, wl.cert_check) if self.workload == "cert-batch"
                     else (wl.sweep_op, wl.sweep_check))
        t0 = time.perf_counter()
        try:
            with tracer.recording(op=index) if tracer else nullcontext():
                value = op(self.models, case, prepared)
            latency = time.perf_counter() - t0
        except Exception as exc:
            return OpRecord(index, time.perf_counter() - t0, _failure(wl, exc))
        record = OpRecord(index, latency, _checked(wl, check, self.models, case, value))
        if tracer:
            record.rk_step_s, record.rk_steps_same = _replay(tracer, first_span)
        return record

    def _verify_op(self, case, tracer) -> OpRecord:
        wl = self.wl
        out_dir = str(self.scratch / f"op{case.index}-{os.getpid()}")
        wl.remove_tree(out_dir)
        first_span = len(tracer.spans) if tracer else 0
        try:
            rss_kb = 0
            t0 = time.perf_counter()
            try:
                if tracer:
                    with tracer.recording(op=case.index):
                        code = wl.verify_op_inprocess(case, out_dir)
                    latency = time.perf_counter() - t0
                else:
                    code, latency, rss_kb = wl.verify_op_child(case, out_dir, str(SRC))
            except Exception as exc:
                return OpRecord(case.index, time.perf_counter() - t0, _failure(wl, exc))
            record = OpRecord(case.index, latency,
                              _checked(wl, wl.verify_check, self.models, case, out_dir, code),
                              rss_kb=rss_kb)
        finally:
            wl.remove_tree(out_dir)
        if tracer:
            record.rk_step_s, record.rk_steps_same = _replay(tracer, first_span)
        return record


def _failure(wl, exc: Exception):
    return wl.Outcome(False, f"{type(exc).__name__}: {exc}")


def _checked(wl, check, *args):
    try:
        return check(*args)
    except Exception as exc:
        return wl.Outcome(False, f"output check raised {type(exc).__name__}: {exc}")


def _replay(tracer, first_span: int) -> tuple[float, bool]:
    from perfbench.tracing import replay_rk_steps
    return replay_rk_steps(tracer.spans[first_span:])


def measure(runner: Runner, seconds: float, tracer=None) -> list[OpRecord]:
    """Closed loop from case 0 until `seconds` have passed and the ops so far
    make whole case periods (``workloads.CASE_PERIOD``), so a run's failed
    share does not depend on how many ops the time allowed."""
    period = runner.wl.CASE_PERIOD[runner.workload]
    records: list[OpRecord] = []
    t_start = time.perf_counter()
    while True:
        records.append(runner.one_op(len(records), tracer))
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds and len(records) % period == 0:
            return records
        if elapsed + 2.0 * records[-1].latency_s > HARD_CAP_S:
            return records


def measure_setup(wl, workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters running perfbench.setup_probe.

    One untimed probe first byte-compiles the sources and fills the page
    cache, which every later start finds warm.
    """
    argv = [sys.executable, "-m", "perfbench.setup_probe", "--workload", workload,
            "--seed", str(seed)]
    env = wl.child_env(str(SRC) + os.pathsep + str(ROOT))
    log = str(WORK / "work" / f"setup-{os.getpid()}.log")
    times = []
    try:
        for i in range(SETUP_PROBES + 1):
            code, wall, _ = wl.spawn_and_wait(argv, env, log, HARD_CAP_S)
            if code != 0:
                with open(log, encoding="utf-8", errors="replace") as fh:
                    raise RuntimeError(f"setup probe exited with {code}:\n{fh.read()}")
            if i:
                times.append(wall)
    finally:
        if os.path.exists(log):
            os.remove(log)
    return times


def tail_latency(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy as np

    import streamuniq
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # the package may drop BACKEND once it has a single numpy path
        "backend": getattr(streamuniq, "BACKEND", "numpy"),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def op_summary(records: list[OpRecord]) -> dict:
    lat = [r.latency_s for r in records]
    failed = [r for r in records if not r.outcome.ok]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "known_defects": sum(1 for r in failed if r.outcome.known_defect),
        "unexpected": [f"op {r.index}: {r.outcome.detail}" for r in failed
                       if not r.outcome.known_defect],
        "p50_ms": statistics.median(lat) * 1.0e3,
        "ops_per_s": len(lat) / sum(lat),
        "tail": tail_latency(lat),
    }


def end_to_end(workload: str, records: list[OpRecord], summary: dict,
               setup_times: list[float]) -> dict:
    if workload == "verify-1m":
        rss_kb = max(r.rss_kb for r in records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (summary["ops_per_s"], "1/s"),
        "op_p50_ms": (summary["p50_ms"], "ms"),
        "peak_rss_mb": (rss_kb * 1024 / 1.0e6, "MB"),
    }


def print_summary(metrics: dict, summary: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} = {value:.6g} {unit}")
    tail = summary["tail"]
    if tail is None:
        print(f"  {'op_tail_ms':34s} = n/a ({summary['attempted']} ops, "
              f"needs {2 * TAIL_BEYOND})")
    else:
        print(f"  {'op_tail_ms':34s} = {tail[1] * 1.0e3:.6g} ms at p{tail[0]:.2f} "
              f"({summary['attempted']} ops, {TAIL_BEYOND} beyond)")
    share = summary["failed"] / summary["attempted"]
    print(f"  {'failed_share':34s} = {summary['failed']}/{summary['attempted']} = {share:.6g}"
          f" ({summary['known_defects']} known psi1 < 0 sign defect)")
    for line in summary["unexpected"]:
        print(f"  FAILED {line}", file=sys.stderr)


def write_record(record: dict, args) -> Path:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def per_op_record(records: list[OpRecord]) -> list[dict]:
    return [{"index": r.index, "latency_ms": r.latency_s * 1.0e3, "ok": r.outcome.ok,
             "detail": r.outcome.detail, "digests": r.outcome.digests} for r in records]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "streamuniq" / "__init__.py").is_file():
        print(f"perfbench: no streamuniq sources at {SRC}; run from a streamuniq checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import streamuniq

    from perfbench import tracing
    from perfbench import workloads as wl

    if Path(streamuniq.__file__).resolve().parent != SRC / "streamuniq":
        print(f"perfbench: imported streamuniq from {streamuniq.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {wl.WORKLOADS}",
              file=sys.stderr)
        return 2

    (WORK / "work").mkdir(parents=True, exist_ok=True)
    env = environment(args)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    setup_times = measure_setup(wl, args.workload, args.seed)
    runner = Runner(wl, args.workload, args.seed)
    wl.warm_up(args.workload, runner.models)

    record = {"environment": env, "setup_s_samples": setup_times}
    if args.trace == 0:
        records = measure(runner, args.seconds)
        summary = op_summary(records)
        metrics = end_to_end(args.workload, records, summary, setup_times)
        print_summary(metrics, summary)
    else:
        untraced = measure(runner, args.seconds / 2.0)
        with tracing.Tracer() as tracer:
            traced = measure(runner, args.seconds / 2.0, tracer)
        records = untraced + traced
        summary = op_summary(records)
        base, with_trace = op_summary(untraced), op_summary(traced)
        overhead_ms = with_trace["p50_ms"] - base["p50_ms"]
        layers = tracing.layer_metrics(
            tracer, len(traced), step_s=sum(r.rk_step_s for r in traced),
            steps_same=all(r.rk_steps_same for r in traced), overhead_ms=overhead_ms)
        units = dict(tracing.LAYER_METRICS)
        metrics = {name: (value, units[name]) for name, value in layers.items()}
        print(f"  untraced op_p50_ms = {base['p50_ms']:.6g} ({base['attempted']} ops), "
              f"traced op_p50_ms = {with_trace['p50_ms']:.6g} ({with_trace['attempted']} ops)")
        print_summary(metrics, summary)
        if tracer.missing:
            print(f"  not traced (absent from the package): {', '.join(tracer.missing)}")
        if not layers["rk.dense_fill_valid"]:
            print("  rk.dense_fill_s INVALID: the two-node replay took other steps")
        record["missing_wrappers"] = tracer.missing

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update({"metrics": metrics, "summary": summary, "ops": per_op_record(records)})
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    print(f"  record: {write_record(record, args).relative_to(ROOT)}")
    result = {
        "correct": not summary["unexpected"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
