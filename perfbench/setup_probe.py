"""Set-up step the benchmark times in a fresh interpreter.

Imports streamuniq and builds what a workload needs before its first op:
the model pool (the custom laws sample their Hoelder constant here), the
first case and, for sweep-fine, its 131073-node grid.  Run as
``python -m perfbench.setup_probe --workload cert-batch --seed 1`` with the
checkout's ``src`` and root on PYTHONPATH.
"""

from __future__ import annotations

import argparse

from perfbench import workloads as wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    wl.build_models(args.workload)
    case = wl.make_case(args.workload, args.seed, 0)
    if args.workload == "sweep-fine":
        wl.sweep_prepare(case)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
