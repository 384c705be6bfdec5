"""Offered-rate sweep of a serve workload, to place its heavy rate.

Usage (from the repository root)::

    python3 perfbench/sweep.py --workload serve-hot --rates 60,120,240,480

Each rate is one untraced pass of the workload with its heavy phase
offered at that rate (the light phase as configured); it prints, per
rate, the goodput (heavy-phase responses within the latency limit per
second) and its share of the rate. The sweep that set
``perfbench.serve.RATES_RPS`` is in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/sweep.py")
    parser.add_argument("--workload", required=True,
                        choices=("serve-hot", "serve-follow"))
    parser.add_argument("--rates", required=True,
                        help="comma-separated offered rates, req/s")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    args = parser.parse_args(argv)

    common.use_checkout_paths()
    prep = common.prepare()
    from perfbench import serve

    light_rps = serve.RATES_RPS[args.workload][0]
    for rate in (float(r) for r in args.rates.split(",")):
        out = serve.run(args.workload, args.seed, args.seconds, False, prep,
                        rates=(light_rps, rate))
        goodput = out["layers"]["serve.goodput_rps"]
        print(json.dumps({
            "rate_rps": rate,
            "goodput_rps": goodput,
            "goodput_share": goodput / rate,
            "work_s": out["metrics"]["work_s"],
            "failed": out["failed"],
            "checks_ok": all(out["checks"].values()),
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
