"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload serve|reproduce|provision \\
        --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate traced run. Lines before the last are a
human-readable report: each workload's own metric names, host fingerprint,
counts scraped from the program, and any correctness failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import program_present, report, use_program_path  # noqa: E402

WORKLOADS = ("serve", "reproduce", "provision")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print("error: no program under src/repro to benchmark", file=sys.stderr)
        return 2
    use_program_path()

    if args.workload == "serve":
        from perfbench import serve as workload
    elif args.workload == "reproduce":
        from perfbench import reproduce as workload
    else:
        from perfbench import provision as workload
    runner = workload.run_traced if args.trace else workload.run
    result = runner(args.seed, args.seconds)

    report(f"{args.workload}.host", result["host"])
    if "named" in result:
        report(f"{args.workload}.metrics", result["named"])
    if result["problems"]:
        print("correctness problems:", file=sys.stderr)
        for problem in result["problems"]:
            print(f"  {problem}", file=sys.stderr)
    metrics = result["metrics"]
    if not args.trace:
        from perfbench.layers import END_TO_END

        metrics = {
            name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()
        }
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
