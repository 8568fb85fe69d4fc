"""Run the end-to-end benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 bench/spread.py --seeds 1-10 [--workload NAME ...]

Runs ``bench/run.py --trace 0`` once per seed and workload, one run at a
time, with the workloads interleaved seed by seed, for the ``run_seconds``
that ``BENCHMARK.json`` sets. The workloads default to all of those in
``BENCHMARK.json``. For each workload and metric it prints the median of
the runs and their quartile spread: the distance between the first and
third quartiles (``statistics.quantiles`` with n=4) as a share of the
median. The same follows for the unscaled wall times and the probe time
that ``run.py`` prints on its ``wall`` line (see ``probe.py``). It also
prints each run's wall time, start-up and memory children included. The
per-run results are written to ``bench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for workload in workloads:
            began = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["wall_s"] = time.perf_counter() - began
            result["unscaled"] = next(json.loads(line[5:]) for line in lines if line.startswith("wall "))
            results[workload].append(result)
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s, correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {shown}", flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "spread.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    for workload, runs in results.items():
        print(f"{workload}: {sum(r['correct'] for r in runs)}/{len(runs)} correct, "
              f"failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}, "
              f"longest run {max(r['wall_s'] for r in runs):.1f} s")
        if len(runs) < 2:
            continue
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric['name']:24s} median {median:.6g} {metric['unit']:6s} "
                  f"quartile spread {(q3 - q1) / median:.4f} (bound {metric['bound']})")
        for name in runs[0]["unscaled"]:
            values = [r["unscaled"][name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  unscaled {name:15s} median {median:.6g} s      quartile spread {(q3 - q1) / median:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
