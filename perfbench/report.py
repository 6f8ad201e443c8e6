"""Print every benchmark metric of every workload.

    python3 perfbench/report.py

Runs perfbench/run.py on each BENCHMARK.json workload for its
run_seconds at seed 0, untraced (end-to-end metrics) and traced
(per-layer metrics), and prints one line per metric with its unit, the
correctness-gate result and failed-run count of each.  It then prints
the layer mix each workload was chosen for, from the traced runs: the
share of wall_s outside every member (interpreter start, imports,
config handling) and the share of wall_s x workers spent integrating,
decomposing and in the effective ODE.
"""

import json
import statistics
import subprocess
import sys

from run import BENCH, RESULTS, ROOT, result_path
from workloads import WORKLOADS

SEED = 0


def run_once(workload: str, seconds: int, trace: int):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"),
                           "--workload", workload, "--seed", str(SEED),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    env = next((json.loads(l.split(": ", 1)[1]) for l in lines
                if l.startswith("environment: ")), None)
    return env, json.loads(lines[-1])


def mix(name: str) -> str:
    """Median shares of wall_s over the traced runs of the last record."""
    record = json.loads(result_path(RESULTS, name, SEED, 1).read_text())
    traced = [r for r in record["runs"] if "layers" in r]
    workers = WORKLOADS[name].parallel

    def share(part):
        return statistics.median(part(r) / r["wall_s"] for r in traced)

    outside = share(lambda r: r["wall_s"] - r["member_wall_s"])
    layers = ", ".join(
        f"{label} {share(lambda r: r['layers'][key] / workers):.0%}"
        for label, key in (("integrate", "dynamics.integrate_s"),
                           ("decomposition", "decomposition.track_s"),
                           ("effective", "dynamics.effective_s")))
    return (f"{outside:.0%} of wall_s outside members; {layers} "
            f"of wall_s x {workers} worker{'s' if workers > 1 else ''}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for i, w in enumerate(spec["workloads"]):
        name = w["name"]
        for trace in (0, 1):
            env, result = run_once(name, spec["run_seconds"], trace)
            if i == 0 and trace == 0:
                print("environment: " + json.dumps(
                    {k: v for k, v in env.items() if k not in ("workload", "phi0")},
                    sort_keys=True))
            for metric, m in result["metrics"].items():
                print(f"{name:8s} {metric:36s} {m['value']:>16.6g} {m['unit']}")
            print(f"{name:8s} {'trace' if trace else 'end-to-end'} gate: "
                  f"{'PASS' if result['correct'] else 'FAIL'}, "
                  f"{result['failed']} failed of {result['attempted']} runs")
        print(f"{name:8s} mix: {mix(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
