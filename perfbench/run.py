"""szego_lab benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload {dense,sweep} --seed N \
        --seconds S --trace {0,1}

Closed loop: one CLI process at a time, the next started when the last
one exits, for S seconds.  Every run passes through the correctness
gate and the determinism check (gate.py).  With --trace 0 runs of the
program alternate with runs of the frozen reference (frozen/, see
FROZEN), and the result holds the end-to-end metrics: wall_s and cpu_s
scale the workload's reference times by the median over adjacent
program/reference pairs of their ratio, setup_s does the same over
SETUP_PAIRS pairs of fresh set-up processes, and peak_rss_mb is the
median over the program's runs.  With --trace 1 it alternates
untraced and traced runs and holds the per-layer metrics (medians over
the traced runs) and the tracing overhead (median over the adjacent
untraced/traced pairs).  The last line of standard output is the JSON
result; the environment, every run, the output digests and the result
are also written to .perfbench/results/, and the digests must match
those of any earlier record of the same workload, seed, config and
sources.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from gate import check_run
from tracing import MEMBER, layer_metrics
from workloads import WORKLOADS, make_config, phase_for_seed

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RESULTS = ROOT / ".perfbench" / "results"
SETUP_PAIRS = 4
# The package as it was when the benchmark was defined.  On a shared host
# the machine's speed drifts by 15-30% over minutes, which no run of
# 60 s can average out; running this frozen copy of the program back to
# back with the program under test, on the same inputs, lets each
# program/reference pair compare two runs at one machine speed.  Being
# the same kind of work, it slows with the program under every kind of
# contention, which a synthetic yardstick (an FFT or import loop) did not.
FROZEN = BENCH / "frozen"
RUN_TIMEOUT_S = 120.0
# Thread pools outside the sweep's own are pinned, so a run uses at most
# the sweep's --parallel 2 threads; SZEGO_LAB_THREADS would override it.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def child_env(src: Path = ROOT / "src") -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SZEGO_LAB_THREADS"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(src)
    return env


def spawn(argv, env, log_path):
    """Run argv to completion; returns (exit code, wall s, cpu s, peak RSS MiB)
    of that process alone."""
    start = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(env: dict, workload: str, seed: int, cfg: dict) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "thread_env": {k: v for k, v in sorted(env.items()) if "THREAD" in k},
        "workload": workload, "seed": seed, "phi0": phase_for_seed(seed),
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
    }


def result_path(results: Path, workload: str, seed: int, trace: int) -> Path:
    return results / f"{workload}-seed{seed}-trace{trace}.json"


def recorded_digests(results: Path, env: dict):
    """Output digests of an earlier record of the same workload, seed,
    config and sources (either trace mode), or None if there is none."""
    for trace in (0, 1):
        path = result_path(results, env["workload"], env["seed"], trace)
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        old = record.get("environment", {})
        if (record.get("digests")
                and all(old.get(k) == env[k]
                        for k in ("workload", "seed", "config_sha256",
                                  "src_sha256"))):
            return record["digests"]
    return None


def paired_ratio(pairs) -> float:
    """Median over (base, other) pairs of other / base; each pair ran back
    to back, so it compares runs at one machine speed."""
    return statistics.median(other / base for base, other in pairs)


class Bench:
    """One benchmark invocation: a work directory, the gate's reference
    and the digests every run must reproduce (those of an earlier record
    of the same workload, seed, config and sources, else the first
    run's)."""

    def __init__(self, workload, cfg, work: Path, reference: dict,
                 digests=None):
        self.workload = workload
        self.cfg = cfg
        self.work = work
        self.reference = reference
        self.env = child_env()
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
        self.digests = digests
        self.runs = []
        self.pairs = []           # (untraced wall s, traced wall s)
        self.reference_runs = []  # runs of the frozen reference
        self.speed_pairs = []     # (reference run, program run)
        self.setup = []           # (reference, program) set-up s

    def run(self, traced: bool) -> dict:
        k = len(self.runs)
        outdir = self.work / f"run{k}"
        spans_path = self.work / f"spans{k}.json"
        args = self.workload.cli_args(str(self.config_path), str(outdir))
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "szego_lab.cli"]
        log_path = self.work / f"run{k}.log"
        code, wall, cpu, rss = spawn(argv + args, self.env, log_path)
        rec = {"traced": traced, "exit": code, "wall_s": wall, "cpu_s": cpu,
               "peak_rss_mb": rss}
        if code != 0:
            problems = [f"exit code {code}: "
                        + log_path.read_text(errors="replace")[-2000:]]
        else:
            problems, digests = check_run(str(outdir),
                                          self.workload.members(self.cfg),
                                          self.reference)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems.append("outputs differ from an earlier run: "
                                + ", ".join(sorted(n for n in digests
                                                   if digests[n] != self.digests.get(n))))
            rec["output_bytes"] = tree_bytes(outdir)
            if traced:
                spans = json.loads(spans_path.read_text())
                rec["layers"] = layer_metrics(spans, self.workload.parallel)
                rec["layers"]["cli.output_bytes"] = rec["output_bytes"]
                members = [s for s in spans if s[1] == MEMBER]
                rec["member_wall_s"] = (max(s[3] for s in members)
                                        - min(s[2] for s in members))
        rec["problems"] = problems
        shutil.rmtree(outdir, ignore_errors=True)
        spans_path.unlink(missing_ok=True)
        self.runs.append(rec)
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"run {k}{' traced' if traced else ''}: wall {wall:.3f} s, "
              f"cpu {cpu:.3f} s, peak RSS {rss:.1f} MiB, {status}", flush=True)
        return rec

    def run_reference(self) -> dict:
        """One run of the frozen reference on the same config; it is not
        the program under test, so it must only exit cleanly."""
        k = len(self.reference_runs)
        outdir = self.work / f"ref{k}"
        log_path = self.work / f"ref{k}.log"
        code, wall, cpu, rss = spawn(
            [sys.executable, "-m", "szego_lab.cli"]
            + self.workload.cli_args(str(self.config_path), str(outdir)),
            child_env(FROZEN), log_path)
        shutil.rmtree(outdir, ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"frozen reference exited with {code}: "
                               + log_path.read_text(errors="replace")[-2000:])
        rec = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}
        self.reference_runs.append(rec)
        print(f"reference {k}: wall {wall:.3f} s, cpu {cpu:.3f} s", flush=True)
        return rec

    def setup_time(self, env: dict, name: str) -> float:
        code, wall, _, _ = spawn([sys.executable, str(BENCH / "setup_probe.py"),
                                  str(self.config_path)], env,
                                 self.work / f"{name}.log")
        if code != 0:
            raise RuntimeError(f"set-up probe {name} exited with {code}")
        return wall

    def setup_pairs(self, n: int) -> list:
        """n (reference, program) set-up times, back to back in alternating
        order."""
        pairs = []
        for i in range(n):
            if i % 2 == 0:
                run = self.setup_time(self.env, f"setup{i}")
                ref = self.setup_time(child_env(FROZEN), f"setup-ref{i}")
            else:
                ref = self.setup_time(child_env(FROZEN), f"setup-ref{i}")
                run = self.setup_time(self.env, f"setup{i}")
            pairs.append((ref, run))
        return pairs


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Closed loop for ``seconds``; returns the metric values."""
    metrics = {}
    if not trace:
        bench.setup = bench.setup_pairs(SETUP_PAIRS)
        metrics["setup_s"] = (bench.workload.reference_s["setup_s"]
                              * paired_ratio(bench.setup))
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        if trace:
            # one untraced/traced pair, back to back, in alternating order
            first = len(bench.runs) // 2 % 2 == 0
            a = bench.run(traced=not first)
            b = bench.run(traced=first)
            if a["exit"] == 0 and b["exit"] == 0:
                plain, traced = (b, a) if a["traced"] else (a, b)
                bench.pairs.append((plain["wall_s"], traced["wall_s"]))
        else:
            # the program and the reference back to back, in alternating order
            if len(bench.runs) % 2 == 0:
                run, ref = bench.run(traced=False), bench.run_reference()
            else:
                ref, run = bench.run_reference(), bench.run(traced=False)
            if run["exit"] == 0:
                bench.speed_pairs.append((ref, run))
        now = time.perf_counter()
        if (now - start) + (now - unit_start) > seconds:
            break

    if not trace:
        if not bench.speed_pairs:
            raise RuntimeError("no CLI run completed; see the run lines above")
        for key in ("wall_s", "cpu_s"):
            metrics[key] = bench.workload.reference_s[key] * paired_ratio(
                (ref[key], run[key]) for ref, run in bench.speed_pairs)
        metrics["peak_rss_mb"] = statistics.median(
            run["peak_rss_mb"] for _, run in bench.speed_pairs)
        return metrics
    if not bench.pairs:
        raise RuntimeError("no untraced/traced pair completed")
    metrics["trace.overhead_frac"] = paired_ratio(bench.pairs)
    layers = [r["layers"] for r in bench.runs if "layers" in r]
    for key in layers[0]:
        metrics[key] = statistics.median(layer[key] for layer in layers)
    return metrics


def declared_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated benchmark raises SystemExit in its wait for the current
    # child, so spawn() kills and reaps that child and the work dir goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "szego_lab" / "cli.py").is_file():
        print(f"no szego_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = declared_units(trace)
    workload = WORKLOADS[args.workload]
    reference = json.loads((BENCH / "reference.json").read_text())[workload.name]
    cfg = make_config(workload, args.seed)
    work = ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = environment(child_env(), workload.name, args.seed, cfg)
        bench = Bench(workload, cfg, work, reference,
                      recorded_digests(RESULTS, env))
        print("environment: " + json.dumps(env, sort_keys=True), flush=True)
        values = measure(bench, args.seconds, trace)
    except RuntimeError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != set(units):
        print(f"measured metrics {sorted(values)} do not match BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    failed = sum(1 for r in bench.runs if r["problems"])
    result = {"correct": failed == 0, "attempted": len(bench.runs),
              "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in sorted(values)}}
    for name, m in result["metrics"].items():
        print(f"{workload.name:8s} {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload.name:8s} correctness gate: "
          f"{'PASS' if result['correct'] else 'FAIL'}, "
          f"{failed} failed of {len(bench.runs)} runs")
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"environment": env, "runs": bench.runs,
              "digests": bench.digests, "result": result}
    if trace:
        record["overhead_pairs"] = bench.pairs
    else:
        record["reference_runs"] = bench.reference_runs
        record["setup_pairs"] = bench.setup
    result_path(RESULTS, workload.name, args.seed, args.trace).write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
