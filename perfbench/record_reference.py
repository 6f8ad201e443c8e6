"""Record the correctness gate's reference metrics.

    python3 perfbench/record_reference.py

Runs each workload once at phi0 = 0 and writes every member's
metrics.json into perfbench/reference.json.  Re-record only when a
change is meant to move the reported metrics, and say so.
"""

import json
import shutil
import sys

from run import BENCH, ROOT, child_env, spawn
from workloads import WORKLOADS, make_config


def record(name: str, work) -> dict:
    workload = WORKLOADS[name]
    cfg = make_config(workload, 0)
    cfg["soliton"]["phi0"] = 0.0
    config_path = work / f"{name}.json"
    config_path.write_text(json.dumps(cfg))
    outdir = work / name
    code, *_ = spawn([sys.executable, "-m", "szego_lab.cli"]
                     + workload.cli_args(str(config_path), str(outdir)),
                     child_env(), work / f"{name}.log")
    if code != 0:
        raise SystemExit(f"{name}: CLI exited with {code}")
    return {key: json.loads((outdir / sub / "metrics.json").read_text())
            for key, sub in workload.members(cfg)}


def main() -> int:
    work = ROOT / ".perfbench" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        reference = {name: record(name, work) for name in sorted(WORKLOADS)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
