"""Scaling sweep over eps at the transit geometry.

Runs the Gaussian-bump transit at eps in {4e-2, 2e-2, 1e-2} with
horizon eps^{-1/2}, extracts parameters along each run, and fits the
log-log slopes of the deviation suprema against eps.  Expected: slope
>= 0.9 for a and mu, >= 0.6 for phi, >= 0.5 for the remainder norm.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

from szego_lab.cli import _run_tracked

TRANSIT = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "transit.json").read_text())


def run_one(eps: float) -> dict:
    # eps^{-1/2}, rounded to whole samples of the transit's stride-100 comb
    dt = TRANSIT["dt"]
    t_final = round(round(eps ** -0.5, 4) / (100 * dt)) * 100 * dt
    cfg = dict(TRANSIT, eps=eps, t_final={"policy": "fixed", "value": t_final})
    t0 = time.time()
    _, m = _run_tracked(cfg)
    m["runtime_s"] = time.time() - t0
    print(f"eps={eps:g}  T={t_final:g}  sup|w|_H12={m['sup_w_h12']:.4e}  "
          f"sup|mu-mu_eff|={m['sup_dev_mu']:.4e}  c_fit={m['c_fit']:.3f}  "
          f"({m['runtime_s']:.0f}s)")
    return m


def main() -> int:
    eps_list = [4e-2, 2e-2, 1e-2]
    metrics = [run_one(e) for e in eps_list]
    le = np.log(eps_list)
    print("\nfitted slopes (log-log vs eps):")
    for key, want in (("sup_w_h12", 0.5), ("sup_dev_a", 0.9),
                      ("sup_dev_mu", 0.9), ("sup_dev_phi", 0.6)):
        slope = np.polyfit(le, np.log([m[key] for m in metrics]), 1)[0]
        flag = "ok" if slope >= want else "LOW"
        print(f"  {key:<12} {slope:+.3f}  (want >= {want})  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
