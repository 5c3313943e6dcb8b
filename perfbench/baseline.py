#!/usr/bin/env python3
"""Regenerate the traced-run baseline table of perfbench/README.md.

    python3 perfbench/baseline.py [--seed 1] [--seconds 30]

Runs the traced mode of every workload through run.py and prints, as
Markdown, the per-step self time of each layer of the two single-sim
workloads (with its share of the step) and the solo setup time of each
service job class.
"""

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent

LAYERS = [
    ("mesh.fill_guardcells_s", "guard fill"),
    ("hydro.sweep_s", "sweeps"),
    ("eos.update_s", "EOS update"),
    ("hydro.compute_dt_s", "CFL time step"),
    ("flame.advance_s", "flame"),
    ("gravity.update_s", "gravity update"),
    ("gravity.apply_source_s", "gravity source"),
    ("tlb.replay_s", "machine-model replay"),
    ("mesh.remesh_s", "remesh"),
    ("sim.step_other_s", "other (the step loop itself)"),
]


def cell(metrics, key):
    """Self time and share of the step, '—' for a layer not exercised."""
    value = metrics[key]
    if value == 0:
        return ["—", ""]
    ms = f"{value * 1e3:.2f} ms" if value >= 1e-5 else "< 0.01 ms"
    return [ms, f"{100 * value / metrics['sim.step_s']:.0f}%"]


def traced(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, HERE / "run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"baseline.py: {workload} failed its correctness gates")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()

    runs = {w: traced(w, args.seed, args.seconds)
            for w in ("sedov3d", "supernova2d_traced", "svc_mixed")}
    sedov, sn, svc = (runs["sedov3d"], runs["supernova2d_traced"],
                      runs["svc_mixed"])

    print("| Layer (per-step self time) | sedov3d | share | "
          "supernova2d_traced | share |")
    print("|---|---|---|---|---|")
    for key, label in LAYERS:
        row = [label] + cell(sedov, key) + cell(sn, key)
        print("| " + " | ".join(row) + " |")
    print("| **step wall** | "
          f"{sedov['sim.step_s'] * 1e3:.2f} ms | 100% | "
          f"{sn['sim.step_s'] * 1e3:.2f} ms | 100% |")
    print()
    print("| Headline | Value |")
    print("|---|---|")
    print("| guard-fill share of the `sedov3d` step | "
          f"{100 * sedov['mesh.fill_guardcells_s'] / sedov['sim.step_s']:.0f}%"
          " |")
    print("| replay share of the `supernova2d_traced` step | "
          f"{100 * sn['tlb.replay_s'] / sn['sim.step_s']:.0f}% |")
    for cls, label in (("sedov", "Sedov"), ("cellular", "cellular"),
                       ("supernova", "supernova")):
        print(f"| solo setup, {label} job | "
              f"{svc['sim.setup_s.' + cls] * 1e3:.1f} ms |")
    print(f"| Helm table load (service table, warm) | "
          f"{svc['eos.table_load_s'] * 1e3:.1f} ms |")
    print(f"| Helm table load (full table, warm) | "
          f"{sn['eos.table_load_s'] * 1e3:.1f} ms |")


if __name__ == "__main__":
    main()
