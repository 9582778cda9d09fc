"""Steadiness check: two sets of runs of the same code, compared against the bounds.

    python3 bench/steady.py [--runs 10] [--sets 2] [--first-seed 1]

Run from the root of a checkout.  Each run is the benchmark command from
BENCHMARK.json with ``--trace 0``, its own seed and the file's run length.
Every workload of the file is run, and runs of different workloads are
interleaved so slow spells of the machine are shared.  For every workload and
end-to-end metric the report gives each set's median, quartiles and quartile
spread as a share of the median, how much of the metric's bound that spread
uses, and how far the second set's median moved from the first in the worse
direction, also against the bound.  Every spread (that of ``setup_s`` too)
and every shift must stay within the bound, every run must be correct, and
the failed share of operations must be the same in every run.  With
``--sets 1 --runs 1`` this is one command that runs every workload once.
The raw results go to ``.bench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def summarize(values: list) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in workloads:
                res = run_once(spec, w, seed)
                results[w][s].append(res)
                values = "  ".join(f"{k} {v['value']:.5g} {v['unit']}" for k, v in res["metrics"].items())
                print(f"set {s + 1} seed {seed:3d} {w:9s} attempted {res['attempted']:5d} "
                      f"failed {res['failed']:4d} correct {res['correct']}  {values}", flush=True)

    ok = True
    print()
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for runs in results[w] for r in runs}
        correct = all(r["correct"] for runs in results[w] for r in runs)
        ok &= len(shares) == 1 and correct
        print(f"{w}: failed share {sorted(shares)} {'(same in every run)' if len(shares) == 1 else 'DIFFERS'}"
              f", all correct {correct}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in results[w]]
            line = "  ".join(
                f"set{j + 1} median {st['median']:.5g} q1 {st['q1']:.5g} q3 {st['q3']:.5g} "
                f"spread {st['spread']:.3f} ({st['spread'] / bound:.2f} of bound)"
                for j, st in enumerate(sets))
            if len(sets) > 1:
                moved = (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
                worse = moved if m["better"] == "lower" else -moved
                line += f"  median moved {moved:+.3f} (worse by {max(worse, 0) / bound:.2f} of bound)"
                ok &= worse <= bound
            ok &= all(st["spread"] <= bound for st in sets)
            print(f"  {name:13s} {m['unit']:4s} bound {bound}: {line}")
    out = ROOT / ".bench_out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print("\nSTEADY: every spread and median shift within its bound" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
