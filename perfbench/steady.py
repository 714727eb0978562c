"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py --seed 1 --runs 5
    python3 perfbench/steady.py --seed 1 --runs 10 --vary-seed \\
        --workload reprice

Runs every workload (or the ones named) ``2 x --runs`` times, the two
sets interleaved (A B, B A, A B, ...), each run a separate
``perfbench/run.py --trace 0`` process.  All runs use ``--seed``, or with
``--vary-seed`` every run uses another seed (run *i* of set A uses
``seed + 2i``, of set B ``seed + 2i + 1``).  For each
end-to-end metric it prints each set's median and quartiles, the spread
(quartile distance over the median) and whether the sets agree within
the metric's bound in ``BENCHMARK.json``: each set's spread within the
bound (``setup_s`` excepted), and each set's median no worse than the
other's by more than the bound.  A third row, ``*``, gives the quartiles
and spread of both sets together.  The share of failed operations must be
the same in every run.  Exits 1 when anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def worse_by(a, b, better):
    """How much worse median ``a`` is than ``b``, as a share of ``b``."""
    return (a - b) / b if better == "lower" else (b - a) / b


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=5,
                    help="runs per set (two sets)")
    ap.add_argument("--vary-seed", action="store_true")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    agree = True
    for workload in args.workload or names:
        sets = ([], [])
        for i in range(args.runs):
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = (args.seed + 2 * i + k if args.vary_seed
                        else args.seed)
                sets[k].append(one_run(workload, seed, args.seconds))
        shares = {(r["failed"], r["attempted"]) for s in sets for r in s}
        ratios = {f / a for f, a in shares}
        ok_fail = len(ratios) == 1
        agree &= ok_fail and all(r["correct"] for s in sets for r in s)
        seeds = (f"{args.seed}..{args.seed + 2 * args.runs - 1}"
                 if args.vary_seed else str(args.seed))
        print(f"\n{workload}: seed {seeds}, {args.runs} runs per set, "
              f"{args.seconds} s; failed/attempted {sorted(shares)[0]} "
              f"{'same in every run' if ok_fail else 'DIFFERS'}")
        print(f"  {'metric':<22}{'set':>4}{'q1':>12}{'median':>12}"
              f"{'q3':>12}{'spread':>8}{'bound':>7}  verdict")
        for name in sets[0][0]["metrics"]:
            bound = bounds[name]["bound"]
            better = bounds[name]["better"]
            stats = [summary([r["metrics"][name]["value"] for r in s])
                     for s in sets]
            ok = all(worse_by(stats[a][1], stats[b][1], better) <= bound
                     for a, b in ((0, 1), (1, 0)))
            if name != "setup_s":
                ok &= all(st[3] <= bound for st in stats)
            agree &= ok
            both = summary([r["metrics"][name]["value"]
                            for s in sets for r in s])
            for k, (q1, q2, q3, spread) in enumerate(stats + [both]):
                print(f"  {name if k == 0 else '':<22}{'AB*'[k]:>4}"
                      f"{q1:>12.4f}{q2:>12.4f}{q3:>12.4f}{spread:>8.3f}"
                      f"{bound:>7.2f}  "
                      f"{('agree' if ok else 'DISAGREE') if k == 1 else ''}")
    return 0 if agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
