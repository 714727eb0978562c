"""Regenerate EXPERIMENTS.md from the experiment harness.

    python scripts/gen_experiments_md.py

Runs every experiment of the DESIGN.md index at the default scale and
records paper-claim vs measured behaviour.  Asserts all correctness
oracles along the way, so a stale or wrong table cannot be produced.
The benchmark-script list is discovered from ``benchmarks/``, not
hardcoded, so new benchmark modules appear on regeneration.
"""

import glob
import io
import os
import sys
from contextlib import redirect_stdout

from repro.analysis.experiments import run_all
from repro.analysis.metrics import fit_exponent

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every quantitative claim of *Distributed Maximum Flow in Planar Graphs*
(PODC 2025), reproduced by the harness in `repro.analysis.experiments`
and regenerated by `python scripts/gen_experiments_md.py`.  Rounds are
CONGEST rounds charged by the audited ledger (DESIGN.md §2); *exactness
assertions run inside the harness*, so a table can only be produced
when every algorithm returns the oracle-verified answer.

## Reading the tables

* The paper proves worst-case bounds (Õ(D²), Õ(D), D·n^{o(1)}); the
  measured series confirm the *shape*: `rounds/D²` (resp. `rounds/D`)
  columns stay bounded as instances grow, and label bits grow with D,
  not with n.
* Absolute constants are large — the algorithms carry polylog factors
  and the tree-packing / oracle machinery is charged faithfully — so on
  small instances the naive Θ(n)-round baselines can win.  The
  crossover table (E10) shows where the asymptotics take over.
* The approximate pipeline (E7) has enormous n^{o(1)}/ε² constants, as
  expected: its value is the *feasible assignment at D·n^{o(1)} shape*,
  not small-instance speed.

## Summary of reproduced claims

| Claim | Paper | Measured | Status |
|-------|-------|----------|--------|
| Thm 1.2 exact max st-flow value + assignment | exact | equals networkx on every probe; assignment validates | reproduced |
| Thm 2.1 labels decode exact dual distances (± lengths) | exact, Õ(D) bits | equal to Bellman-Ford; bits scale with D (E2) | reproduced |
| Lem 2.2 dual SSSP + negative-cycle detection | exact | equal; negative cycles detected iff present | reproduced |
| Thm 6.1 min st-cut bisection + edges | exact | cut = flow value; separation verified | reproduced |
| Thm 1.5 directed global min-cut | exact | equals n−1-flow brute force | reproduced |
| Thm 1.7 weighted girth + cycle edges | exact, Õ(D) | equals centralized girth; cycle certified simple | reproduced |
| Thm 1.3 (1−ε) flow value + feasible assignment | (1−o(1)) | value ∈ [(1−2ε)·OPT, OPT]; assignment feasible | reproduced |
| Thm 6.2 approximate min st-cut | (1+o(1)) | valid st-cut, capacity ≤ (1+2ε)·OPT | reproduced |
| Engine backend parity (DESIGN.md §6–§7) | — | outputs bit-identical to the legacy protocol across the flow, cut, girth and min-cut families (E11) | enforced |
| Engine labeling construction (DESIGN.md §9) | — | labels bit-identical to the legacy Thm 2.1 recursion, including NegativeCycleError sites; cold build accelerated, warm decode unchanged (E12) | enforced |

## Measured series

```
"""

FOOTER = """\
```

## Notes per experiment

* **E1** — `rounds/D^2` stays within a small constant band across the
  three families while `naive` (Θ(#faces)·log λ Bellman-Ford rounds)
  grows with n.  Each probe's flow value is asserted against networkx.
  `probes` counts the λ binary search over
  `[0, min(out_cap(s), in_cap(t))]` (the trivial s- and t-cuts), at
  most ⌈log₂(bracket + 1)⌉ + 1; `naive` still charges log₂(total
  capacity) Bellman-Ford sweeps.  `rounds` is not monotone in
  `probes`: a probe's ledger charge depends on λ, so when the bracket
  replaced the search over `[0, total capacity]`, grid n=140 went from
  13 to 5 probes but from 49,438 to 56,330 rounds, while grid n=20
  went from 4,223 to 2,889.
* **E2** — `bits/D` is flat-ish across families while n grows:
  Õ(D)-bit labels (Theorem 2.1).  Constants include the 32-bit word
  size and the |F_X|·depth factor.
* **E4** — girth rounds are D x polylog: `rounds/D` grows only with
  the log^3.5-ish tree-packing factor while D triples.  The executable
  prior-work comparator (`prior36_rounds`, the Õ(D²) labeling route of
  [36]) still *wins at these sizes* because the minor-aggregation
  min-cut's polylogs exceed one factor of D until D >> log^3.5 n —
  exactly the asymptotic-vs-constants trade-off the theory predicts;
  the D-normalized slopes confirm who wins in the limit.
* **E5** — directed global min-cut equals the brute-force directed cut
  on bidirected planar instances (nonzero cuts).
* **E7** — `ratio` ≈ (1−ε)·(1±ε′) and `cut_ratio` ≥ 1 always: the flow
  value never exceeds the optimum, the cut never undershoots it.
* **E9** — BDD certification: depth O(log n), |S_X|/D bounded,
  face-parts ≤ O(log n) (the paper's Lemma 5.3 / property 9).
* **E10** — round-model crossover with all models normalized to one
  log-factor: Õ(D²) beats D·√n [4] exactly while D ≲ √n — i.e. on
  every low-diameter planar network, which is the paper's regime.
* **E11** — the engine backends (DESIGN.md §6–§7), the suite's only
  *wall-clock* series (never a round proxy): output parity is asserted
  inline for every row.  Girth gains two orders of magnitude — the
  legacy path pays for the shortcut host, the orientation and
  ~3·log^2.5 n packed trees, the engine runs one pruned two-best
  Dijkstra per vertex — while global min-cut gains a small factor
  because both backends share the BDD construction and only the
  per-F_X constrained SSSP is replaced.  Headline scales live in the
  benchmark scripts (next section).
* **E12** — the labeling serving economics (DESIGN.md §8–§9),
  wall-clock with bit-identical-label parity asserted per row: the
  engine's compiled-bag builder (`repro.engine.labels`) accelerates
  the cold Theorem 2.1 construction — the dominant `DistanceQuery`
  miss cost — while `warm_us` confirms the Lemma 2.2 decode stays
  microseconds; `cold/warm` is the amortization a serving miss still
  buys.  The build speedup grows with instance size (the legacy
  recursion decodes child labels through dict chains; see
  `bench_labeling.py` for the 64×64 headline).

## Benchmark scripts

One benchmark module per experiment family plus the engine headliners;
each asserts its correctness oracle inline (`PYTHONPATH=src python -m
pytest benchmarks/ -q` runs them all):

{bench_list}

`bench_engine.py`, `bench_girth_engine.py` and `bench_labeling.py`
double as scripts with a `>= 2x` acceptance check, and
`bench_service.py` as a script with the warm-over-cold acceptance
(`PYTHONPATH=src python benchmarks/<name>.py`).

## Fitted growth exponents

"""


def _bench_list():
    """First docstring paragraph of every benchmark module (discovered,
    not hardcoded)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    lines = []
    for path in sorted(glob.glob(os.path.join(root, "benchmarks",
                                              "bench_*.py"))):
        name = os.path.basename(path)
        summary = ""
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if '"""' in text:
            doc = text.split('"""', 2)[1].strip()
            summary = " ".join(doc.split("\n\n", 1)[0].split())
        lines.append(f"* `{name}` — {summary}")
    return "\n".join(lines)


def main():
    buf = io.StringIO()
    with redirect_stdout(buf):
        results = run_all(print_tables=True)
    tables = buf.getvalue()

    # fitted exponents for the flagship series
    e1 = results["E1-maxflow"]
    grid_rows = [r for r in e1 if r.family == "grid"]
    exp_flow = fit_exponent([r.d for r in grid_rows],
                            [r.rounds for r in grid_rows])
    e4 = results["E4-girth"]
    exp_girth = fit_exponent([r.d for r in e4], [r.rounds for r in e4])
    # Theorem 4.10's claim in isolation: CONGEST rounds *per MA round*
    # scale like Õ(D) — divide out the tree-packing polylogs
    exp_conv = fit_exponent(
        [r.d for r in e4],
        [r.rounds / r.extra["ma_rounds"] for r in e4])

    fits = (f"* max-flow rounds vs D (grid family): measured exponent "
            f"≈ {exp_flow:.2f} (paper: 2 + o(1))\n"
            f"* girth total rounds vs D: ≈ {exp_girth:.2f} — inflated "
            f"by tree-packing polylogs, which grow with n ~ D² in this "
            f"sweep\n"
            f"* girth CONGEST-rounds *per MA round* vs D: ≈ "
            f"{exp_conv:.2f} — Theorem 4.10 bounds the conversion by "
            f"Õ(D) in the worst case; grid duals have tightly local "
            f"face cycles, so the *measured* shortcut quality is nearly "
            f"constant and the simulation beats its bound\n")

    with open("EXPERIMENTS.md", "w") as f:
        f.write(HEADER)
        f.write(tables)
        f.write(FOOTER.format(bench_list=_bench_list()))
        f.write(fits)
    print("wrote EXPERIMENTS.md")


if __name__ == "__main__":
    main()
