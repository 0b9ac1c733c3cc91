"""Paired benchmark runs of two checkouts, the parent of a change and the change.

    python tools/bench_pairs.py --parent ../parent --change . --seeds 271-275 \
        --seconds 30 --out BENCH_N.json [--workloads certify,dependence-mc] [--what TEXT]

For each workload and seed it runs `python3 bench/run.py --workload W --seed S
--seconds T` once in each checkout, one process at a time, the parent first
in even pairs and the change first in odd ones. Each run's last stdout line is
its result and the line before it its details. The output file holds, per
workload and end-to-end metric of BENCHMARK.json, the quartiles of each side,
the pairs the change won and the change of the median; the failed op counts;
the raw runs; and each side's src/ line count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("certify", "dependence-mc", "certificates")
SIDES = ("parent", "change")
METHOD = (
    "{pairs} pairs per workload on seeds {seeds}, alternating which side runs first (the parent first in even "
    "pairs), one process at a time. Quartiles are statistics.quantiles(n=4, method='inclusive'). change_wins counts "
    "pairs where the change read better, ties counting for neither."
)


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The (details, result) of one bench/run.py run: its last two stdout lines."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"bench/run.py printed {len(lines)} line(s), not details and result")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: each metric's quartiles per side, the pairs the change
    won, the change of the median as a fraction of the parent's, and the
    values pair by pair; and the failed ops per side.

    `runs` holds {"workload", "pair", "side", "result"} entries, one per side
    of each pair; `metrics` holds {"name", "better"} entries, better being
    "higher" or "lower"."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = sorted((r for r in runs if r["workload"] == workload), key=lambda r: r["pair"])
        by_side = {side: [r["result"] for r in mine if r["side"] == side] for side in SIDES}
        if len(by_side["parent"]) != len(by_side["change"]):
            raise ValueError(f"{workload}: {len(by_side['parent'])} parent runs against {len(by_side['change'])}")
        doc: dict = {}
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            pairs = {side: [res["metrics"][name]["value"] for res in by_side[side]] for side in SIDES}
            wins = sum(sign * (c - p) > 0 for p, c in zip(pairs["parent"], pairs["change"]))
            stats = {side: _quartiles(pairs[side]) for side in SIDES}
            doc[name] = {
                "better": metric["better"],
                **stats,
                "change_wins": f"{wins}/{len(pairs['parent'])}",
                "median_change_frac": stats["change"]["median"] / stats["parent"]["median"] - 1.0,
                "pairs": pairs,
            }
        doc["failed"] = {side: sum(res["failed"] for res in by_side[side]) for side in SIDES}
        summary[workload] = doc
    return summary


def src_lines(checkout: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted((checkout / "src").rglob("*.py")))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--seeds", required=True, help="one seed per pair: N or LO-HI")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--what", default="", help="what the change does")
    ap.add_argument("--parent-commit", default=None)
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    seeds, workloads = _seeds(args.seeds), args.workloads.split(",")
    command = ["python3", "bench/run.py", "--workload", "{workload}", "--seed", "{seed}", "--seconds", str(args.seconds)]
    runs = []
    for workload in workloads:
        for pair, seed in enumerate(seeds):
            for position, side in enumerate(SIDES if pair % 2 == 0 else SIDES[::-1]):
                argv_run = [a.format(workload=workload, seed=seed) for a in command]
                done = subprocess.run(argv_run, cwd=checkouts[side], capture_output=True, text=True, check=True)
                details, result = parse_run(done.stdout)
                runs.append(
                    {"workload": workload, "pair": pair, "side": side, "position_in_pair": position,
                     "details": details, "result": result}
                )
                value = result["metrics"].get("ops_per_s", {}).get("value")
                print(f"{workload} pair {pair} seed {seed} {side}: ops_per_s {value}", file=sys.stderr)
    doc = {
        "what": args.what,
        "parent_commit": args.parent_commit,
        "sides": "each side ran bench/run.py from its own checkout, importing that checkout's src/",
        "command": " ".join(command).format(workload="<workload>", seed="<seed>"),
        "method": METHOD.format(pairs=len(seeds), seeds=args.seeds),
        "src_lines": {side: src_lines(path) for side, path in checkouts.items()},
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
