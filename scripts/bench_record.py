"""Record parent-versus-change benchmark pairs into a BENCH_<n>.json file.

    python3 scripts/bench_record.py --parent ../parent --change . \
        --workload query-20k --seeds 301 302 303 --out BENCH_13.json

For each seed it runs `bench/run.py` (full size, --trace 0, the run
length of BENCHMARK.json) once in each checkout, alternating which side
runs first from one pair to the next, and keeps the JSON line each run
prints last. The output holds every run, and per workload and end-to-end
metric each side's median and quartiles plus the number of pairs the
change won (ties count for neither side), together with the seeds, the
core count and the revision of each checkout: its commit and the git
tree ids of the files measured (see revision()). Each checkout
benchmarks its own source.
Runs of one workload append to an existing output file, so workloads can
be recorded one command at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(checkout: Path, *args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True, env=env).stdout.strip()


def revision(checkout: Path) -> dict:
    """The checkout's HEAD commit and the git tree ids of what is measured
    as it is on disk, uncommitted and untracked files included: the whole
    worktree, `src` and `bench`. A tree id equals `git rev-parse
    <commit>:src` of any commit holding the same files, so the record
    names the code measured even before that code is committed."""
    with tempfile.TemporaryDirectory() as tmp:
        # a scratch index, so that the checkout's own index is untouched
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git(checkout, "add", "--all", env=env)
        tree = git(checkout, "write-tree", env=env)
    head = git(checkout, "rev-parse", "HEAD")
    return {
        "commit": head,
        "clean": tree == git(checkout, "rev-parse", "HEAD^{tree}"),
        "tree": tree,
        **{part: git(checkout, "rev-parse", f"{tree}:{part}") for part in ("src", "bench")},
    }


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        doc = {"correct": False, "metrics": {}}
    doc["exit"] = proc.returncode
    # the human-readable lines carry the unscaled wall-clock figures
    doc["report"] = [line for line in lines[:-1] if not line.startswith("{")]
    return doc


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    doc.update(nproc=len(os.sched_getaffinity(0)),
               revisions={side: revision(path) for side, path in sides.items()})
    entry = doc.setdefault("workloads", {}).setdefault(args.workload, {"runs": []})
    pairs_before = len(entry["runs"]) // 2
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if (pairs_before + i) % 2 == 0 else ("change", "parent")
        for side in order:
            result = run(sides[side], args.workload, seed, seconds)
            entry["runs"].append({"side": side, "seed": seed, "first": side == order[0], **result})
            values = {m: v["value"] for m, v in result["metrics"].items()}
            print(f"{args.workload} seed {seed} {side:<6} exit {result['exit']} {values}", flush=True)

    runs = entry["runs"]
    entry["seeds"] = sorted({r["seed"] for r in runs})
    entry["all_correct"] = all(r["correct"] and r["exit"] == 0 for r in runs)
    entry["metrics"] = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        by_side = {side: {r["seed"]: r["metrics"][name]["value"] for r in runs
                          if r["side"] == side and name in r["metrics"]} for side in sides}
        paired = sorted(set(by_side["parent"]) & set(by_side["change"]))
        wins = sum((by_side["change"][s] < by_side["parent"][s]) if lower else
                   (by_side["change"][s] > by_side["parent"][s]) for s in paired)
        entry["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            **{side: summary(list(by_side[side].values())) for side in sides},
            "change_wins": f"{wins}/{len(paired)}",
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if entry["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
