#!/usr/bin/env python3
"""A/B the benchmark of a parent revision against the working tree.

    python3 results/ab.py <rev> [--pairs N] [--seed-base S] [--only W[,W]]
                                [--seconds S] [--traced N]

Builds `benchmark/` twice, offline and in copies under `target/ab/`:
`<rev>` from `git archive`, and the working tree (tracked and untracked,
not ignored, files) as it is. Then, for each pair i = 1..N, it runs
`stackbench --workload W --seed <S+i-1> --seconds S --trace 0` on both
sides, the parent first on odd pairs, and reads each run's last-line
JSON. `--traced N` adds N traced pairs for the per-layer metrics.

Per workload and end-to-end metric the record holds both run lists, the
median and quartiles of each side, the pairs the working tree won, and a
verdict: `better` or `worse` when one side won at least 9 in 10 pairs
and the medians lie further apart than the parent's interquartile
range, `unresolved` otherwise. The record is appended as one session to
`results/BENCH_<rev>..<head>.json`, where `<head>` is `worktree` when
tracked files differ from HEAD and HEAD's short hash otherwise, so a
claim and its repeat on fresh seeds share one file.

Nothing under `benchmark/` in the working tree is written: both builds
use the copies' manifests, so cargo rewrites only the copies' lock files.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB = os.path.join(ROOT, "target", "ab")


def git(*args, **kw):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, **kw).stdout


def copy_tree(rev, into):
    """`rev`'s files (or the working tree's, for rev None) into `into`."""
    os.makedirs(into, exist_ok=True)
    if rev is not None:
        archive = git("archive", rev)
        subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
        return
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    present = b"\0".join(f for f in files.split(b"\0") if f and os.path.exists(os.path.join(ROOT, os.fsdecode(f))))
    pack = subprocess.run(["tar", "--null", "-T", "-", "-c"], cwd=ROOT, input=present, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=pack, check=True)


def build(tree):
    target = tree + "-target"
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(tree, "benchmark", "Cargo.toml"), "--target-dir", target],
        check=True)
    return os.path.join(target, "release", "stackbench")


def run(binary, tree, workload, seed, seconds, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return {
        "correct": bool(result.get("correct")) and out.returncode == 0,
        "failed": result.get("failed"),
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
    }


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent, head, better):
    """The verdict on one metric from its paired run lists."""
    lower = better == "lower"
    won = sum(1 for p, h in zip(parent, head) if (h < p if lower else h > p))
    lost = sum(1 for p, h in zip(parent, head) if (h > p if lower else h < p))
    pq1, pmed, pq3 = quartiles(parent)
    hq1, hmed, hq3 = quartiles(head)
    apart = abs(hmed - pmed) > pq3 - pq1
    need = 0.9 * len(parent)
    if won >= need and apart and (hmed < pmed if lower else hmed > pmed):
        verdict = "better"
    elif lost >= need and apart and (hmed > pmed if lower else hmed < pmed):
        verdict = "worse"
    else:
        verdict = "unresolved"
    return {
        "better": better,
        "parent": parent,
        "head": head,
        "parent_median": pmed,
        "parent_iqr": [pq1, pq3],
        "head_median": hmed,
        "head_iqr": [hq1, hq3],
        "pairs_won": won,
        "pairs": len(parent),
        "parent_over_head": pmed / hmed if hmed else None,
        "verdict": verdict,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--only")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args()

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = args.only.split(",") if args.only else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    rev = git("rev-parse", "--short", args.rev).decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    head = "worktree" if dirty else git("rev-parse", "--short", "HEAD").decode().strip()
    out = os.path.join(ROOT, "results", f"BENCH_{rev}..{head}.json")

    sides = {}
    for side, source in (("parent", rev), ("head", None)):
        tree = os.path.join(AB, side)
        subprocess.run(["rm", "-rf", tree], check=True)
        copy_tree(source, tree)
        sides[side] = (build(tree), tree)

    def pairs(count, trace, seed0):
        runs = {w: {"parent": [], "head": []} for w in workloads}
        for i in range(count):
            seed = seed0 + i
            order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
            for w in workloads:
                for side in order:
                    r = run(*sides[side], w, seed, seconds, trace)
                    runs[w][side].append(r)
                    print(f"ab: {w} seed {seed} {side}: correct={r['correct']} "
                          f"op_p50_us={r['metrics'].get('op_p50_us')}", file=sys.stderr)
        return runs

    untraced = pairs(args.pairs, 0, args.seed_base)
    session = {
        "parent": rev,
        "head": head,
        "protocol": {
            "command": "stackbench --workload W --seed i --seconds S --trace 0",
            "seeds": [args.seed_base, args.seed_base + args.pairs - 1],
            "seconds": seconds,
            "order": "parent first on odd pairs",
            "rule": "better/worse: >= 9/10 pairs won and medians further apart than the parent's IQR",
        },
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    for w in workloads:
        par, hd = untraced[w]["parent"], untraced[w]["head"]
        entry = {
            "all_correct": all(r["correct"] for r in par + hd),
            "failed": [sum(r["failed"] or 0 for r in par), sum(r["failed"] or 0 for r in hd)],
            "end_to_end": {},
        }
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name] for r in par if name in r["metrics"]]
            h = [r["metrics"][name] for r in hd if name in r["metrics"]]
            if p and len(p) == len(h):
                entry["end_to_end"][name] = compare(p, h, m["better"])
        session["workloads"][w] = entry
    if args.traced:
        traced = pairs(args.traced, 1, args.seed_base)
        layer = {m["name"]: m["better"] for m in spec["per_layer"]}
        for w in workloads:
            medians = {}
            for name, better in layer.items():
                p = [r["metrics"][name] for r in traced[w]["parent"] if name in r["metrics"]]
                h = [r["metrics"][name] for r in traced[w]["head"] if name in r["metrics"]]
                # A traced run reports every per-layer name, 0 for the
                # layers its workload does not exercise.
                if any(p + h):
                    medians[name] = {"better": better, "parent": statistics.median(p), "head": statistics.median(h)}
            session["workloads"][w]["per_layer_traced"] = medians

    record = json.load(open(out)) if os.path.exists(out) else {"sessions": []}
    record["sessions"].append(session)
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for w, entry in session["workloads"].items():
        for name, c in entry["end_to_end"].items():
            print(f"{w:14} {name:13} {c['parent_median']:>14.4g} -> {c['head_median']:<14.4g} "
                  f"won {c['pairs_won']}/{c['pairs']}  {c['verdict']}")
    print(f"ab: wrote {os.path.relpath(out, ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
