"""Compare a change with a parent commit in alternating perfbench pairs.

    python scripts/perf_pairs.py PARENT_REF --workload fill-dense --pairs 10

Checks PARENT_REF out into a temporary `git worktree`, then runs
`perfbench/run.py --trace 0` once in that worktree and once in the working
tree per pair, alternating which side runs first.  Pair i uses perfbench
seed `--seed` + i on both sides, so both sides see the same inputs.  Each
side runs the benchmark code of its own tree; `perfbench/` of the working
tree is read, never written, apart from the git-ignored results directory
that `run.py` itself writes.

Prints one line per pair, then for every end-to-end metric that
BENCHMARK.json lists: each side's median and quartiles, and how many pairs
the change wins (ties count for neither side).  A gain holds when the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's quartile spread.  It also says whether both sides
wrote the same output digests in every pair.  The last line of standard
output is one JSON object with every pair.  The worktree is removed on
exit, also after an error or an interrupt.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", metavar="PARENT_REF", help="commit to compare against")
    p.add_argument("--workload", required=True, help="perfbench workload name")
    p.add_argument("--pairs", type=int, required=True, help="number of alternating pairs")
    p.add_argument("--seconds", type=float, default=40.0, help="perfbench run length (default 40)")
    p.add_argument("--seed", type=int, default=1, help="perfbench seed of the first pair (default 1)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_bench(tree, args, seed) -> dict:
    """One perfbench run in a tree: its metric values, correctness and digests."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perf_pairs: perfbench failed in {tree}: {proc.stderr.strip()[-800:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{args.workload}-seed{seed}-trace0.json"
    with open(os.path.join(tree, "perfbench", "results", stem), encoding="utf-8") as fh:
        digests = json.load(fh)["digests"]
    return {
        "metrics": {k: v["value"] for k, v in last["metrics"].items()},
        "correct": last["correct"],
        "digests": digests,
    }


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs, end_to_end) -> dict:
    """Per metric: each side's quartiles, the change's wins and whether a
    gain holds by the wins and quartile-spread rule."""
    out = {}
    for m in end_to_end:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        gain = (cq[1] < pq[1]) if lower else (cq[1] > pq[1])
        out[name] = {
            "unit": m["unit"],
            "parent": pq,
            "change": cq,
            "wins": wins,
            "losses": losses,
            "gain_holds": (wins >= 0.9 * len(pairs) and gain
                           and abs(cq[1] - pq[1]) > pq[2] - pq[0]),
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    try:
        parent_sha = git("rev-parse", "--verify", args.parent + "^{commit}")
    except subprocess.CalledProcessError:
        raise SystemExit(f"perf_pairs: not a commit: {args.parent}") from None
    scratch = tempfile.mkdtemp(prefix="perf-pairs-")
    worktree = os.path.join(scratch, "parent")
    # an interrupt or a kill ends the run through the finally below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        git("worktree", "add", "--detach", worktree, parent_sha)
        sides = {"parent": worktree, "change": ROOT}
        pairs = []
        print(f"workload {args.workload}, parent {parent_sha[:12]}, {args.pairs} pairs of "
              f"{args.seconds:g} s runs, seeds {args.seed}..{args.seed + args.pairs - 1}")
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(sides[side], args, seed)
            pair["same_digests"] = pair["parent"]["digests"] == pair["change"]["digests"]
            pairs.append(pair)
            p, c = pair["parent"]["metrics"], pair["change"]["metrics"]
            print(f"  pair {i + 1} seed {seed} ({order[0]} first): pass_s parent "
                  f"{p['pass_s']:.5f} change {c['pass_s']:.5f}; "
                  + ", ".join(f"{m['name']} {p[m['name']]:.4g}/{c[m['name']]:.4g}"
                              for m in end_to_end if m["name"] != "pass_s")
                  + f"; digests {'equal' if pair['same_digests'] else 'DIFFER'}"
                  + ("" if pair["parent"]["correct"] and pair["change"]["correct"]
                     else "; a run reported correct=false"))
        summary = summarize(pairs, end_to_end)
        for name, s in summary.items():
            fmt = ", ".join
            print(f"  {name:<13} parent q1/median/q3 {fmt(f'{v:.5g}' for v in s['parent'])}; "
                  f"change {fmt(f'{v:.5g}' for v in s['change'])}; change wins {s['wins']}, "
                  f"loses {s['losses']} of {len(pairs)}; gain holds: "
                  f"{'yes' if s['gain_holds'] else 'no'}")
        same = all(p["same_digests"] for p in pairs)
        print(f"  output digests equal in every pair: {'yes' if same else 'no'}")
        print(json.dumps({"workload": args.workload, "parent": parent_sha, "pairs": pairs,
                          "summary": summary, "same_digests": same}))
        return 0
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", worktree], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


if __name__ == "__main__":
    sys.exit(main())
