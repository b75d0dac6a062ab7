"""Fail when `abacfill predict` or `abacfill evaluate` needs more memory
than its ceiling.

Each predict case generates a policy with `generate --seed 1`, hides 6% of
its known cells in a model copy with `Random(1)`, then runs `abacfill
predict --st 0.1` on it in a child process.  The evaluate case runs one
removal sweep with `--json`.  Each reads its child's peak resident set size
from `os.wait4`.  Exits 1 when any case's peak is above its ceiling.

    PYTHONPATH=src python scripts/rss_ceiling.py

Both steps run in child processes: on Linux a child's peak includes the
memory of the process it was started from, so the measuring process
imports nothing of the package and builds nothing itself.
"""

import os
import subprocess
import sys
import tempfile

SEED, PERCENT, THRESHOLD = 1, 6, "0.1"
# (template, scale, ceiling in MB)
CASES = [
    # no learning array is users x resources: near 57 MB
    ("project", 240, 150),
    # conditions need two holders and constraints a shared value, and every
    # triple is ranked by a 1-atom rule, so no gram is built and numpy is
    # never loaded: near 30 MB (about 78 when every triple is fitted)
    ("university", 360, 60),
]
# a sweep whose JSON detail is about 5 MB: written as it is encoded it peaks
# near 28 MB; joined into one string before writing, near 60 MB
SWEEP = ["--template", "university", "--scales", "4,6,8,12,20", "--percents", "3,6,9,30",
         "--runs", "20"]
SWEEP_CEILING = 45


def make_inputs(template, scale, directory) -> None:
    import random

    from abacfill.generator import GeneratorConfig, generate, reference_entitlements
    from abacfill.harness import remove_cells
    from abacfill.model import Policy
    from abacfill.policy_io import save_entitlements, save_policy

    policy = generate(GeneratorConfig(template=template, scale=scale, seed=SEED))
    save_entitlements(reference_entitlements(policy), os.path.join(directory, "entitlements.csv"))
    om = policy.model.copy()
    remove_cells(om, PERCENT / 100.0, random.Random(SEED))
    save_policy(Policy(om, policy.rules), os.path.join(directory, "policy.json"))


def peak_mb(argv) -> float:
    """Runs argv to its end and returns its peak resident set size in MB."""
    child = subprocess.Popen(argv)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"{argv[1:4]} exited {child.returncode}")
    return usage.ru_maxrss / 1024  # Linux reports kilobytes


def check(template, scale, ceiling) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(
            [sys.executable, __file__, "--make-inputs", template, str(scale), tmp], check=True
        )
        mb = peak_mb([
            sys.executable, "-m", "abacfill.cli", "predict",
            "--policy", os.path.join(tmp, "policy.json"),
            "--entitlements", os.path.join(tmp, "entitlements.csv"),
            "--st", THRESHOLD, "--out", os.path.join(tmp, "predict.json"),
        ])
    print(f"predict {template}-{scale}, {PERCENT}% hidden, st {THRESHOLD}: "
          f"peak RSS {mb:.0f} MB (ceiling {ceiling} MB)")
    return mb <= ceiling


def check_sweep() -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        mb = peak_mb([sys.executable, "-m", "abacfill.cli", "evaluate", *SWEEP,
                      "--json", os.path.join(tmp, "detail.json")])
    print(f"evaluate {' '.join(SWEEP)} --json: "
          f"peak RSS {mb:.0f} MB (ceiling {SWEEP_CEILING} MB)")
    return mb <= SWEEP_CEILING


def main() -> int:
    if sys.argv[1:2] == ["--make-inputs"]:
        template, scale, directory = sys.argv[2:5]
        make_inputs(template, int(scale), directory)
        return 0
    results = [check(*case) for case in CASES] + [check_sweep()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
