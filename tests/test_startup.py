"""What a fresh process loads to run a command.

The package defines its records as plain classes with `__slots__`, so no
command imports `dataclasses`, and `pickle` is imported only by a sweep
that forks (`evaluate --jobs N`, N > 1).
"""

import os
import random
import subprocess
import sys

from abacfill import harness
from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import remove_cells
from abacfill.model import Policy
from abacfill.policy_io import save_entitlements, save_policy

_COMMANDS = """
import sys
from abacfill import cli
policy, ents = sys.argv[1:3]
common = ["--policy", policy, "--entitlements", ents]
assert cli.main(["predict", *common, "--out", "predict.json"]) == 0
assert cli.main(["features", *common, "--user", "fac01a", "--resource", "gbk01a",
                 "--action", "modify", "--out", "features.json"]) == 0
assert cli.main(["cluster", "--policy", policy, "--out", "cluster.json"]) == 0
sweep = ["evaluate", "--template", "university", "--scales", "2,4", "--percents", "6",
         "--runs", "2"]
assert cli.main([*sweep, "--jobs", "1", "--csv", "one.csv", "--json", "one.json"]) == 0
print(sorted(m for m in ("dataclasses", "pickle") if m in sys.modules))
assert cli.main([*sweep, "--jobs", "2", "--csv", "two.csv", "--json", "two.json"]) == 0
"""


def test_commands_load_neither_dataclasses_nor_pickle(tmp_path):
    """In a fresh interpreter predict, features, cluster and evaluate
    --jobs 1 on noise-free university-4 input leave both unloaded, and
    evaluate --jobs 2, which may fork, writes the bytes --jobs 1 wrote."""
    policy = generate(GeneratorConfig(template="university", scale=4, seed=1))
    entitlements = reference_entitlements(policy)
    om = policy.model.copy()
    remove_cells(om, 0.06, random.Random(1))
    save_policy(Policy(om, ()), str(tmp_path / "p.json"))
    save_entitlements(entitlements, str(tmp_path / "e.csv"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _COMMANDS, "p.json", "e.csv"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
    for one, two in (("one.csv", "two.csv"), ("one.json", "two.json")):
        assert (tmp_path / one).read_bytes() == (tmp_path / two).read_bytes()
