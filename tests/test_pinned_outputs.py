"""Byte identity of the user-facing outputs.

Each digest is the sha256 of one `abacfill predict` or `abacfill cluster`
JSON file, or of one `abacfill evaluate` CSV or JSON file.  The generate
digests hash the generated policy itself: each object in insertion order
with its cells in dict order, then the policy as `policy_to_dict` writes it
and its reference entitlements as CSV.  `save_policy`, `cells()` and grouping
walk objects by id, so only these see the order in which the generator
adds objects and cells.  The predict
and evaluate digests are as the pipeline wrote them before learning took
its constraint statistics from value joins; the cluster digests are as
grouping wrote them while it still summed similarities as fractions.
Performance work must leave every byte of them as it is; a change that
means to move an output updates its digest here and says why.  One has moved: seed 17,
draw 5 predicted trn07b.student wrongly from a condition on a value only
one group member held; once conditions need two holders that cell is NEI.
The two project predict and evaluate digests moved when ranking came to
score a triple by its smallest exact rules: a rule of two atoms ranks just
those atoms, where the fit had gated them, so more project cells are
filled in, none of them wrongly.

The predict and cluster inputs follow the benchmark's fill scheme:
`generate` with seed S, then cells hidden in a model copy with
`Random(S * 1000 + draw)`, at the CLI's default threshold.  Cluster is
pinned at a second setting too, threshold 0.1 with decimal weights, whose
report prints each group's exact member means rounded once, and evaluate
at threshold 0.25 with the same weights, where refinement splits buckets.
"""

import hashlib
import json
import random

import pytest

from abacfill.cli import main
from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import remove_cells
from abacfill.model import Policy
from abacfill.policy_io import (
    entitlements_to_csv,
    policy_to_dict,
    save_entitlements,
    save_policy,
)

GENERATE = {
    ("university", 1, 0): "c2c533a001d65d3c3f583d15b4fa10c51ca6c5f895f447d1158e397d042227fd",
    ("university", 3, 7): "0b38fafb0c246c7ca71fa687aaa89a7d5914913b23e2cc793041b031a8bf07de",
    ("university", 20, 17): "376f342c1de1a125e85cb5e533334ed10fb7a073ac769ae98f9a4eb2082137e3",
    ("project", 1, 0): "4af68401074a26a989b6e6430411eb6f4a31e5ae1c8ecdccaff1f0cba971db71",
    ("project", 3, 7): "8d8f2d0bfd8a24ef1283c9ac926a357565bd7804d0e86bb90c555c7851034e14",
    ("project", 20, 17): "d14ee7eb0f771172429c15156582c4d91f9a6f7085eb0ac81b470409d12cc133",
}

PREDICT = {
    ("university", 20, 6, 17, 0): "9f716bc557890e6da0279ba1481b622eb6d50812a8deca19a87eb35665f87364",
    ("university", 20, 6, 17, 1): "adcd8d427b26419770583f54f3e6c0d957b11df9e61ec05873fed552610b741f",
    ("university", 20, 6, 17, 2): "a4145a9b0cef0bea53e8412a6052749c5af0068db82022a07eb5670bac4ea0e0",
    ("university", 20, 6, 17, 3): "5c70c665a995fd03199565066f70a85924381e88863b4768e0e4a9597b63314f",
    ("university", 20, 6, 17, 4): "9a330f1bbd5c7ca17137e863b03a68b18fa8413e12fb09e224e7971b33613582",
    ("university", 20, 6, 17, 5): "b2f90a75083d1c53e56bc95f5ad49670eb5987ae63b4989a6d64aa317e7d61e4",
    ("project", 60, 30, 17, 0): "357a36b722fa9cc3c555b46a0f0f9f7351f41d9aa826224ae7fd1dbe12ea48cd",
}

CLUSTER = {
    ("university", 20, 6, 17, 0, False): "eed73b8517dd0219556cd44eb204c37b698246e7d11ac446ac8dccf2a02e4a7e",
    ("university", 20, 6, 17, 5, False): "dbde487788a1fe5f7f7ef0dc9fb3831e80bdbe8c178e9ec29693d08338b06bd2",
    ("university", 20, 6, 17, 0, True): "a29a5958e90b9130a278407e044efd0996ae0cbbe9485e497aad7fe5ddca34b2",
    ("university", 20, 6, 17, 5, True): "f3862fb16f934920845162cc00d8b01d5ae6869cc58db96df23aaee8d7be37e0",
}

EVALUATE = {
    ("university", "4,6", "6,30", 2): (
        "222784c4338a5c2ce74c3cd8a002a9e076b2b1254eaf55763646a7a411550234",
        "b5f61c6b4fb7666968faeaed66edee78c13382451f7d081814bd5e7a0c572b18",
    ),
    ("project", "3,10", "6,30", 2): (
        "fd890c36d7aa939981877291506192be40a18814f2f0a6e782f70e05804b3f58",
        "0fd88d2d6ab241774f5cb65591c094539804433721d2877e0f0cb8a0f04ffc6b",
    ),
    # 60% hidden: run 3 of project-3 hides every known holder of the keys
    # that `agency` and `vendor` share, so its constraint candidates lose
    # `agency equal vendor`; pinned as the removal runs hid cells in a whole
    # model copy and found the candidates by a walk of it
    ("project", "2,3", "60", 4): (
        "bc7ca541495507f6642dc7b3a7952375c1ad073a910d50978324a928e140e214",
        "bcb4c124df7e1e323d42dcd9261a09b072eaf11bc00abe57e6812c036d632841",
    ),
}


# --st 0.25 with decimal weights (see `weights_flag`): refinement splits
# buckets in 14 of these 16 runs, where the st 0.1 pins above split none,
# so the movers' tallies after a run's copied first-round tally are pinned
# too; pinned as the removal runs tallied every bucket from its members
EVALUATE_WEIGHTED = {
    ("university", "4,6", "6,30", 2): (
        "ea83d0833614afc15300d203f939d7370db3c5aaecff37fe97901515b0577d15",
        "7fd686ab8dcf23c128ce78e42a9e72125e497c8e44f3ec0e581cb464cccba4af",
    ),
    ("project", "3,10", "6,30", 2): (
        "f95f055e530e1561ef49446982bcec23171e8056d101ae2b3c6d954e29fffb12",
        "c1d62e90e1418e397003f307a009d872a6a07d99c050ae22e49a9d90d2b4317d",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _damaged(tmp_path, template, scale, percent, seed, draw):
    """The generated policy with cells hidden in a model copy, written to
    tmp_path: (policy, path of the damaged policy)."""
    policy = generate(GeneratorConfig(template=template, scale=scale, seed=seed))
    om = policy.model.copy()
    remove_cells(om, percent / 100.0, random.Random(seed * 1000 + draw))
    damaged = tmp_path / "policy.json"
    save_policy(Policy(om, policy.rules), str(damaged))
    return policy, damaged


def generate_digest(template, scale, seed) -> str:
    policy = generate(GeneratorConfig(template=template, scale=scale, seed=seed))
    h = hashlib.sha256()
    for table in (policy.model.users, policy.model.resources):
        for obj in table.values():
            cells = [(n, sorted(v) if isinstance(v, frozenset) else repr(v)) for n, v in obj.attrs.items()]
            h.update(repr((obj.side.value, obj.id, cells)).encode())
    h.update(json.dumps(policy_to_dict(policy)).encode())
    h.update(entitlements_to_csv(reference_entitlements(policy)).encode())
    return h.hexdigest()


def predict_digest(tmp_path, template, scale, percent, seed, draw) -> str:
    policy, damaged = _damaged(tmp_path, template, scale, percent, seed, draw)
    ents = tmp_path / "entitlements.csv"
    save_entitlements(reference_entitlements(policy), str(ents))
    out = tmp_path / "predict.json"
    argv = ["predict", "--policy", str(damaged), "--entitlements", str(ents), "--out", str(out)]
    assert main(argv) == 0
    return _sha256(out)


def weights_flag(schema) -> str:
    """Weights 0.1, 0.3 and 2.5 cycled over the declared attribute names in
    sorted order, as `--weights` takes them (0.1 and 0.3 have no exact
    binary form)."""
    names = sorted({name for _, name in schema.attrs})
    return ",".join(f"{n}={(0.1, 0.3, 2.5)[i % 3]}" for i, n in enumerate(names))


def cluster_digest(tmp_path, template, scale, percent, seed, draw, weighted) -> str:
    """`abacfill cluster` at the default threshold, or weighted: threshold
    0.1 and `weights_flag` weights."""
    policy, damaged = _damaged(tmp_path, template, scale, percent, seed, draw)
    flags = []
    if weighted:
        flags = ["--st", "0.1", "--weights", weights_flag(policy.model.schema)]
    out = tmp_path / "cluster.json"
    assert main(["cluster", "--policy", str(damaged), "--out", str(out), *flags]) == 0
    return _sha256(out)


def evaluate_digests(tmp_path, template, scales, percents, runs, flags=()) -> tuple:
    csv_path, json_path = tmp_path / "summary.csv", tmp_path / "detail.json"
    argv = ["evaluate", "--template", template, "--scales", scales, "--percents", percents,
            "--runs", str(runs), "--csv", str(csv_path), "--json", str(json_path), *flags]
    assert main(argv) == 0
    return _sha256(csv_path), _sha256(json_path)


@pytest.mark.parametrize("case", sorted(GENERATE), ids=lambda c: "-".join(map(str, c)))
def test_generate_output_is_pinned(case):
    assert generate_digest(*case) == GENERATE[case]


@pytest.mark.parametrize("case", sorted(PREDICT), ids=lambda c: "-".join(map(str, c)))
def test_predict_output_is_pinned(tmp_path, case):
    assert predict_digest(tmp_path, *case) == PREDICT[case]


@pytest.mark.parametrize("case", sorted(EVALUATE), ids=lambda c: "-".join(map(str, c)))
def test_evaluate_output_is_pinned(tmp_path, case):
    assert evaluate_digests(tmp_path, *case) == EVALUATE[case]


@pytest.mark.parametrize("case", sorted(EVALUATE_WEIGHTED), ids=lambda c: "-".join(map(str, c)))
def test_weighted_evaluate_output_is_pinned(tmp_path, case):
    schema = generate(GeneratorConfig(template=case[0], scale=1, seed=0)).model.schema
    flags = ["--st", "0.25", "--weights", weights_flag(schema)]
    assert evaluate_digests(tmp_path, *case, flags) == EVALUATE_WEIGHTED[case]


@pytest.mark.parametrize("case", sorted(CLUSTER), ids=lambda c: "-".join(map(str, c)))
def test_cluster_output_is_pinned(tmp_path, case):
    assert cluster_digest(tmp_path, *case) == CLUSTER[case]
