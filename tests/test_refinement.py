"""Group refinement by per-attribute counting against the exact pairwise
reference in tests/oracles.py: same groups, in the same order, and a
`cluster` report whose statistics are the means refinement compared."""

import json
import random
from fractions import Fraction

import pytest

from abacfill import clustering
from abacfill.cli import main
from abacfill.clustering import ClusteringConfig, cluster_objects
from abacfill.generator import GeneratorConfig, generate
from abacfill.harness import remove_cells
from abacfill.model import Policy, Side
from abacfill.policy_io import policy_from_dict, save_policy
from oracles import PairwiseReference, exact_similarity, random_small_policy

THRESHOLDS = (0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0)


def _groups(om, threshold, weights=None):
    config = ClusteringConfig(threshold=threshold, weights=weights or {})
    return [g.members for g in cluster_objects(om, config).groups]


# weights and thresholds whose decimals need large integer scales
ODD_WEIGHTS = (0.123456789, 1e-7, 1234.5)
ODD_THRESHOLDS = THRESHOLDS + (0.999999,)
WIDE = [f"w{i:02d}" for i in range(24)]


def _widened(doc, rng):
    """The document with its known set cells redrawn from 24 values at
    sizes from 0 to 23, so that union sizes vary widely and empty sets are
    common; in every other draw one side's cells all become MISSING."""
    blank = rng.choice(("users", "resources", None, None))
    for key in ("users", "resources"):
        for entry in doc[key]:
            attrs = entry["attrs"]
            for name, cell in attrs.items():
                if key == blank:
                    attrs[name] = {"missing": True}
                elif isinstance(cell, list):
                    attrs[name] = sorted(rng.sample(WIDE, rng.choice((0, 0, 1, 2, 5, 11, 17, 23))))
    return doc


def test_random_policies_match_pairwise_reference():
    rng = random.Random(2604)
    attrs = ("id", "ua_s", "ua_m", "ra_s", "ra_m")
    for draw in range(300):
        om = policy_from_dict(random_small_policy(rng, max_side=8)).model
        # every other draw weighs attributes by floats with no short binary form
        weights = {a: rng.choice((0.1, 0.3, 1.0, 2.5)) for a in attrs} if draw % 2 else {}
        reference = PairwiseReference(om, weights)
        for threshold in THRESHOLDS:
            assert _groups(om, threshold, weights) == reference.groups(threshold), (draw, threshold)
    # decimals with long expansions or extreme ratios, on wide and blank cells
    for draw in range(150):
        om = policy_from_dict(_widened(random_small_policy(rng, max_side=8), rng)).model
        weights = {a: rng.choice(ODD_WEIGHTS + (0.1, 1.0)) for a in attrs} if draw % 3 else {}
        reference = PairwiseReference(om, weights)
        for threshold in ODD_THRESHOLDS:
            assert _groups(om, threshold, weights) == reference.groups(threshold), (draw, threshold)


def _layered(rng, size):
    """A document whose objects draw their set cells from three families of
    3, 6 and 12 values, each cell perturbed by up to two values, with some
    cells MISSING or empty: groups that split, then split again among the
    members that stayed."""
    doc = random_small_policy(rng, max_side=2)
    families = [rng.sample(WIDE, k) for k in (3, 6, 12)]
    for key, single, multi in (("users", "ua_s", "ua_m"), ("resources", "ra_s", "ra_m")):
        doc[key] = []
        for i in range(size):
            r = rng.random()
            cells = set(rng.choice(families)) ^ set(rng.sample(WIDE, rng.randint(0, 2)))
            attrs = {single: {"missing": True} if rng.random() < 0.2 else rng.choice("ab"),
                     multi: {"missing": True} if r < 0.15 else [] if r < 0.25 else sorted(cells)}
            doc[key].append({"id": f"{key[0]}{i}", "attrs": attrs})
    return doc


def test_stayers_split_again_as_the_pairwise_reference(tmp_path, capsys, monkeypatch):
    # a stayers' round works on the group's tally with the movers taken
    # out; count the rounds in which such a tally splits again
    taken_out = set()
    resplits = []
    drop, below = clustering._Tally.drop, clustering._Tally.below

    def counting_drop(tally, moved):
        taken_out.add(id(tally))
        return drop(tally, moved)

    def counting_below(tally, threshold):
        moved = below(tally, threshold)
        if id(tally) in taken_out and any(moved) and not all(moved):
            resplits.append(threshold)
        return moved

    monkeypatch.setattr(clustering._Tally, "drop", counting_drop)
    monkeypatch.setattr(clustering._Tally, "below", counting_below)
    rng = random.Random(2610)
    attrs = ("id", "ua_s", "ua_m", "ra_s", "ra_m")
    checked = 0
    for draw in range(60):
        doc = _layered(rng, rng.randint(6, 24))
        om = policy_from_dict(doc).model
        weights = {a: rng.choice(ODD_WEIGHTS + (0.1, 0.3, 1.0)) for a in attrs} if draw % 3 else {}
        reference = PairwiseReference(om, weights)
        for threshold in ODD_THRESHOLDS:
            resplits.clear()
            expected = reference.groups(threshold)
            assert _groups(om, threshold, weights) == expected, (draw, threshold)
            if resplits:
                path = tmp_path / "layered.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                _check_report(capsys, path, reference, expected, threshold, weights)
                checked += 1
    assert checked >= 40


def _damaged(template, scale, fraction, path):
    """A generated policy with a seeded share of its cells hidden in a
    model copy, and that policy written to path."""
    policy = generate(GeneratorConfig(template, scale, seed=scale))
    om = policy.model.copy()
    remove_cells(om, fraction, random.Random(1000 * scale + round(fraction * 100)))
    save_policy(Policy(om, policy.rules), str(path))
    return om


def _check_report(capsys, path, reference, expected, threshold, weights):
    """`abacfill cluster` on the policy file forms the expected groups, each
    reported with the exact pairwise mean and the extreme member means
    that refinement compared with the threshold, each rounded once."""
    flags = ["--weights", ",".join(f"{n}={w}" for n, w in weights.items())] if weights else []
    assert main(["cluster", "--policy", str(path), "--st", repr(threshold), *flags]) == 0
    groups = json.loads(capsys.readouterr().out)["groups"]
    # grouping walks objects by id, so the file forms the model's groups in order
    assert [tuple(g["members"]) for g in groups] == expected
    for g in groups:
        members = g["members"]
        assert g["pairs"] == len(members) * (len(members) - 1) // 2
        if len(members) == 1:
            assert g["mean_similarity"] is g["min_member_mean"] is g["max_member_mean"] is None
            continue
        side = Side(g["side"])
        sim = reference.similarity[side]
        pairs = [sim[a, b] for i, a in enumerate(members) for b in members[i + 1:]]
        means = reference.member_means(side, members)
        where = (threshold, g["gid"])
        assert g["mean_similarity"] == float(sum(pairs, Fraction(0)) / len(pairs)), where
        assert g["min_member_mean"] == float(min(means)), where
        assert g["max_member_mean"] == float(max(means)), where
        assert g["min_member_mean"] <= g["mean_similarity"] <= g["max_member_mean"], where


def _match_templates(tmp_path, capsys, template, fraction, weighted):
    for scale in range(2, 11):
        path = tmp_path / f"{scale}.json"
        om = _damaged(template, scale, fraction, path)
        weights = {}
        if weighted:
            # 0.1 and 0.3 have no exact binary form; cycled over declared attributes
            names = sorted({name for _, name in om.schema.attrs})
            weights = {name: (0.1, 0.3, 2.5)[i % 3] for i, name in enumerate(names)}
        reference = PairwiseReference(om, weights)
        for threshold in THRESHOLDS:
            expected = reference.groups(threshold)
            assert _groups(om, threshold, weights) == expected, (scale, threshold)
            _check_report(capsys, path, reference, expected, threshold, weights)


@pytest.mark.parametrize("fraction", (0.0, 0.06, 0.3))
@pytest.mark.parametrize("template", ("university", "project"))
def test_templates_match_pairwise_reference(tmp_path, capsys, template, fraction):
    _match_templates(tmp_path, capsys, template, fraction, weighted=False)


@pytest.mark.parametrize("fraction", (0.0, 0.06, 0.3))
@pytest.mark.parametrize("template", ("university", "project"))
def test_weighted_templates_match_pairwise_reference(tmp_path, capsys, template, fraction):
    _match_templates(tmp_path, capsys, template, fraction, weighted=True)


def test_member_at_exact_threshold_stays():
    # A float sum of these similarities reads 0.24999999999999997 for
    # led06a and led06b, which would move them; their exact mean is 1/4.
    om = generate(GeneratorConfig("project", 10, seed=2)).model.copy()
    remove_cells(om, 0.3, random.Random(2030))
    tied = ("led01a", "led03b", "led06a", "led06b", "led08a")
    for oid in ("led06a", "led06b"):
        rest = [om.users[m] for m in tied if m != oid]
        total = sum((exact_similarity(om.users[oid], o, {}) for o in rest), Fraction(0))
        assert total / len(rest) == Fraction(1, 4)
    groups = _groups(om, 0.25)
    assert ("led06a", "led06b") in groups
    assert ("led01a", "led03b", "led08a") in groups
