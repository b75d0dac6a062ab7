"""Randomized property suites.

Each suite runs its full sample count under three fixed global seeds, so a
failure is reproducible by seed and the suites stay flake-free.  Samples
are drawn from dedicated random.Random instances; nothing here touches the
process-global generator.
"""

import random

import pytest

from test_prediction import _FixedCache

from abacfill.clustering import (
    ClusteringConfig,
    cluster_objects,
    object_similarity,
)
from abacfill.features import Feature, RankedFeature
from abacfill.generator import GeneratorConfig, generate
from abacfill.harness import (
    eligible_cells,
    remove_cells,
    removal_count,
    restore_cells,
)
from abacfill.model import (
    MISSING,
    NULL,
    AtomicCondition,
    AttrKind,
    AttrSchema,
    Entitlement,
    Obj,
    ObjectModel,
    Schema,
    Side,
)
from abacfill.prediction import Confidence, PredictionConfig, predict_cell

GLOBAL_SEEDS = (11, 23, 47)

LETTERS = ("w", "x", "y", "z")


def _random_cell(rng, kind):
    roll = rng.random()
    if roll < 0.15:
        return NULL
    if roll < 0.25:
        return MISSING
    if kind is AttrKind.SINGLE:
        return rng.choice(LETTERS)
    return frozenset(rng.sample(LETTERS, rng.randint(0, 3)))


def _random_side_schema(rng, side):
    # id plus a handful of attrs with random kinds
    specs = [AttrSchema("id", AttrKind.SINGLE, side)]
    for i in range(rng.randint(2, 5)):
        kind = rng.choice((AttrKind.SINGLE, AttrKind.MULTI))
        specs.append(AttrSchema(f"a{i}", kind, side))
    return specs


def _random_object(rng, side, specs, oid):
    attrs = {"id": oid}
    for spec in specs:
        if spec.name == "id":
            continue
        attrs[spec.name] = _random_cell(rng, spec.kind)
    return Obj(oid, side, attrs)


def _random_model(rng) -> ObjectModel:
    schema = Schema()
    user_specs = _random_side_schema(rng, Side.USER)
    res_specs = _random_side_schema(rng, Side.RESOURCE)
    for spec in user_specs + res_specs:
        schema.add(spec)
    om = ObjectModel(schema=schema, actions=("act",))
    for i in range(rng.randint(1, 10)):
        om.add(_random_object(rng, Side.USER, user_specs, f"u{i}"))
    for i in range(rng.randint(1, 10)):
        om.add(_random_object(rng, Side.RESOURCE, res_specs, f"r{i}"))
    return om


# ------------------------------------------------- similarity (1000 pairs)


@pytest.mark.parametrize("seed", GLOBAL_SEEDS)
def test_similarity_bounds_symmetry_weight_scale(seed):
    rng = random.Random(seed)
    for _ in range(1000):
        specs = _random_side_schema(rng, Side.USER)
        a = _random_object(rng, Side.USER, specs, "a")
        b = _random_object(rng, Side.USER, specs, "b")
        weights = {s.name: rng.choice((0.5, 1.0, 2.0, 5.0)) for s in specs}
        config = ClusteringConfig(threshold=0.25, weights=weights)

        s_ab = object_similarity(a, b, config)
        s_ba = object_similarity(b, a, config)
        assert 0.0 <= s_ab <= 1.0
        assert s_ab == s_ba

        # a common factor on every weight cancels out of the weighted mean
        for factor in (0.25, 2.0, 3.0):
            scaled = ClusteringConfig(
                threshold=0.25,
                weights={k: v * factor for k, v in weights.items()},
            )
            assert object_similarity(a, b, scaled) == pytest.approx(s_ab, rel=1e-12)

        # reflexivity holds only without unknown cells: MISSING scores 0.5
        # even against itself, because an unknown value is not known to
        # match anything
        if MISSING not in a.attrs.values():
            assert object_similarity(a, a, config) == pytest.approx(1.0)


# ------------------------------------- clustering partition (500 models)


@pytest.mark.parametrize("seed", GLOBAL_SEEDS)
def test_clustering_partitions_every_model(seed):
    rng = random.Random(seed)
    for _ in range(500):
        om = _random_model(rng)
        threshold = rng.choice((0.0, 0.1, 0.25, 0.5, 0.9, 1.0))
        clustering = cluster_objects(om, ClusteringConfig(threshold=threshold))

        # partition: every object in exactly one group, sides kept apart
        seen = {Side.USER: [], Side.RESOURCE: []}
        for g in clustering.groups:
            assert g.members
            seen[g.side].extend(g.members)
        for side in (Side.USER, Side.RESOURCE):
            table = om.side_objects(side)
            assert sorted(seen[side]) == sorted(table)
            assert len(seen[side]) == len(set(seen[side]))

        # ids sequential from 1, users first; index map agrees
        assert [g.gid for g in clustering.groups] == list(range(1, len(clustering.groups) + 1))
        sides = [g.side for g in clustering.groups]
        assert sides == sorted(sides, key=lambda s: 0 if s is Side.USER else 1)
        for g in clustering.groups:
            table = clustering.users if g.side is Side.USER else clustering.resources
            for m in g.members:
                assert table[m] is g

        # members of one group always share an applicable-attribute signature
        for g in clustering.groups:
            objs = [om.side_objects(g.side)[m] for m in g.members]
            sigs = {frozenset(n for n, v in o.attrs.items() if v is not NULL) for o in objs}
            assert len(sigs) == 1


# --------------------------------- confidence gates (200 ranked lists)


def _gate_setup():
    """A user whose dept is unknown, entitled to one resource: one triple,
    whose ranking the stub cache sets.  A user condition on dept mentions
    the cell; a resource condition fills the ranks around it."""
    s = Schema()
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("dept", AttrKind.SINGLE, Side.USER))
    s.add(AttrSchema("id", AttrKind.SINGLE, Side.RESOURCE))
    s.add(AttrSchema("topic", AttrKind.SINGLE, Side.RESOURCE))
    om = ObjectModel(schema=s, actions=("read",))
    om.add(Obj("u1", Side.USER, {"id": "u1", "dept": MISSING}))
    om.add(Obj("r1", Side.RESOURCE, {"id": "r1", "topic": "t"}))
    clustering = cluster_objects(om)
    key = (clustering.users["u1"].gid, clustering.resources["r1"].gid, "read")
    target = RankedFeature(Feature(Side.USER, AtomicCondition("dept", "in", frozenset({"cs"}))),
                           0.9, False)
    filler = RankedFeature(Feature(Side.RESOURCE, AtomicCondition("topic", "in", frozenset({"t"}))),
                           0.9, False)

    def confidence(rank, length, config):
        """The cell's confidence with the target at rank in a ranking of length."""
        ranking = (filler,) * (rank - 1) + (target,) + (filler,) * (length - rank)
        cache = _FixedCache(om, {Entitlement("u1", "r1", "read")}, {key: ranking})
        return predict_cell(clustering, cache, Side.USER, "u1", "dept", config).confidence

    return confidence


@pytest.mark.parametrize("seed", GLOBAL_SEEDS)
def test_confidence_gates_monotone(seed):
    """predict_cell with one feature that mentions the cell at rank r: its
    confidence is the gate that rank passes, NEI past the medium gate."""
    rng = random.Random(seed)
    confidence = _gate_setup()
    for _ in range(200):
        high = rng.randint(1, 8)
        medium = rng.randint(high, 12)
        config = PredictionConfig(high_rank_limit=high, medium_rank_limit=medium)
        length = rng.randint(medium + 1, 15)
        confs = [confidence(rank, length, config) for rank in range(1, length + 1)]

        # confidence never recovers as the rank worsens
        for earlier, later in zip(confs, confs[1:]):
            assert earlier >= later

        # gate boundaries are exact; past the medium gate nothing is predicted
        assert confs[high - 1] is Confidence.HIGH
        if high < medium:
            assert confs[high] is Confidence.MEDIUM
        assert confs[medium - 1] in (Confidence.HIGH, Confidence.MEDIUM)
        assert confs[medium] is Confidence.NEI

        # widening either gate never lowers any rank's confidence
        wide = PredictionConfig(
            high_rank_limit=rng.randint(high, 12),
            medium_rank_limit=rng.randint(max(medium, 12), 16),
        )
        for rank, conf in enumerate(confs, 1):
            assert confidence(rank, length, wide) >= conf


# ------------------------------------- removal round-trip (200 plans)


def _snapshot(om):
    return {
        side: {oid: dict(obj.attrs) for oid, obj in om.side_objects(side).items()}
        for side in (Side.USER, Side.RESOURCE)
    }


@pytest.mark.parametrize("seed", GLOBAL_SEEDS)
def test_removal_round_trip(seed):
    rng = random.Random(seed)
    for i in range(200):
        if i % 2 == 0:
            om = _random_model(rng)
        else:
            template = rng.choice(("university", "project"))
            om = generate(
                GeneratorConfig(template=template, scale=1, seed=rng.randrange(1 << 16))
            ).model
        fraction = rng.random()
        before = _snapshot(om)
        eligible = eligible_cells(om)

        damaged = om.copy()
        removed = remove_cells(damaged, fraction, random.Random(rng.randrange(1 << 16)))
        assert _snapshot(om) == before
        assert len(removed) == removal_count(len(eligible), fraction)
        cells = [(s, o, a) for s, o, a, _ in removed]
        assert len(set(cells)) == len(cells)
        for side, oid, attr, original in removed:
            assert (side, oid, attr) in eligible
            assert damaged.side_objects(side)[oid].attrs[attr] is MISSING
            assert original is not MISSING and original is not NULL
            assert om.side_objects(side)[oid].attrs[attr] == original

        restore_cells(damaged, removed)
        assert _snapshot(damaged) == before
