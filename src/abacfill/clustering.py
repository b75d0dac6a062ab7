"""Group users and resources whose known attributes look alike.

Objects are first split by signature: the set of attributes that apply to
them (anything not NULL, so unknown cells still count as applicable).
Within a signature bucket, similarity is the weighted mean over applicable
attributes of a per-attribute score: Jaccard overlap of the value sets,
with single values treated as one-element sets, and a flat 0.5 whenever
either cell is unknown.  Buckets are then refined: every member whose mean
similarity to its current group falls below the threshold is moved, and the
movers form one new group together rather than one group each.  Both halves
are refined again until stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import MISSING, NULL, ConfigError, Obj, ObjectModel, Side


@dataclass(frozen=True)
class ClusteringConfig:
    """threshold: move members with mean similarity strictly below this.
    weights: per-attribute weight for the similarity mean; default 1.0."""

    threshold: float = 0.25
    weights: dict = field(default_factory=dict)

    def validate(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"similarity threshold must be in [0, 1]: {self.threshold}")
        for name, w in self.weights.items():
            if not (math.isfinite(w) and w > 0):
                raise ConfigError(f"attribute weight must be finite and positive: {name}={w}")

    def weight(self, attr: str) -> float:
        return self.weights.get(attr, 1.0)


@dataclass(frozen=True)
class Group:
    gid: int
    side: Side
    members: tuple  # object ids in model order

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class Clustering:
    groups: tuple  # all Groups, users first, gids sequential from 1
    by_object: dict  # (Side, object id) -> gid

    def group_of(self, side: Side, oid: str) -> Group:
        return self.groups[self.by_object[(side, oid)] - 1]

    def side_groups(self, side: Side):
        return [g for g in self.groups if g.side is side]


def active_attributes(obj: Obj) -> frozenset:
    """Attributes that apply to the object.  Unknown cells still apply."""
    return frozenset(name for name, v in obj.attrs.items() if v is not NULL)


def value_similarity(a, b) -> float:
    """Overlap score for two applicable cells."""
    if a is MISSING or b is MISSING:
        return 0.5
    sa = frozenset({a}) if isinstance(a, str) else a
    sb = frozenset({b}) if isinstance(b, str) else b
    union = len(sa | sb)
    if union == 0:  # two empty sets agree exactly
        return 1.0
    return len(sa & sb) / union


def object_similarity(o1: Obj, o2: Obj, config: ClusteringConfig) -> float:
    # sorted, so the float sum does not depend on set iteration order
    attrs = sorted(active_attributes(o1) | active_attributes(o2))
    total = 0.0
    score = 0.0
    for name in attrs:
        w = config.weight(name)
        total += w
        v1, v2 = o1.value(name), o2.value(name)
        if v1 is NULL or v2 is NULL:
            continue  # applies to only one of the two: zero overlap
        score += w * value_similarity(v1, v2)
    if total == 0.0:
        return 1.0
    return score / total


def partition_by_signature(objects) -> list:
    """Buckets of objects sharing an active-attribute set, first-seen order."""
    buckets = {}
    for obj in objects:
        buckets.setdefault(active_attributes(obj), []).append(obj)
    return list(buckets.values())


def _mean_similarity(obj: Obj, others, config: ClusteringConfig) -> float:
    if not others:
        return 1.0
    return sum(object_similarity(obj, o, config) for o in others) / len(others)


def refine_group(members: list, config: ClusteringConfig) -> list:
    """Split out poorly matching members, recursively, until stable.

    All members below the threshold leave together as one new group.  A
    split that would move nobody or everybody is a fixed point.
    """
    if len(members) <= 1:
        return [members]
    movers = []
    stay = []
    for obj in members:
        rest = [o for o in members if o is not obj]
        if _mean_similarity(obj, rest, config) < config.threshold:
            movers.append(obj)
        else:
            stay.append(obj)
    if not movers or not stay:
        return [members]
    return refine_group(stay, config) + refine_group(movers, config)


def cluster_objects(om: ObjectModel, config: ClusteringConfig = None) -> Clustering:
    """Cluster both sides of the model.  Group ids run 1..n, users first."""
    config = config or ClusteringConfig()
    config.validate()
    groups = []
    by_object = {}
    for side in (Side.USER, Side.RESOURCE):
        objs = list(om.side_objects(side).values())
        for bucket in partition_by_signature(objs):
            for part in refine_group(bucket, config):
                gid = len(groups) + 1
                groups.append(Group(gid, side, tuple(o.id for o in part)))
                for o in part:
                    by_object[(side, o.id)] = gid
    return Clustering(groups=tuple(groups), by_object=by_object)
