"""Predict values for unknown cells from learned feature rankings.

For an object with an unknown cell, every entitlement it participates in
names a counterpart; the pair of groups plus the action forms a relevant
triple.  One walk of the object's adjacency in the entitlement index gives
every relevant triple with its counterparts, the ids the object is entitled
with under the action that fall in the triple's other group.  Each triple's
ranked features are consulted top-down within the confidence gates: a
feature ranked within the first gate contributes candidates at high
confidence, within the second gate at medium, and anything past the second
gate is ignored.  Only features that mention the unknown attribute on the
object's own side can contribute:

* a condition supplies its own tested value,
* a constraint supplies the linked attribute's values, read straight off
  the triple's counterparts; unknown and inapplicable counterpart cells
  supply nothing.

Candidates keep the best confidence they reach anywhere.  A single-valued
cell takes the best-supported candidate (ties: better rank, then smaller
value); a multi-valued cell takes all candidates and is only as confident
as its weakest one.  No candidates at all means no prediction.
"""

from __future__ import annotations

import enum

from .clustering import Clustering, Group
from .features import (
    GroupSide,
    LearningData,
    build_learning_data,
    constraint_features,
    labels,
    rank_features,
)
from .model import (
    MISSING,
    NULL,
    AttrKind,
    ConfigError,
    EntitlementIndex,
    ObjectModel,
    Record,
    Side,
)


class Confidence(enum.IntEnum):
    NEI = 0  # not enough information
    MEDIUM = 1
    HIGH = 2


class PredictionConfig:
    __slots__ = ("high_rank_limit", "medium_rank_limit")

    def __init__(self, high_rank_limit: int = 3, medium_rank_limit: int = 5):
        self.high_rank_limit, self.medium_rank_limit = high_rank_limit, medium_rank_limit
        if not 0 < self.high_rank_limit <= self.medium_rank_limit:
            raise ConfigError(
                "rank gates must satisfy 0 < high <= medium: "
                f"{self.high_rank_limit}, {self.medium_rank_limit}"
            )


class Evidence(Record):
    """One feature occurrence that contributed candidates for a cell."""

    __slots__ = ("feature", "rank", "confidence", "values")

    def __init__(self, feature: str, rank: int, confidence: Confidence, values: tuple):
        self.feature = feature  # rendered form
        self.rank = rank
        self.confidence = confidence
        self.values = values


class CellPrediction(Record):
    __slots__ = ("side", "object_id", "attr", "confidence", "value", "evidence")

    def __init__(self, side: Side, object_id: str, attr: str, confidence: Confidence,
                 value: object = None, evidence: tuple = ()):
        self.side = side
        self.object_id = object_id
        self.attr = attr
        self.confidence = confidence
        self.value = value  # str / frozenset, or None when no prediction
        self.evidence = evidence

    @property
    def predicted(self) -> bool:
        return self.confidence is not Confidence.NEI


class TripleCache:
    """The one path from a (user group, resource group, action) triple to
    its learning data, and its ranking, memoized.

    Holds the entitlement index that learning and lookup share, the
    constraint features, which every triple shares, one `GroupSide` per
    group and one reach map per (user group, action): resource id -> the
    positions of the group's rows that hold the action on it.  `ranked`
    settles a triple first: when no user row of it holds the action on any
    of its resource rows, it is None and nothing else of it is built.  That
    takes one disjointness test of the reach map's keys with the resource
    rows, so a group that only settled triples touch is never summarized;
    `labels` reads the same map.  `predict_cell` reads the model off `om`.
    """

    def __init__(self, om: ObjectModel, entitlements: EntitlementIndex):
        self.om = om
        self.entitlements = entitlements
        self._constraints = constraint_features(om)
        self._sides = {}
        self._reach = {}
        self._store = {}

    def _side(self, group: Group) -> GroupSide:
        key = (group.side, group.gid)
        if key not in self._sides:
            self._sides[key] = GroupSide(self.om, group)
        return self._sides[key]

    def reach(self, gu: Group, action: str) -> dict:
        """Resource id -> positions of the user group's rows that hold
        action on it, in ascending order; built on first use."""
        key = (gu.gid, action)
        if key not in self._reach:
            reach = self._reach[key] = {}
            for i, u in enumerate(self._side(gu).rows):
                for rid in self.entitlements.linked(Side.USER, u.id).get(action, ()):
                    reach.setdefault(rid, []).append(i)
        return self._reach[key]

    def learning_data(self, gu: Group, gr: Group, action: str) -> LearningData:
        """The triple's learning statistics over its untainted member pairs."""
        users, resources = self._side(gu), self._side(gr)
        granted = labels(self.reach(gu, action), resources)
        return build_learning_data(users, resources, self._constraints, granted)

    def ranked(self, gu: Group, gr: Group, action: str):
        """RankedFeature tuple for the triple, or None when it has no usable
        rows: none at all, or none granted (rank_features would refuse)."""
        key = (gu.gid, gr.gid, action)
        if key not in self._store:
            ranked = None
            if not self.reach(gu, action).keys().isdisjoint(self._side(gr).position):
                ranked = rank_features(gu, gr, self.learning_data(gu, gr, action))
            self._store[key] = ranked
        return self._store[key]


def relevant_group_triples(
    clustering: Clustering, entitlements: EntitlementIndex, side: Side, oid: str
):
    """Distinct (user group, resource group, action, counterparts) triples
    from the object's own entitlements, ordered by user gid, resource gid,
    action.

    The object's group is one side of every triple, so the triples are its
    counterparts' groups per action, read off the index's adjacency of the
    object: one group lookup per counterpart.  A triple's counterparts are
    the ids that the object is entitled with under the action and that
    fall in the triple's other group, in ascending order: the walk takes
    each action's ids in that order."""
    own, other = clustering.users, clustering.resources
    if side is Side.RESOURCE:
        own, other = other, own
    found = {}  # (counterpart gid, action) -> (counterpart group, its ids)
    for action, ids in entitlements.linked(side, oid).items():
        for cid in sorted(ids):
            g = other[cid]
            found.setdefault((g.gid, action), (g, []))[1].append(cid)
    group = own[oid]
    return [(group, g, action, ids) if side is Side.USER else (g, group, action, ids)
            for (_, action), (g, ids) in sorted(found.items())]


def counterpart_values(table, attr, ids):
    """The values of attr over the objects `ids` of table: every element of
    a set cell and the value of a single cell; NULL and MISSING cells
    supply nothing."""
    for cid in ids:
        v = table[cid].value(attr)
        if isinstance(v, frozenset):
            yield from v
        elif v is not NULL and v is not MISSING:
            yield v


def predict_cell(
    clustering: Clustering,
    cache: TripleCache,
    side: Side,
    oid: str,
    attr: str,
    config: PredictionConfig = None,
) -> CellPrediction:
    """Predict one unknown cell of the cache's model."""
    config = config or PredictionConfig()
    om = cache.om
    obj = om.side_objects(side)[oid]
    if obj.value(attr) is not MISSING:
        raise ConfigError(f"cell {oid}.{attr} is not unknown")

    triples = []  # (counterparts, ranking) of each usable triple
    for gu, gr, action, ids in relevant_group_triples(clustering, cache.entitlements, side, oid):
        ranked = cache.ranked(gu, gr, action)
        if ranked is not None:
            triples.append((ids, ranked))

    # when any ranked constraint ties this attribute to the other side, the
    # cell is relationally determined; group-level conditions on the same
    # attribute are then circumstantial and must not compete anywhere
    relational = any(
        rf.feature.is_constraint and rf.feature.mentions(side, attr)
        for _, ranked in triples
        for rf in ranked
    )

    table = om.resources if side is Side.USER else om.users
    best = {}  # candidate value -> (confidence, best rank)
    evidence = []
    for ids, ranked in triples:
        for rank, rf in enumerate(ranked[: config.medium_rank_limit], 1):
            if not rf.feature.mentions(side, attr):
                continue
            if relational and not rf.feature.is_constraint:
                continue
            if rf.feature.is_constraint:
                c = rf.feature.constraint
                there = c.res_attr if side is Side.USER else c.user_attr
                values = list(counterpart_values(table, there, ids))
            else:
                cond = rf.feature.condition
                values = sorted(cond.val) if cond.op == "in" else [cond.val]
            if not values:
                continue
            conf = Confidence.HIGH if rank <= config.high_rank_limit else Confidence.MEDIUM
            evidence.append(
                Evidence(rf.feature.render(), rank, conf, tuple(sorted(set(values))))
            )
            for v in values:
                cur = best.get(v)
                if cur is None or (conf, -rank) > (cur[0], -cur[1]):
                    best[v] = (conf, rank)

    if not best:
        return CellPrediction(side, oid, attr, Confidence.NEI, None, tuple(evidence))

    kind = om.schema.kind(side, attr)
    if kind is AttrKind.SINGLE:
        # best confidence, then best rank, then smallest value
        value = min(best, key=lambda v: (-best[v][0], best[v][1], v))
        conf = best[value][0]
        return CellPrediction(side, oid, attr, conf, value, tuple(evidence))
    conf = min((c for c, _ in best.values()), default=Confidence.NEI)
    return CellPrediction(side, oid, attr, conf, frozenset(best), tuple(evidence))


def predict_missing(
    om: ObjectModel,
    clustering: Clustering,
    entitlements: EntitlementIndex,
    prediction_config: PredictionConfig = None,
) -> list:
    """Predict every unknown cell, ordered by side, object id, attribute."""
    cache = TripleCache(om, entitlements)
    return [predict_cell(clustering, cache, side, oid, attr, prediction_config)
            for side, oid, attr in om.missing_cells()]
