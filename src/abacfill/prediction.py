"""Predict values for unknown cells from learned feature rankings.

For an object with an unknown cell, every entitlement it participates in
names a counterpart; the pair of groups plus the action forms a relevant
triple.  Each triple's ranked features are consulted top-down within the
confidence gates: a feature ranked within the first gate contributes
candidates at high confidence, within the second gate at medium, and
anything past the second gate is ignored.  Only features that mention the
unknown attribute on the object's own side can contribute:

* a condition supplies its own tested value,
* a constraint supplies the linked attribute's values from counterpart
  members actually entitled with the object under the triple's action;
  unknown and inapplicable counterpart cells supply nothing.

Candidates keep the best confidence they reach anywhere.  A single-valued
cell takes the best-supported candidate (ties: better rank, then smaller
value); a multi-valued cell takes all candidates and is only as confident
as its weakest one.  No candidates at all means no prediction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .clustering import Clustering, Group
from .features import (  # noqa: F401 - perfbench traces build_learning_data by this name
    assemble,
    build_learning_data,
    constraint_features,
    labels,
    rank_features,
    side_rows,
    side_summary,
)
from .model import (
    MISSING,
    NULL,
    AttrKind,
    ConfigError,
    EntitlementIndex,
    ObjectModel,
    Side,
)


class Confidence(enum.Enum):
    NEI = 0  # not enough information
    MEDIUM = 1
    HIGH = 2

    def __lt__(self, other):
        if isinstance(other, Confidence):
            return self.value < other.value
        return NotImplemented


@dataclass(frozen=True)
class PredictionConfig:
    high_rank_limit: int = 3
    medium_rank_limit: int = 5

    def __post_init__(self) -> None:
        if not 0 < self.high_rank_limit <= self.medium_rank_limit:
            raise ConfigError(
                "rank gates must satisfy 0 < high <= medium: "
                f"{self.high_rank_limit}, {self.medium_rank_limit}"
            )


@dataclass(frozen=True)
class Evidence:
    """One feature occurrence that contributed candidates for a cell."""

    feature: str  # rendered form
    rank: int
    confidence: Confidence
    values: tuple


@dataclass
class CellPrediction:
    side: Side
    object_id: str
    attr: str
    confidence: Confidence
    value: object = None  # str / frozenset, or None when no prediction
    evidence: tuple = ()

    @property
    def predicted(self) -> bool:
        return self.confidence is not Confidence.NEI


class TripleCache:
    """Memoizes learned rankings per (user group, resource group, action).

    Holds the one entitlement index that learning and lookup share, each
    group's rows and their positions, one side summary per group (its
    conditions with their support, condition matrix and value index per
    attribute, built once however many triples the group takes part in, on
    either side of the join) and the constraint features, which every
    triple shares.  A triple is settled first: when no user row of it holds
    the action on any of its resource rows, which includes a triple with no
    rows, it is None and nothing else of it is built.  That takes one
    disjointness test between the resource rows and the resources that the
    user group's rows reach under the action, a set kept per (user group,
    action).  A group's summary is built when the first triple that has a
    granted pair needs it, so a group that only settled triples touch has
    none.  Rankings use the default `FeatureConfig`.
    """

    def __init__(self, om: ObjectModel, entitlements):
        self.om = om
        self.entitlements = EntitlementIndex.of(entitlements)
        self._constraints = constraint_features(om)
        self._rows = {}
        self._reach = {}
        self._summaries = {}
        self._store = {}

    def _side_rows(self, group: Group):
        key = (group.side, group.gid)
        if key not in self._rows:
            self._rows[key] = side_rows(self.om, group)
        return self._rows[key]

    def _reached(self, gu: Group, action: str) -> set:
        """Resource ids that some row of the user group holds action on."""
        key = (gu.gid, action)
        if key not in self._reach:
            resources = self.entitlements.resources
            self._reach[key] = set().union(
                *(resources(u.id, action) for u in self._side_rows(gu).rows)
            )
        return self._reach[key]

    def _summary(self, group: Group):
        key = (group.side, group.gid)
        if key not in self._summaries:
            self._summaries[key] = side_summary(self.om, group, self._side_rows(group))
        return self._summaries[key]

    def ranked(self, gu: Group, gr: Group, action: str):
        """RankedFeature tuple for the triple, or None when it has no usable
        rows: none at all, or none granted (rank_features would refuse)."""
        key = (gu.gid, gr.gid, action)
        if key not in self._store:
            resources = self._side_rows(gr)
            ranked = None
            if not self._reached(gu, action).isdisjoint(resources.position):
                granted = labels(self._side_rows(gu), resources, action, self.entitlements)
                data = assemble(self._summary(gu), self._summary(gr), self._constraints, granted)
                ranked = rank_features(gu, gr, data)
            self._store[key] = ranked
        return self._store[key]


def relevant_group_triples(
    clustering: Clustering, entitlements: EntitlementIndex, side: Side, oid: str
):
    """Distinct (user group, resource group, action) triples from the
    object's own entitlements, in a stable order."""
    triples = {}
    for e in entitlements.own(side, oid):
        gu = clustering.group_of(Side.USER, e.user)
        gr = clustering.group_of(Side.RESOURCE, e.resource)
        triples[(gu.gid, gr.gid, e.action)] = (gu, gr, e.action)
    return [triples[k] for k in sorted(triples)]


def _gather_constraint_values(om, clustering, entitlements, side, oid, gu, gr, action, constraint):
    """Counterpart values linked to our unknown cell by the constraint.

    Counterparts are the other group's members entitled with our object
    under the triple's action: the object's entitled ids, walked in id
    order, that the clustering puts in that group.  Multi-valued
    counterpart cells contribute every element, single-valued ones their
    value.  Cost: sorting the object's entitled ids under the action,
    whatever the size of the group.
    """
    if side is Side.USER:
        linked = entitlements.resources(oid, action)
        group, groups = gr, clustering.resources
        table, other_attr = om.resources, constraint.res_attr
    else:
        linked = entitlements.users(oid, action)
        group, groups = gu, clustering.users
        table, other_attr = om.users, constraint.user_attr
    values = []
    for cid in sorted(linked):
        if groups.get(cid) is not group:
            continue
        v = table[cid].value(other_attr)
        if v is NULL or v is MISSING:
            continue
        if isinstance(v, frozenset):
            values.extend(v)
        else:
            values.append(v)
    return values


def rank_confidence(rank: int, config: PredictionConfig):
    """Confidence earned by a feature at the given 1-based rank, or None
    when the rank is past the medium gate and contributes nothing."""
    if rank <= config.high_rank_limit:
        return Confidence.HIGH
    if rank <= config.medium_rank_limit:
        return Confidence.MEDIUM
    return None


def predict_cell(
    om: ObjectModel,
    clustering: Clustering,
    cache: TripleCache,
    side: Side,
    oid: str,
    attr: str,
    config: PredictionConfig = None,
) -> CellPrediction:
    """Predict one unknown cell."""
    config = config or PredictionConfig()
    obj = om.side_objects(side)[oid]
    if obj.value(attr) is not MISSING:
        raise ConfigError(f"cell {oid}.{attr} is not unknown")

    triples = []
    for gu, gr, action in relevant_group_triples(clustering, cache.entitlements, side, oid):
        ranked = cache.ranked(gu, gr, action)
        if ranked is not None:
            triples.append((gu, gr, action, ranked))

    # when any ranked constraint ties this attribute to the other side, the
    # cell is relationally determined; group-level conditions on the same
    # attribute are then circumstantial and must not compete anywhere
    relational = any(
        rf.feature.is_constraint and rf.feature.mentions(side, attr)
        for _, _, _, ranked in triples
        for rf in ranked
    )

    best = {}  # candidate value -> (confidence, best rank)
    evidence = []
    for gu, gr, action, ranked in triples:
        for i, rf in enumerate(ranked):
            rank = i + 1
            conf = rank_confidence(rank, config)
            if conf is None:
                break
            if not rf.feature.mentions(side, attr):
                continue
            if relational and not rf.feature.is_constraint:
                continue
            if rf.feature.is_constraint:
                values = _gather_constraint_values(
                    om, clustering, cache.entitlements, side, oid, gu, gr, action,
                    rf.feature.constraint,
                )
            else:
                cond = rf.feature.condition
                values = sorted(cond.val) if cond.op == "in" else [cond.val]
            if not values:
                continue
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
        value = min(best, key=lambda v: (-best[v][0].value, best[v][1], v))
        conf = best[value][0]
        return CellPrediction(side, oid, attr, conf, value, tuple(evidence))
    conf = min((c for c, _ in best.values()), default=Confidence.NEI)
    return CellPrediction(side, oid, attr, conf, frozenset(best), tuple(evidence))


def predict_missing(
    om: ObjectModel,
    clustering: Clustering,
    entitlements,
    prediction_config: PredictionConfig = None,
) -> list:
    """Predict every unknown cell, ordered by side, object id, attribute."""
    cache = TripleCache(om, entitlements)
    out = []
    for side, oid, attr in om.missing_cells():
        out.append(predict_cell(om, clustering, cache, side, oid, attr, prediction_config))
    return out
