"""Learn which atomic conditions and constraints track a group pair's access.

For a pair of groups and one action, the candidate features are:

* conditions over each non-id attribute of either side, one per distinct
  value observed among the group's members (membership test for
  single-valued attributes, element test for multi-valued ones),
* one constraint per kind-compatible (user attribute, resource attribute)
  pair, id included.

Rows are the (user, resource) pairs whose objects have no unknown cells;
the label says whether that pair holds the action in the reference
entitlement set.  A least-squares fit scores the features, and the ranking
puts structurally certain features ahead of fitted ones:

* characterizing features hold on every row; conditions additionally need
  at least two members with a known supporting value and none with a
  conflicting one, so a constant that only reflects blind spots in the
  data never counts,
* remaining features qualify by coefficient above a small floor.

A characterizing constraint subsumes characterizing conditions on the two
attributes it relates, since it carries the same information plus the
cross-side link.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluate import Tri, eval_atomic_condition, eval_atomic_constraint
from .model import (
    CONSTRAINT_KINDS,
    MISSING,
    NULL,
    AbacError,
    AtomicCondition,
    AtomicConstraint,
    ConfigError,
    Entitlement,
    InsufficientDataError,
    ObjectModel,
    Side,
)


@dataclass(frozen=True)
class FeatureConfig:
    ridge: float = 1e-8
    coefficient_floor: float = 0.05

    def validate(self) -> None:
        if self.ridge <= 0:
            raise ConfigError(f"ridge must be positive: {self.ridge}")
        if self.coefficient_floor <= 0:
            raise ConfigError(f"coefficient floor must be positive: {self.coefficient_floor}")


@dataclass(frozen=True)
class Feature:
    """Either one condition on one side, or one user/resource constraint."""

    side: object = None  # Side of the condition; None for constraints
    condition: AtomicCondition = None
    constraint: AtomicConstraint = None

    @classmethod
    def cond(cls, side: Side, condition: AtomicCondition) -> "Feature":
        return cls(side=side, condition=condition)

    @classmethod
    def con(cls, constraint: AtomicConstraint) -> "Feature":
        return cls(constraint=constraint)

    @property
    def is_constraint(self) -> bool:
        return self.constraint is not None

    def mentions(self, side: Side, attr: str) -> bool:
        """Does this feature involve the given attribute of the given side?"""
        if self.constraint is not None:
            if side is Side.USER:
                return self.constraint.user_attr == attr
            return self.constraint.res_attr == attr
        return self.side is side and self.condition.attr == attr

    def evaluate(self, user, res) -> Tri:
        if self.constraint is not None:
            return eval_atomic_constraint(user, res, self.constraint)
        obj = user if self.side is Side.USER else res
        return eval_atomic_condition(obj, self.condition)

    def sort_key(self):
        if self.condition is not None:
            block = 0 if self.side is Side.USER else 1
            val = self.condition.val
            if isinstance(val, frozenset):
                val = ",".join(sorted(val))
            return (block, self.condition.attr, self.condition.op, val)
        c = self.constraint
        return (2, c.user_attr, c.op, c.res_attr)

    def render(self) -> str:
        if self.constraint is not None:
            return self.constraint.render()
        return f"{self.side.value}.{self.condition.render()}"


def _conditions_for(side: Side, members) -> list:
    """One condition per distinct known value among the members.

    Unknown cells contribute nothing; id never yields conditions because a
    unique designator cannot describe a group.
    """
    by_attr = {}
    for obj in members:
        for name, v in obj.attrs.items():
            if name == "id" or v is NULL or v is MISSING:
                continue
            pool = by_attr.setdefault(name, set())
            if isinstance(v, frozenset):
                pool |= v
            else:
                pool.add(v)
    feats = []
    for name in sorted(by_attr):
        sample = next(
            obj.value(name)
            for obj in members
            if obj.value(name) is not NULL and obj.value(name) is not MISSING
        )
        multi = isinstance(sample, frozenset)
        for v in sorted(by_attr[name]):
            if multi:
                feats.append(Feature.cond(side, AtomicCondition(name, "contains", v)))
            else:
                feats.append(Feature.cond(side, AtomicCondition(name, "in", frozenset({v}))))
    return feats


_OP_FOR_KINDS = {kinds: op for op, kinds in CONSTRAINT_KINDS.items()}


def _constraints_for(om: ObjectModel) -> list:
    feats = []
    for ua in om.schema.for_side(Side.USER):
        for ra in om.schema.for_side(Side.RESOURCE):
            op = _OP_FOR_KINDS[(ua.kind, ra.kind)]
            feats.append(Feature.con(AtomicConstraint(ua.name, op, ra.name)))
    return feats


def enumerate_features(om: ObjectModel, user_members, res_members) -> list:
    """Candidate features for one group pair, in canonical order: user
    conditions, resource conditions, then constraints, each sorted."""
    feats = (
        _conditions_for(Side.USER, user_members)
        + _conditions_for(Side.RESOURCE, res_members)
        + _constraints_for(om)
    )
    return sorted(feats, key=Feature.sort_key)


def is_untainted(obj) -> bool:
    return all(v is not MISSING for v in obj.attrs.values())


@dataclass
class LearningData:
    """Design matrix for one (user group, resource group, action) triple."""

    features: tuple
    matrix: np.ndarray  # (rows, features) of 0.0/1.0
    labels: np.ndarray  # (rows,) of 0.0/1.0
    pairs: tuple  # (user id, resource id) per row

    @property
    def row_count(self) -> int:
        return int(self.matrix.shape[0])


def build_learning_data(om, user_group, res_group, action, entitlements) -> LearningData:
    """Rows over untainted member pairs; features enumerated from all members.

    An object with any unknown cell is left out of the rows: its feature
    columns could not be evaluated definitely.  Its known values still feed
    feature enumeration.
    """
    user_members = [om.users[i] for i in user_group.members]
    res_members = [om.resources[i] for i in res_group.members]
    features = enumerate_features(om, user_members, res_members)

    rows = []
    labels = []
    pairs = []
    for u in user_members:
        if not is_untainted(u):
            continue
        for r in res_members:
            if not is_untainted(r):
                continue
            vec = []
            for f in features:
                v = f.evaluate(u, r)
                if v is Tri.UNKNOWN:
                    raise AbacError(f"unknown feature value on untainted pair {u.id}, {r.id}")
                vec.append(1.0 if v is Tri.TRUE else 0.0)
            rows.append(vec)
            labels.append(1.0 if Entitlement(u.id, r.id, action) in entitlements else 0.0)
            pairs.append((u.id, r.id))

    matrix = np.array(rows, dtype=float) if rows else np.zeros((0, len(features)))
    return LearningData(
        features=tuple(features),
        matrix=matrix,
        labels=np.array(labels, dtype=float),
        pairs=tuple(pairs),
    )


def fit_least_squares(X, y, ridge: float = 1e-8):
    """Least squares with an intercept, solved on centered data with a tiny
    ridge term for numerical stability.

    Centering makes constant columns exactly inert: their centered column
    is zero, so they get coefficient zero rather than sharing weight with
    the intercept.  Returns (intercept, coefficients).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    if n == 0:
        raise InsufficientDataError("cannot fit with zero rows")
    if d == 0:
        return float(y.mean()), np.zeros(0)
    xm = X.mean(axis=0)
    ym = y.mean()
    Xc = X - xm
    yc = y - ym
    gram = Xc.T @ Xc + ridge * np.eye(d)
    coefs = np.linalg.solve(gram, Xc.T @ yc)
    intercept = ym - float(coefs @ xm)
    return intercept, coefs


@dataclass(frozen=True)
class RankedFeature:
    feature: Feature
    coefficient: float
    characterizing: bool


def _extent_supports(members, cond: AtomicCondition) -> bool:
    """At least two members have a known value satisfying the condition and
    no member has a known value (or an inapplicable cell) conflicting."""
    supporting = 0
    for m in members:
        v = m.value(cond.attr)
        if v is MISSING:
            continue
        if v is NULL:
            return False
        ok = (v in cond.val) if cond.op == "in" else (cond.val in v)
        if not ok:
            return False
        supporting += 1
    return supporting >= 2


def rank_features(
    om, user_group, res_group, data: LearningData, config: FeatureConfig = None
) -> tuple:
    """Order the candidate features for one group pair and action, most
    informative first: a tuple of RankedFeature, rank is position + 1.

    Characterizing features come first in canonical order, then the rest by
    descending coefficient, floored.  Raises InsufficientDataError when the
    pair has no usable rows.
    """
    config = config or FeatureConfig()
    config.validate()
    if data.row_count == 0:
        raise InsufficientDataError(
            f"no fully known member pairs for groups {user_group.gid} and {res_group.gid}"
        )
    if not any(data.labels):
        # every observable pair is denied: there is no access pattern to
        # learn, only coincidental constants, so refuse rather than guess
        raise InsufficientDataError(
            f"no granted pairs between groups {user_group.gid} and {res_group.gid}"
        )
    _, coefs = fit_least_squares(data.matrix, data.labels, ridge=config.ridge)

    const_true = data.matrix.min(axis=0) > 0.5

    characterizing = set()
    for j, f in enumerate(data.features):
        if not const_true[j]:
            continue
        if f.is_constraint:
            characterizing.add(j)
        else:
            members = [om.users[i] for i in user_group.members] if f.side is Side.USER \
                else [om.resources[i] for i in res_group.members]
            if _extent_supports(members, f.condition):
                characterizing.add(j)

    # a characterizing constraint carries the cross-side link; one-sided
    # constants on the same attributes add nothing next to it
    subsumed = set()
    for j in characterizing:
        f = data.features[j]
        if not f.is_constraint:
            continue
        for k in characterizing:
            g = data.features[k]
            if g.is_constraint:
                continue
            attr = f.constraint.user_attr if g.side is Side.USER else f.constraint.res_attr
            if g.condition.attr == attr:
                subsumed.add(k)
    characterizing -= subsumed

    tier_a = sorted(characterizing, key=lambda j: data.features[j].sort_key())
    rest = [
        j
        for j in range(len(data.features))
        if j not in characterizing and coefs[j] > config.coefficient_floor
    ]
    # collinear columns share one signal evenly, so a cross-side link and
    # the per-value conditions shadowing it tie; the link carries strictly
    # more information and must not be gated out by its own shadows.
    # Coefficients are quantized so solver noise cannot mask such a tie.
    tier_b = sorted(
        rest,
        key=lambda j: (
            -round(float(coefs[j]), 6),
            0 if data.features[j].is_constraint else 1,
            data.features[j].sort_key(),
        ),
    )

    return tuple(
        RankedFeature(data.features[j], float(coefs[j]), j in characterizing)
        for j in tier_a + tier_b
    )
