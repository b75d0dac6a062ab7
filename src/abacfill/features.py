"""Learn which atomic conditions and constraints track a group pair's access.

For a pair of groups and one action, the candidate features are:

* conditions over each non-id attribute of either side, one per distinct
  value observed among the group's members (membership test for
  single-valued attributes, element test for multi-valued ones),
* one constraint per kind-compatible (user attribute, resource attribute)
  pair, id included.

Rows are the (user, resource) pairs whose objects have no unknown cells;
the label says whether that pair holds the action in the reference
entitlement set.  A least-squares fit scores the features.  The fit needs
only the design's sufficient statistics (row count, column sums, X'X, X'y
and the positives count), and those are computed per side without building
the pair x feature design: a condition column depends on one side only, so
its blocks follow from that side's 0/1 member x condition matrix scaled by
the other side's size, and condition x condition blocks across the sides
are outer products of column sums.  Only constraint columns are evaluated
per pair, as users x resources boolean matrices filled from
`evaluate.matches`, the join that also decides which pairs a policy's rules
grant.  The statistics are integers, so the fit centers them exactly.

A triple's data splits into per-group pieces: `side_summary` holds what
depends on one group only (its conditions, rows, condition matrix with its
gram, sums and all-true columns, and a value index per resource attribute,
built on first use), `labels` the triple's pair labels, and `assemble` the
statistics from two summaries, the constraint features and the labels.
`build_learning_data` runs the three for one triple; prediction's
`TripleCache` builds each group's summary and value indexes once per
cache, and settles a triple with no rows or no granted pair from its
labels, before anything else of it is built.

The ranking puts structurally certain features ahead of fitted ones:

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

from dataclasses import dataclass, field

import numpy as np

from .evaluate import Tri, ValueIndex, eval_atomic_condition, matches
from .model import (
    CONSTRAINT_KINDS,
    MISSING,
    NULL,
    AtomicCondition,
    AtomicConstraint,
    AttrKind,
    ConfigError,
    EntitlementIndex,
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


def _conditions_for(schema, side: Side, members) -> list:
    """One condition per distinct known value among the members.

    Unknown cells contribute nothing; id never yields conditions because a
    unique designator cannot describe a group.
    """
    by_attr = {}
    for obj in members:
        for name, v in obj.attrs.items():
            if name == "id" or v is NULL or v is MISSING:
                continue
            by_attr.setdefault(name, set()).update(_elements(v))
    feats = []
    for name in sorted(by_attr):
        multi = schema.kind(side, name) is AttrKind.MULTI
        for v in sorted(by_attr[name]):
            if multi:
                feats.append(Feature.cond(side, AtomicCondition(name, "contains", v)))
            else:
                feats.append(Feature.cond(side, AtomicCondition(name, "in", frozenset({v}))))
    return feats


_OP_FOR_KINDS = {kinds: op for op, kinds in CONSTRAINT_KINDS.items()}


def constraint_features(om: ObjectModel) -> tuple:
    """One constraint per kind-compatible (user attribute, resource
    attribute) pair, in canonical order."""
    feats = []
    for ua in om.schema.for_side(Side.USER):
        for ra in om.schema.for_side(Side.RESOURCE):
            op = _OP_FOR_KINDS[(ua.kind, ra.kind)]
            feats.append(Feature.con(AtomicConstraint(ua.name, op, ra.name)))
    return tuple(sorted(feats, key=Feature.sort_key))


def enumerate_features(om: ObjectModel, user_members, res_members) -> list:
    """Candidate features for one group pair, in canonical order: user
    conditions, resource conditions, then constraints, each sorted."""
    feats = (
        _conditions_for(om.schema, Side.USER, user_members)
        + _conditions_for(om.schema, Side.RESOURCE, res_members)
        + list(constraint_features(om))
    )
    return sorted(feats, key=Feature.sort_key)


def is_untainted(obj) -> bool:
    return all(v is not MISSING for v in obj.attrs.values())


@dataclass
class LearningData:
    """Sufficient statistics of one (user group, resource group, action)
    triple's least-squares fit.  The design they summarize has one 0/1 row
    per untainted (user, resource) member pair and one column per feature;
    it is never built."""

    features: tuple
    row_count: int
    positives: int  # rows whose pair holds the action
    sums: np.ndarray  # (features,) column sums of the design
    gram: np.ndarray  # (features, features) design' design
    xty: np.ndarray  # (features,) design' labels
    all_true: np.ndarray  # (features,) bool: true on every row


def _elements(v):
    """A cell's values as an iterable: the set itself, or a one-value tuple."""
    return v if isinstance(v, frozenset) else (v,)


def _condition_matrix(objs, conds) -> np.ndarray:
    """0/1 objects x conditions.  Every condition tests one value, the
    element of its 'in' singleton set or its 'contains' element, so a cell
    holding that value matches; NULL cells match nothing."""
    column = {(c.attr, e): j for j, c in enumerate(conds) for e in _elements(c.val)}
    rows, cols = [], []
    for i, obj in enumerate(objs):
        for name, v in obj.attrs.items():
            if v is NULL:
                continue
            for e in _elements(v):
                j = column.get((name, e))
                if j is not None:
                    rows.append(i)
                    cols.append(j)
    A = np.zeros((len(objs), len(conds)), dtype=np.int64)
    A[rows, cols] = 1
    return A


def constraint_matrix(con: AtomicConstraint, users, resources: ValueIndex) -> np.ndarray:
    """users x indexed resources bool truth of the constraint over known
    cells, as `evaluate.matches` finds it.  NULL on either side gives false."""
    M = np.zeros((len(users), resources.count), dtype=bool)
    for u, hits in matches(con, users, resources):
        M[u, hits] = True
    return M


def _int_product(a, b) -> np.ndarray:
    """a @ b of 0/1 or count matrices, through BLAS; exact below 2**53."""
    return (np.asarray(a, dtype=float) @ np.asarray(b, dtype=float)).astype(np.int64)


@dataclass
class SideSummary:
    """What every triple of one group needs from that group's side."""

    conditions: tuple  # condition features, in canonical order
    rows: list  # untainted members
    A: np.ndarray  # (rows, conditions) 0/1
    gram: np.ndarray  # A'A
    sums: np.ndarray  # column sums of A
    all_true: np.ndarray  # (conditions,) bool: true on every row
    indexes: dict = field(default_factory=dict)  # attribute -> ValueIndex over the rows

    def index(self, attr: str) -> ValueIndex:
        """The rows' value index on attr, built on first use."""
        if attr not in self.indexes:
            self.indexes[attr] = ValueIndex(self.rows, attr)
        return self.indexes[attr]


def side_summary(om: ObjectModel, group) -> SideSummary:
    """The group's side of every triple it takes part in."""
    table = om.side_objects(group.side)
    members = [table[i] for i in group.members]
    conditions = sorted(_conditions_for(om.schema, group.side, members), key=Feature.sort_key)
    rows = [m for m in members if is_untainted(m)]
    A = _condition_matrix(rows, [f.condition for f in conditions])
    return SideSummary(tuple(conditions), rows, A, _int_product(A.T, A), A.sum(0), A.all(0))


def labels(users: SideSummary, resources: SideSummary, action, entitlements) -> np.ndarray:
    """0/1 rows x rows matrix: does the (user, resource) pair hold the action?"""
    index = EntitlementIndex.of(entitlements)
    column = {r.id: j for j, r in enumerate(resources.rows)}
    Y = np.zeros((len(users.rows), len(resources.rows)), dtype=np.int64)
    for i, u in enumerate(users.rows):
        for rid in index.resources(u.id, action):
            j = column.get(rid)
            if j is not None:
                Y[i, j] = 1
    return Y


def assemble(users: SideSummary, resources: SideSummary, constraints, Y) -> LearningData:
    """The fit statistics of one triple from its two side summaries, its
    constraint features and its labels Y.

    Features run in canonical order, user conditions, resource conditions,
    then constraints: the blocks of the statistics.  Only the constraint
    columns are evaluated per pair.
    """
    nu, nr = Y.shape
    C = np.zeros((len(constraints), nu, nr), dtype=bool)
    for k, f in enumerate(constraints):
        con = f.constraint
        C[k] = constraint_matrix(con, users.rows, resources.index(con.res_attr))

    # a condition column repeats its side's value across the other side, so
    # its cross terms with a constraint need only the constraint's per-side sums
    Au, Ar = users.A, resources.A
    su, sr = users.sums, resources.sums
    Cflat = C.reshape(len(constraints), nu * nr)
    uc = _int_product(Au.T, C.sum(axis=2).T)
    rc = _int_product(Ar.T, C.sum(axis=1).T)
    ur = np.outer(su, sr)
    gram = np.block(
        [
            [users.gram * nr, ur, uc],
            [ur.T, resources.gram * nu, rc],
            [uc.T, rc.T, _int_product(Cflat, Cflat.T)],
        ]
    )
    sums = np.concatenate([su * nr, sr * nu, Cflat.sum(1)])
    xty = np.concatenate([Au.T @ Y.sum(1), Ar.T @ Y.sum(0), _int_product(Cflat, Y.reshape(-1))])
    all_true = np.concatenate([users.all_true, resources.all_true, Cflat.all(1)]) | (nu * nr == 0)
    return LearningData(
        features=users.conditions + resources.conditions + tuple(constraints),
        row_count=nu * nr,
        positives=int(Y.sum()),
        sums=sums,
        gram=gram,
        xty=xty,
        all_true=all_true,
    )


def build_learning_data(om, user_group, res_group, action, entitlements) -> LearningData:
    """Fit statistics over untainted member pairs; features enumerated from
    all members.

    An object with any unknown cell is left out of the rows: its feature
    columns could not be evaluated definitely.  Its known values still feed
    feature enumeration.
    """
    users, resources = side_summary(om, user_group), side_summary(om, res_group)
    Y = labels(users, resources, action, entitlements)
    return assemble(users, resources, constraint_features(om), Y)


def fit_least_squares(n, sums, gram, xty, ysum, ridge: float = 1e-8):
    """Least squares with an intercept from the fit's sufficient statistics:
    row count n, column sums, gram = X'X, xty = X'y and ysum = sum of y.
    Returns (intercept, coefficients).

    The data are centered: the centered gram is (n*gram - sums sums')/n,
    and a tiny ridge term keeps the solve stable.  Both sides are scaled by
    n, so integer statistics are centered exactly.  Centering makes constant
    columns exactly inert: their centered column is zero, so they get
    coefficient zero rather than sharing weight with the intercept.
    """
    if n == 0:
        raise InsufficientDataError("cannot fit with zero rows")
    sums = np.asarray(sums)
    d = len(sums)
    if d == 0:
        return ysum / n, np.zeros(0)
    centered_gram = n * np.asarray(gram) - np.outer(sums, sums)
    centered_xty = n * np.asarray(xty) - sums * ysum
    coefs = np.linalg.solve(centered_gram + n * ridge * np.eye(d), centered_xty.astype(float))
    intercept = (ysum - float(coefs @ sums)) / n
    return intercept, coefs


@dataclass(frozen=True)
class RankedFeature:
    feature: Feature
    coefficient: float
    characterizing: bool


def _extent_supports(members, cond: AtomicCondition) -> bool:
    """At least two members have a known value satisfying the condition and
    no member has a known value (or an inapplicable cell) conflicting."""
    verdicts = [eval_atomic_condition(m, cond) for m in members]
    return Tri.FALSE not in verdicts and verdicts.count(Tri.TRUE) >= 2


#: fitted coefficients closer than this to their neighbour in rank tie
TIE_TOLERANCE = 1e-6


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
    if data.positives == 0:
        # every observable pair is denied: there is no access pattern to
        # learn, only coincidental constants, so refuse rather than guess
        raise InsufficientDataError(
            f"no granted pairs between groups {user_group.gid} and {res_group.gid}"
        )
    _, coefs = fit_least_squares(
        data.row_count, data.sums, data.gram, data.xty, data.positives, ridge=config.ridge
    )

    characterizing = set()
    for j, f in enumerate(data.features):
        if not data.all_true[j]:
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
    # Coefficients within TIE_TOLERANCE of their neighbour in descending
    # order form one tie, so solver noise, which can reach 1e-8 in
    # ill-conditioned triples, neither splits a tie nor orders inside one.
    def within_tie(j):
        f = data.features[j]
        return (0 if f.is_constraint else 1, f.sort_key())

    tier_b, tie = [], []
    for j in sorted(rest, key=lambda j: -coefs[j]):
        if tie and coefs[tie[-1]] - coefs[j] > TIE_TOLERANCE:
            tier_b += sorted(tie, key=within_tie)
            tie = []
        tie.append(j)
    tier_b += sorted(tie, key=within_tie)

    return tuple(
        RankedFeature(data.features[j], float(coefs[j]), j in characterizing)
        for j in tier_a + tier_b
    )
