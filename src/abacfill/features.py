"""Learn which atomic conditions and constraints track a group pair's access.

For a pair of groups and one action, the candidate features are the
columns that can carry a coefficient:

* conditions over each non-id attribute of either side, one per value that
  at least two of the group's members hold (membership test for
  single-valued attributes, element test for multi-valued ones): a value
  one member holds designates that member rather than describing the group,
* one constraint per kind-compatible (user attribute, resource attribute)
  pair, id included, that can hold on some pair of the model: its two
  attributes share a known value, or it is supseteq and a resource holds
  the empty set that a known user set contains.  Any other constraint's
  column would be zero in every triple, with exact coefficient 0.

Rows are the (user, resource) pairs whose objects have no unknown cells;
the label says whether that pair holds the action in the reference
entitlement set.  A least-squares fit scores the features.  The fit needs
only the design's sufficient statistics (row count, column sums, X'X, X'y
and the positives count), and those are computed without building the pair x
feature design, or any array of users x resources: a condition column
depends on one side only, so its blocks follow from that side's 0/1
member x condition matrix scaled by the other side's size, and condition x
condition blocks across the sides are outer products of column sums.  A
constraint column and the labels are lists of the pairs they hold on, as
ascending flat positions u * resources + r: a constraint's list is
`evaluate.matches`, the join of the two sides' value indexes that also
decides which pairs a policy's rules grant.  Its sum is the list's length,
its products with a condition column are per-user or per-resource counts
of the list, and its products with the labels and with other constraints
are sizes of intersections.  A constraint that holds on no pair of the
triple has only zero statistics.  Learning one triple costs
O(conditions^2 + entitlements + matched pairs).  The statistics are
integers, so the fit centers them exactly.

Where positions matter, which object holds which value is read through
one reader, `evaluate.ValueIndex`: one over a group's members per
attribute gives the group's conditions, their holders and their support,
and one over a group's rows per attribute feeds the constraint joins.  The
constraint candidates need no positions, only the keys each attribute of
a side holds, so `constraint_features` reads those off the attribute's
distinct cells and no index over a whole side is built.

A triple's data splits into per-group pieces: `side_rows` holds a
group's rows and each row's position, `side_summary` adds what else
depends on one group only (its conditions, 0/1 condition matrix with its
gram, sums, all-true and supported columns, and a value index per
attribute over the rows, built on first use), `labels` the triple's
granted pairs, read off the two groups' rows alone, and `assemble` the
statistics from two summaries, the constraint features and the labels.
`build_learning_data` runs them for one triple; prediction's `TripleCache`
builds each group's rows, summary and value indexes once per cache, and
settles a triple with no rows or no granted pair before its labels or
anything else of it, its groups' summaries included, is built.

The ranking puts structurally certain features ahead of fitted ones:

* characterizing features hold on every row; conditions, which have two
  holders by construction, must also be supported: every member holds the
  value or has that cell unknown, so no member conflicts with it and a
  constant that only reflects blind spots in the data never counts,
* remaining features qualify by coefficient above a small floor.

A characterizing constraint subsumes characterizing conditions on the two
attributes it relates, since it carries the same information plus the
cross-side link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evaluate import ValueIndex, matches
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


#: ridge on the diagonal of the centered gram in fit_least_squares
RIDGE = 1e-8


@dataclass(frozen=True)
class FeatureConfig:
    coefficient_floor: float = 0.05

    def __post_init__(self) -> None:
        if not 0 < self.coefficient_floor < math.inf:  # false for nan too
            raise ConfigError(f"coefficient floor must be finite and positive: {self.coefficient_floor}")


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

    def render(self) -> str:
        if self.constraint is not None:
            return self.constraint.render()
        return f"{self.side.value}.{self.condition.render()}"


def _conditions_for(schema, side: Side, members) -> tuple:
    """The group's conditions in canonical order, each one's holders as
    positions in members, and whether each is supported.

    One condition per value that at least two members hold as a known
    value, a cell's value or an element of its set, read off a
    `ValueIndex` over the members per attribute.  A member counts as a
    holder whatever its other cells are, so a member with another unknown
    cell, which the rows leave out, still counts.  A value only one member
    holds designates that member rather than describing the group, and id
    never yields conditions for the same reason.

    A condition is supported when every member holds its value or has that
    cell unknown: no member has a conflicting value or an inapplicable
    cell, which would make the condition false on it.
    """
    conditions, holders, supported = [], [], []
    for attr in sorted(a.name for a in schema.for_side(side) if a.name != "id"):
        index = ValueIndex(members, attr)
        multi = schema.kind(side, attr) is AttrKind.MULTI
        for v in sorted(index.rows):
            held = index.rows[v]
            if len(held) < 2:
                continue
            op, val = ("contains", v) if multi else ("in", frozenset({v}))
            conditions.append(Feature.cond(side, AtomicCondition(attr, op, val)))
            holders.append(held)
            supported.append(len(held) + index.missing == len(members))
    return tuple(conditions), holders, np.array(supported, dtype=bool)


_OP_FOR_KINDS = {kinds: op for op, kinds in CONSTRAINT_KINDS.items()}


def _known_keys(objs, attr: str) -> tuple:
    """What constraint candidates need of one attribute over objs: the keys
    a `ValueIndex` would hold (known values and set elements), whether any
    cell is a known set and whether any is the empty set.  Read off the
    attribute's distinct cells, so each set's elements are walked once
    however many objects hold it."""
    cells = {obj.attrs.get(attr, NULL) for obj in objs}
    cells -= {NULL, MISSING}
    sets = [v for v in cells if isinstance(v, frozenset)]
    keys = {v for v in cells if not isinstance(v, frozenset)}.union(*sets)
    return keys, bool(sets), frozenset() in cells


def constraint_features(om: ObjectModel) -> tuple:
    """One constraint per kind-compatible (user attribute, resource
    attribute) pair that can hold on some pair of the model, in canonical
    order.

    On known cells, equal, in and contains hold only on a pair that shares
    a value, and supseteq only where the user holds every element of the
    resource's set: a shared element, or an empty resource set against any
    known user set.  `_known_keys` gives each attribute's keys, known sets
    and empty sets, one pass over each side per attribute; no positions are
    indexed, since no join is made.  Any other constraint holds on no pair
    of any triple, so its column is all zero, its exact coefficient 0 and
    it is never all-true: it could never rank, and it is left out.
    """
    def known(side):
        objs = list(om.side_objects(side).values())
        return {a.name: _known_keys(objs, a.name) for a in om.schema.for_side(side)}

    users, resources = known(Side.USER), known(Side.RESOURCE)
    kept = []
    for ua in om.schema.for_side(Side.USER):
        for ra in om.schema.for_side(Side.RESOURCE):
            op = _OP_FOR_KINDS[(ua.kind, ra.kind)]
            (ukeys, user_sets, _), (rkeys, _, res_empty) = users[ua.name], resources[ra.name]
            shared = not ukeys.isdisjoint(rkeys)
            empty = op == "supseteq" and user_sets and res_empty
            if shared or empty:
                kept.append(AtomicConstraint(ua.name, op, ra.name))
    return tuple(Feature.con(c) for c in sorted(kept))


def is_untainted(obj) -> bool:
    """Does the object have no unknown cell?"""
    return MISSING not in obj.attrs.values()


@dataclass
class LearningData:
    """Sufficient statistics of one (user group, resource group, action)
    triple's least-squares fit.  The design they summarize has one 0/1 row
    per untainted (user, resource) member pair and one column per feature;
    it is never built.  Its columns are in canonical order by construction,
    which ranking reads off their indexes: user conditions, then resource
    conditions, as `_conditions_for` sorts them, then constraints as
    `constraint_features` sorts them."""

    features: tuple
    row_count: int
    positives: int  # rows whose pair holds the action
    sums: np.ndarray  # (features,) column sums of the design
    gram: np.ndarray  # (features, features) design' design
    xty: np.ndarray  # (features,) design' labels
    all_true: np.ndarray  # (features,) bool: true on every row
    supported: np.ndarray  # (features,) bool: no member conflicts; true for constraints


def _int_product(a, b) -> np.ndarray:
    """a @ b of 0/1 or count matrices, through BLAS; exact below 2**53."""
    return (np.asarray(a, dtype=float) @ np.asarray(b, dtype=float)).astype(np.int64)


@dataclass
class SideRows:
    """A group's untainted members, its side of every triple's rows, and
    each one's position among them: all that `labels` reads of a group."""

    rows: list  # untainted members, in member order
    position: dict  # id -> position of the object in rows


def side_rows(om: ObjectModel, group) -> SideRows:
    """The group's rows and their positions."""
    table = om.side_objects(group.side)
    rows = [m for m in map(table.__getitem__, group.members) if is_untainted(m)]
    return SideRows(rows, {m.id: j for j, m in enumerate(rows)})


@dataclass
class SideSummary(SideRows):
    """What every triple of one group needs from that group's side."""

    conditions: tuple  # condition features, in canonical order
    A: np.ndarray  # (rows, conditions) bool
    gram: np.ndarray  # A'A, int64
    sums: np.ndarray  # column sums of A, int64
    all_true: np.ndarray  # (conditions,) bool: true on every row
    supported: np.ndarray  # (conditions,) bool: every member holds the value or lacks the cell
    indexes: dict = field(default_factory=dict)  # attribute -> ValueIndex over the rows

    def index(self, attr: str) -> ValueIndex:
        """The rows' value index on attr, built on first use."""
        if attr not in self.indexes:
            self.indexes[attr] = ValueIndex(self.rows, attr)
        return self.indexes[attr]


def side_summary(om: ObjectModel, group, rows: SideRows = None) -> SideSummary:
    """The group's side of every triple it takes part in; rows, when given,
    are `side_rows` of the group, which the summary then reuses."""
    table = om.side_objects(group.side)
    members = [table[i] for i in group.members]
    if rows is None:
        rows = side_rows(om, group)
    conditions, holders, supported = _conditions_for(om.schema, group.side, members)
    A = np.zeros((len(members), len(conditions)), dtype=bool)
    for j, held in enumerate(holders):
        A[held, j] = True
    A = A[np.array([m.id in rows.position for m in members], dtype=bool)]
    return SideSummary(
        rows.rows, rows.position, conditions, A, _int_product(A.T, A), A.sum(0), A.all(0),
        supported,
    )


def labels(users: SideRows, resources: SideRows, action, entitlements) -> np.ndarray:
    """Ascending flat positions u * len(resources.rows) + r of the row pairs
    that hold the action, read through the resource rows' positions."""
    index = EntitlementIndex.of(entitlements)
    nr = len(resources.rows)
    column = resources.position
    granted = [
        i * nr + column[rid]
        for i, u in enumerate(users.rows)
        for rid in index.resources(u.id, action)
        if rid in column
    ]
    return np.sort(np.array(granted, dtype=np.int64))


def _overlap(a, b) -> int:
    """How many values two ascending arrays of distinct integers share."""
    if len(a) > len(b):
        a, b = b, a
    if not len(a):
        return 0
    at = np.minimum(np.searchsorted(b, a), len(b) - 1)
    return int(np.count_nonzero(b[at] == a))


def assemble(users: SideSummary, resources: SideSummary, constraints, granted) -> LearningData:
    """The fit statistics of one triple from its two side summaries, its
    constraint features and its granted pairs, as `labels` lists them.

    Features run in canonical order, user conditions, resource conditions,
    then constraints: the blocks of the statistics.  Each constraint's true
    pairs come from joining the two sides' value indexes; a constraint true
    on no pair has only zero entries.
    """
    nu, nr = len(users.rows), len(resources.rows)
    Au, Ar = users.A, resources.A
    su, sr = users.sums, resources.sums
    pairs = [
        matches(f.constraint, users.index(f.constraint.user_attr),
                resources.index(f.constraint.res_attr))
        for f in constraints
    ]
    k = len(pairs)
    held = [j for j, p in enumerate(pairs) if len(p)]

    # the nine blocks are written into one array, in the order of the
    # features: user conditions, resource conditions, constraints
    du, dr = len(su), len(sr)
    c0 = du + dr
    gram = np.zeros((c0 + k, c0 + k), dtype=np.int64)
    U, R = slice(0, du), slice(du, c0)
    np.multiply(users.gram, nr, out=gram[U, U])
    np.multiply(resources.gram, nu, out=gram[R, R])
    np.outer(su, sr, out=gram[U, R])
    gram[R, U] = gram[U, R].T
    # a condition column repeats its side's value across the other side, so
    # its cross terms with a constraint need only the constraint's per-side counts
    for a, i in enumerate(held):
        c = c0 + i
        gram[U, c] = gram[c, U] = Au.T @ np.bincount(pairs[i] // nr, minlength=nu)
        gram[R, c] = gram[c, R] = Ar.T @ np.bincount(pairs[i] % nr, minlength=nr)
        gram[c, c] = len(pairs[i])
        for j in held[a + 1:]:
            gram[c, c0 + j] = gram[c0 + j, c] = _overlap(pairs[i], pairs[j])
    counts = np.array([len(p) for p in pairs], dtype=np.int64)
    sums = np.concatenate([su * nr, sr * nu, counts])
    xty = np.concatenate([
        Au.T @ np.bincount(granted // nr, minlength=nu),
        Ar.T @ np.bincount(granted % nr, minlength=nr),
        np.array([_overlap(p, granted) for p in pairs], dtype=np.int64),
    ])
    all_true = np.concatenate(
        [users.all_true, resources.all_true, counts == nu * nr]
    ) | (nu * nr == 0)
    supported = np.concatenate([users.supported, resources.supported, np.ones(k, dtype=bool)])
    return LearningData(
        features=users.conditions + resources.conditions + tuple(constraints),
        row_count=nu * nr,
        positives=len(granted),
        sums=sums,
        gram=gram,
        xty=xty,
        all_true=all_true,
        supported=supported,
    )


def build_learning_data(om, user_group, res_group, action, entitlements) -> LearningData:
    """Fit statistics over untainted member pairs; features enumerated from
    all members.

    An object with any unknown cell is left out of the rows: its feature
    columns could not be evaluated definitely.  Its known values still feed
    feature enumeration.
    """
    users, resources = side_summary(om, user_group), side_summary(om, res_group)
    granted = labels(users, resources, action, entitlements)
    return assemble(users, resources, constraint_features(om), granted)


def fit_least_squares(n, sums, gram, xty, ysum):
    """Least squares with an intercept from the fit's sufficient statistics:
    row count n, column sums, gram = X'X, xty = X'y and ysum = sum of y.
    Returns (intercept, coefficients).

    The data are centered: the centered gram is (n*gram - sums sums')/n,
    and the ridge term RIDGE on its diagonal keeps the solve stable.  Both
    sides are scaled by n, so integer statistics are centered exactly.
    Centering makes constant columns exactly inert: their centered column
    is zero, so they get coefficient zero rather than sharing weight with
    the intercept.
    """
    if n == 0:
        raise InsufficientDataError("cannot fit with zero rows")
    sums = np.asarray(sums)
    d = len(sums)
    if d == 0:
        return ysum / n, np.zeros(0)
    # the system is centered in place in the statistics' own exact type and
    # made float once, with the ridge added on its diagonal in place, so the
    # fit holds at most two d x d arrays besides the gram
    system = n * np.asarray(gram)
    system -= np.outer(sums, sums)
    system = system.astype(float)
    system.flat[:: d + 1] += n * RIDGE
    centered_xty = n * np.asarray(xty) - sums * ysum
    coefs = np.linalg.solve(system, centered_xty.astype(float))
    intercept = (ysum - float(coefs @ sums)) / n
    return intercept, coefs


@dataclass(frozen=True)
class RankedFeature:
    feature: Feature
    coefficient: float
    characterizing: bool


#: fitted coefficients closer than this to their neighbour in rank tie
TIE_TOLERANCE = 1e-6


def rank_features(user_group, res_group, data: LearningData, config: FeatureConfig = None) -> tuple:
    """Order the candidate features for one group pair and action, most
    informative first: a tuple of RankedFeature, rank is position + 1.

    Characterizing features, those true on every row and supported, come
    first, then the rest by descending coefficient, floored, constraints first
    in a tie; otherwise in column order.  Raises InsufficientDataError when
    the pair has no usable rows.
    """
    config = config or FeatureConfig()
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
    _, coefs = fit_least_squares(data.row_count, data.sums, data.gram, data.xty, data.positives)

    characterizing = set(np.flatnonzero(data.all_true & data.supported).tolist())

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

    tier_a = sorted(characterizing)
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
        return (not data.features[j].is_constraint, j)

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
