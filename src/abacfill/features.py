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
entitlement set.  The features are scored by the triple's smallest exact
rules: conjunctions of at most two features that are true on exactly the
granted rows.  On noise-free data every triple measured has one, and only
where none exists, as in noisy data, does a least-squares fit score the
features instead.  Both need only the design's integer statistics (row
count, column sums, X'y, the positives count, and X'X over the columns
they read), and those are computed without building the pair x feature
design, or any array of users x resources.  A condition column depends on
one side only: its holders, the side's rows that hold its value, give its
sum, scaled by the other side's size, and its X'y, the granted counts of
its holder rows summed.  A constraint column and the labels are lists of
the pairs they hold on, as ascending flat positions u * resources + r: a
constraint's list is `evaluate.matches`, the join of the two sides' value
indexes that also decides which pairs a policy's rules grant.  Its sum is
the list's length and its X'y the size of its intersection with the
labels.  A constraint that holds on no pair of the triple has only zero
statistics.  All of these are Python ints and lists, so a triple that a
1-atom rule ranks, as every triple of the noise-free university inputs
measured is, never loads numpy.

X'X is built on request, over the columns asked for: the rule search asks
for the columns that hold on every granted row, only when no 1-atom rule
exists, and only the fit asks for all of them.  `design_gram` builds it,
and it, with the side matrices it reads, and `fit_least_squares` are the
only code that loads numpy.  A block of one side's conditions is that
side's 0/1 row x condition matrix A'A scaled by the other side's size,
condition x condition blocks across the sides are outer products of
column sums, a condition's product with a constraint is read off the
constraint's per-user or per-resource counts and two constraints' product
is the size of their lists' intersection.
Learning one triple by a rule costs O(features + entitlements + matched
pairs + necessary columns^2).  The statistics are integers, so the rule
search is exact and the fit centers them exactly.

Where positions matter, which object holds which value is read through
one reader, `evaluate.ValueIndex`, built once per (group, attribute) over
the group's rows for its conditions and its constraint joins; the members
with an unknown cell are counted through an index of their own.  The
constraint candidates need no positions, only the keys each attribute of
a side holds, so `constraint_features` reads those off the attribute's
distinct cells and no index over a whole side is built.

A triple's data splits into per-group pieces: one `GroupSide` per group
holds all that depends on that group only, `labels` lists the triple's
granted pairs off a reach map and `build_learning_data` makes the
statistics.  Prediction's `TripleCache` is the one path from a triple to
its data, for `predict` and `abacfill features` alike.

The ranking puts structurally certain features ahead of scored ones:

* characterizing features hold on every row; conditions, which have two
  holders by construction, must also be supported: every member holds the
  value or has that cell unknown, so no member conflicts with it and a
  constant that only reflects blind spots in the data never counts,
* remaining features qualify by coefficient above a small floor,
  `COEFFICIENT_FLOOR`.  The atoms of every smallest exact rule get 1.0 and
  every other feature 0; only the fallback fit gives coefficients between.

A characterizing constraint subsumes characterizing conditions on the two
attributes it relates, since it carries the same information plus the
cross-side link.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .evaluate import ValueIndex, matches
from .model import (
    CONSTRAINT_KINDS,
    MISSING,
    NULL,
    AtomicCondition,
    AtomicConstraint,
    AttrKind,
    InsufficientDataError,
    ObjectModel,
    Record,
    Side,
)


#: ridge on the diagonal of the centered gram in fit_least_squares
RIDGE = 1e-8


class Feature(Record):
    """Either one condition on one side, or one user/resource constraint."""

    __slots__ = ("side", "condition", "constraint")

    def __init__(self, side: Side = None, condition: AtomicCondition = None,
                 constraint: AtomicConstraint = None):
        self.side = side  # Side of the condition; None for constraints
        self.condition = condition
        self.constraint = constraint

    def __hash__(self):
        return hash((self.side, self.condition, self.constraint))

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


def _conditions_for(group_side: "GroupSide") -> tuple:
    """The group's conditions in canonical order, each one's holders as
    positions in its rows, and whether each is supported.

    One condition per value that at least two members hold as a known
    value, a cell's value or an element of its set: its holders among the
    rows are read off the rows' index on the attribute, and the members
    with an unknown cell, which are no rows, are counted through a
    `ValueIndex` of their own, whatever their other cells are.  A value only
    one member holds designates that member rather than describing the
    group, and id never yields conditions for the same reason.

    A condition is supported when every member holds its value or has that
    cell unknown: no member has a conflicting value or an inapplicable
    cell, which would make the condition false on it.
    """
    schema, side, tainted = group_side.om.schema, group_side.group.side, group_side.tainted
    conditions, holders, supported = [], [], []
    for attr in sorted(a.name for a in schema.for_side(side) if a.name != "id"):
        rows, others = group_side.index(attr).rows, ValueIndex(tainted, attr)
        multi = schema.kind(side, attr) is AttrKind.MULTI
        for v in sorted(rows.keys() | others.rows.keys()):
            held = rows.get(v, [])
            count = len(held) + len(others.rows.get(v, ()))
            if count < 2:
                continue
            op, val = ("contains", v) if multi else ("in", frozenset({v}))
            conditions.append(Feature(side, AtomicCondition(attr, op, val)))
            holders.append(held)
            supported.append(count + others.missing == len(group_side.group.members))
    return tuple(conditions), holders, supported


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
    return tuple(Feature(constraint=c) for c in sorted(kept))


def is_untainted(obj) -> bool:
    """Does the object have no unknown cell?"""
    return MISSING not in obj.attrs.values()


class LearningData:
    """Sufficient statistics of one (user group, resource group, action)
    triple.  The design they summarize has one 0/1 row per untainted
    (user, resource) member pair and one column per feature; it is never
    built.  Its columns are in canonical order by construction, which
    ranking reads off their indexes: user conditions, then resource
    conditions, as `_conditions_for` sorts them, then constraints as
    `constraint_features` sorts them.  The statistics are Python ints and
    lists of them, one entry per feature.  The gram is built on request,
    over the columns asked for only, as the one numpy array of a triple."""

    __slots__ = ("features", "row_count", "positives", "sums", "xty", "all_true", "supported",
                 "gram")

    def __init__(self, features: tuple, row_count: int, positives: int, sums: list, xty: list,
                 all_true: list, supported: list, gram: Callable):
        self.features, self.row_count = features, row_count
        self.positives = positives  # rows whose pair holds the action
        self.sums = sums  # int per feature: column sums of the design
        self.xty = xty  # int per feature: design' labels
        self.all_true = all_true  # bool per feature: true on every row
        self.supported = supported  # bool per feature: no member conflicts; true for constraints
        self.gram = gram  # ascending column indexes -> design' design over those columns


class GroupSide:
    """One group's side of every triple it takes part in, built in two steps.

    Construction splits the members once, in member order, into `rows`,
    the untainted members, and `tainted`, the few with an unknown cell,
    whose feature columns could not be evaluated definitely, and keeps each
    row's position: all that settling a triple and `labels` read.
    `summarize` fills in the rest once.  `index(attr)` is the one index per
    attribute, over the rows, that the conditions and the constraint joins
    both read, and `matrix()` the rows' condition matrix that only a gram
    reads.
    """

    conditions = None  # condition features in canonical order, once summarized
    A = None  # bool numpy matrix of the rows' conditions, once matrix() is asked

    def __init__(self, om: ObjectModel, group):
        self.om, self.group = om, group
        table = om.side_objects(group.side)
        self.rows, self.tainted = [], []
        for m in map(table.__getitem__, group.members):
            (self.rows if is_untainted(m) else self.tainted).append(m)
        self.position = {m.id: j for j, m in enumerate(self.rows)}
        self._indexes = {}  # attribute -> ValueIndex over the rows

    def summarize(self) -> "GroupSide":
        """Fill in, on the first call, the conditions with their support,
        each one's holders as ascending positions in the rows, and the
        holders' counts and whether each condition holds on every row, all
        as lists in canonical order; returns the side."""
        if self.conditions is None:
            conditions, self.holders, self.supported = _conditions_for(self)
            self.sums = [len(held) for held in self.holders]
            self.all_true = [n == len(self.rows) for n in self.sums]
            self.conditions = conditions
        return self

    def index(self, attr: str) -> ValueIndex:
        """The rows' value index on attr, built on first use."""
        if attr not in self._indexes:
            self._indexes[attr] = ValueIndex(self.rows, attr)
        return self._indexes[attr]

    def matrix(self):
        """The summarized rows' (rows, conditions) bool matrix A, built from
        the holders on first use.  Only a gram reads it, so only then is
        numpy loaded."""
        if self.A is None:
            import numpy as np

            self.A = np.zeros((len(self.rows), len(self.holders)), dtype=bool)
            self.A[[i for held in self.holders for i in held],
                   [j for j, held in enumerate(self.holders) for _ in held]] = True
        return self.A


def labels(reach: dict, resources: GroupSide) -> list:
    """A list of the ascending flat positions u * len(resources.rows) + r
    of the row pairs that hold the action, read off the user group's reach
    map under it (resource id -> positions of the user rows that hold it
    there)."""
    nr = len(resources.rows)
    granted = [i * nr + r for rid, r in resources.position.items() for i in reach.get(rid, ())]
    granted.sort()
    return granted


def _overlap(a, b) -> int:
    """How many values two ascending numpy arrays of distinct integers
    share."""
    if len(a) > len(b):
        a, b = b, a
    if not len(a):
        return 0
    at = b.searchsorted(a).clip(max=len(b) - 1)
    return int((b[at] == a).sum())


def build_learning_data(users: GroupSide, resources: GroupSide, constraints,
                        granted) -> LearningData:
    """The statistics of one triple from its two group sides, which it
    summarizes if they are not yet, its constraint features and its granted
    pairs, as `labels` lists them.

    Features run in canonical order, user conditions, resource conditions,
    then constraints.  A condition's X'y is the granted count summed over
    its holders, per user row or per resource row.  Each constraint's true
    pairs come from joining the two sides' value indexes, and its X'y is
    their overlap with the granted set; a constraint true on no pair has
    only zero entries.  All of it is Python ints.  The gram is left to
    `design_gram`, over the columns a caller asks for.
    """
    users, resources = users.summarize(), resources.summarize()
    nu, nr = len(users.rows), len(resources.rows)
    pairs = [
        matches(f.constraint, users.index(f.constraint.user_attr),
                resources.index(f.constraint.res_attr))
        for f in constraints
    ]
    per_user, per_resource = [0] * nu, [0] * nr
    for p in granted:
        u, r = divmod(p, nr)
        per_user[u] += 1
        per_resource[r] += 1
    granted_set = set(granted)
    counts = [len(p) for p in pairs]
    return LearningData(
        features=users.conditions + resources.conditions + tuple(constraints),
        row_count=nu * nr,
        positives=len(granted),
        sums=[n * nr for n in users.sums] + [n * nu for n in resources.sums] + counts,
        xty=[sum(map(per_user.__getitem__, held)) for held in users.holders]
        + [sum(map(per_resource.__getitem__, held)) for held in resources.holders]
        + [len(granted_set.intersection(p)) for p in pairs],
        all_true=[t or nu * nr == 0
                  for t in users.all_true + resources.all_true + [n == nu * nr for n in counts]],
        supported=users.supported + resources.supported + [True] * len(pairs),
        gram=partial(design_gram, users, resources, pairs, {}),
    )


def design_gram(users: GroupSide, resources: GroupSide, pairs, arrays: dict, columns):
    """design' design over the given ascending columns of a triple whose
    design `build_learning_data` summarizes from its two summarized sides
    and its constraints' true pairs.  arrays keeps, per constraint
    position, the pairs as a numpy array, made by the triple's first gram
    that reads them.

    The columns fall into the blocks of the canonical order: user
    conditions, resource conditions, constraints.  A condition column
    repeats its side's value across the other side, so a block of one
    side's conditions is that side's A'A scaled by the other side's size,
    a cross-side condition block is the outer product of column sums, and
    a condition's products with a constraint need only the constraint's
    per-user or per-resource counts.  Two constraints' product is the size
    of their lists' intersection.

    One of the places numpy is loaded, so that a triple ranked by a 1-atom
    rule never loads it.
    """
    import numpy as np

    def product(a, b):  # a @ b of 0/1 or count matrices, through BLAS; exact below 2**53
        return (a.astype(float) @ b.astype(float)).astype(np.int64)

    nu, nr = len(users.rows), len(resources.rows)
    du, c0 = len(users.conditions), len(users.conditions) + len(resources.conditions)
    columns = np.asarray(columns, dtype=np.int64)
    Au = users.matrix()[:, columns[columns < du]]
    Ar = resources.matrix()[:, columns[(columns >= du) & (columns < c0)] - du]
    held = []
    for j in (columns[columns >= c0] - c0).tolist():
        if j not in arrays:
            arrays[j] = np.fromiter(pairs[j], dtype=np.int64, count=len(pairs[j]))
        held.append(arrays[j])
    U, R = slice(0, Au.shape[1]), slice(Au.shape[1], Au.shape[1] + Ar.shape[1])
    gram = np.zeros((len(columns), len(columns)), dtype=np.int64)
    np.multiply(product(Au.T, Au), nr, out=gram[U, U])
    np.multiply(product(Ar.T, Ar), nu, out=gram[R, R])
    np.outer(Au.sum(0), Ar.sum(0), out=gram[U, R])
    gram[R, U] = gram[U, R].T
    for a, p in enumerate(held):
        if not len(p):
            continue
        c = R.stop + a
        gram[U, c] = gram[c, U] = Au.T @ np.bincount(p // nr, minlength=nu)
        gram[R, c] = gram[c, R] = Ar.T @ np.bincount(p % nr, minlength=nr)
        gram[c, c] = len(p)
        for b in range(a + 1, len(held)):
            gram[c, R.stop + b] = gram[R.stop + b, c] = _overlap(p, held[b])
    return gram


def fit_least_squares(n, sums, gram, xty, ysum):
    """Least squares with an intercept from the fit's sufficient statistics:
    row count n, column sums, gram = X'X, xty = X'y and ysum = sum of y.
    Returns (intercept, coefficients).

    The data are centered: the centered gram is (n*gram - sums sums')/n,
    and the ridge term RIDGE on its diagonal keeps the solve stable.  Both
    sides are scaled by n, so integer statistics are centered exactly.
    Centering makes constant columns exactly inert: their centered column
    is zero, so they get coefficient zero rather than sharing weight with
    the intercept.  One of the places numpy is loaded.
    """
    import numpy as np

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


class RankedFeature:
    __slots__ = ("feature", "coefficient", "characterizing")

    def __init__(self, feature: Feature, coefficient: float, characterizing: bool):
        self.feature, self.coefficient, self.characterizing = feature, coefficient, characterizing


#: a feature that is not characterizing ranks only with a coefficient
#: above this: a rule atom's 1.0, or a fitted one
COEFFICIENT_FLOOR = 0.05

#: fitted coefficients closer than this to their neighbour in rank tie
TIE_TOLERANCE = 1e-6


def smallest_exact_rules(data: LearningData) -> list:
    """Every smallest conjunction of at most two columns that is true on
    exactly the granted rows, as ascending tuples of column indexes in
    ascending order; empty when none of at most two columns is.

    Read off the integer statistics: the empty rule is exact when every
    row is granted.  A column is necessary when it holds on every granted
    row, `xty[j] == positives`, and then exact alone when it holds on no
    other row, `sums[j] == positives`.  Two necessary columns hold
    together on every granted row, so their conjunction is exact when it
    holds on `positives` rows: their product in the gram, which is built
    over the necessary columns only.
    """
    if data.row_count == data.positives:
        return [()]
    necessary = [j for j, v in enumerate(data.xty) if v == data.positives]
    ones = [(j,) for j in necessary if data.sums[j] == data.positives]
    if ones:
        return ones
    a, b = (data.gram(necessary) == data.positives).nonzero()
    return [(necessary[i], necessary[k]) for i, k in zip(a.tolist(), b.tolist()) if i < k]


def rank_features(user_group, res_group, data: LearningData) -> tuple:
    """Order the candidate features for one group pair and action, most
    informative first: a tuple of RankedFeature, rank is position + 1.

    Characterizing features, those true on every row and supported, come
    first.  The rest is scored by the triple's smallest exact rules, as
    `smallest_exact_rules` finds them: each atom of one gets coefficient
    1.0 and every other feature 0.  Only where no rule of at most two
    atoms exists, as in noisy data, does a least-squares fit over the
    whole gram score them.  Those whose coefficient is above
    COEFFICIENT_FLOOR follow, by descending coefficient, constraints first
    in a tie; otherwise in column order.  Raises InsufficientDataError
    when the pair has no fully known member pairs, or none of them
    granted.
    """
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
    d = len(data.features)
    rules = smallest_exact_rules(data)
    if rules:
        coefs = [0.0] * d
        for rule in rules:
            for j in rule:
                coefs[j] = 1.0
    else:
        _, coefs = fit_least_squares(data.row_count, data.sums, data.gram(range(d)),
                                     data.xty, data.positives)
        coefs = coefs.tolist()  # the same doubles, read without a numpy scalar each

    characterizing = {j for j in range(d) if data.all_true[j] and data.supported[j]}

    # a characterizing constraint carries the cross-side link; one-sided
    # constants on the (side, attribute) pairs it links add nothing next to it
    linked = set()
    for c in (data.features[j].constraint for j in characterizing):
        if c is not None:
            linked.update(((Side.USER, c.user_attr), (Side.RESOURCE, c.res_attr)))
    characterizing = {
        j for j in characterizing
        if data.features[j].is_constraint
        or (data.features[j].side, data.features[j].condition.attr) not in linked
    }

    tier_a = sorted(characterizing)
    rest = [
        j
        for j in range(len(data.features))
        if j not in characterizing and coefs[j] > COEFFICIENT_FLOOR
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
        RankedFeature(data.features[j], coefs[j], j in characterizing)
        for j in tier_a + tier_b
    )
