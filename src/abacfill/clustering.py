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

Members of a bucket share their applicable attributes, so refinement never
compares two members: each member's summed similarity to the others is one
sum per attribute, read off the bucket's value counts (and, for sets, an
element index over its distinct sets).  A refinement pass costs
O(members x attributes + set overlaps), where set overlaps counts the pairs
of distinct sets in an attribute that share an element.

The threshold comparison is exact, in integers.  Each attribute's summed
similarities are integers in a unit of their own: halves for strings and
MISSING cells, twice the lcm of the union sizes that occur for sets.  The
id adds only its weight, since no two members share an id.  The weights and
the threshold are read once per `cluster_objects` call as the decimals they
print as, and bring every attribute onto one integer scale, so a member
whose mean equals the threshold stays.  `member_means` reads the same exact
sums, as Fractions, for reports.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .model import MISSING, NULL, ConfigError, Obj, ObjectModel, Schema, Side


@dataclass(frozen=True)
class ClusteringConfig:
    """threshold: move members with mean similarity strictly below this;
    the comparison is exact, so a mean equal to the threshold stays.
    weights: per-attribute weight for the similarity mean; default 1.0.
    Both are read as the decimals they print as: 0.1 is exactly 1/10."""

    threshold: float = 0.25
    weights: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"similarity threshold must be in [0, 1]: {self.threshold}")
        for name, w in self.weights.items():
            if not (math.isfinite(w) and w > 0):
                raise ConfigError(f"attribute weight must be finite and positive: {name}={w}")

    def check_weight_names(self, schema: Schema) -> None:
        """Reject a weight for an attribute that neither side declares."""
        declared = {name for _, name in schema.attrs}
        for name in self.weights:
            if name not in declared:
                raise ConfigError(f"weight for an attribute the schema does not declare: {name}")

    def weight(self, attr: str) -> float:
        return self.weights.get(attr, 1.0)


@dataclass(frozen=True)
class Group:
    gid: int
    side: Side
    members: tuple  # object ids, ascending


@dataclass
class Clustering:
    groups: tuple  # all Groups, users first, gids sequential from 1
    users: dict  # user id -> Group
    resources: dict  # resource id -> Group

    def group_of(self, side: Side, oid: str) -> Group:
        return (self.users if side is Side.USER else self.resources)[oid]

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
    """Buckets of objects sharing an active-attribute set, in input order."""
    buckets = {}
    for obj in objects:
        buckets.setdefault(active_attributes(obj), []).append(obj)
    return list(buckets.values())


def _summed_similarity(values: list) -> tuple:
    """One attribute's similarity of each member to all the others, summed.

    Returns (sums, unit): the member with cell v sums exactly to
    sums[v] / unit, with integer sums.  A MISSING cell scores 1/2 against
    everyone, so the unit is even.  Strings count in halves: a string
    matches the strings equal to it.  A set scores the Jaccard overlap
    against each set it shares an element with, computed once per distinct
    set through an element index; two empty sets score 1.  Sets count in
    units of twice the lcm of the union sizes that occur.
    """
    counts = Counter(values)
    missing = counts.pop(MISSING, 0)
    if all(isinstance(v, str) for v in counts):
        # a single value's sum depends only on how many members share it
        sums = {v: 2 * (c - 1) + missing for v, c in counts.items()}
        sums[MISSING] = len(values) - 1
        return sums, 2
    as_set = {v: frozenset({v}) if isinstance(v, str) else v for v in counts}
    sets = Counter()
    for v, c in counts.items():
        sets[as_set[v]] += c
    holders = {}  # element -> distinct sets holding it
    for d in sets:
        for e in d:
            holders.setdefault(e, []).append(d)
    overlaps = {}  # distinct set x -> {|x | set|: summed intersection sizes}
    for x in sets:
        shared = Counter()  # distinct set -> |x & set|
        for e in x:
            shared.update(holders[e])
        by_union = overlaps[x] = Counter()
        for d, i in shared.items():
            by_union[len(x) + len(d) - i] += sets[d] * i
    half = math.lcm(*{u for by_union in overlaps.values() for u in by_union})
    unit = 2 * half
    set_sums = {}
    for x, by_union in overlaps.items():
        agree = sum(n * (unit // u) for u, n in by_union.items()) if x else sets[x] * unit
        set_sums[x] = agree - unit + missing * half
    sums = {v: set_sums[x] for v, x in as_set.items()}
    sums[MISSING] = (len(values) - 1) * half
    return sums, unit


def _as_written(x) -> Fraction:
    """The number as the decimal it prints as.  The binary float nearest
    0.1 lies above 1/10, so a mean of exactly 1/10 would fall below it."""
    return Fraction(str(float(x)))


class _Weights(dict):
    """A config's attribute weights as written, each read once."""

    def __init__(self, config: ClusteringConfig):
        super().__init__()
        self.config = config

    def __missing__(self, name: str) -> Fraction:
        w = self[name] = _as_written(self.config.weight(name))
        return w


def _summed_similarities(members: list, weights: _Weights) -> tuple:
    """(totals, unit): member i's similarity to the others (the weighted
    mean over attributes), summed over them, is exactly totals[i] / unit,
    with integer totals and unit.  unit is one integer scale for every
    attribute times the signature's total weight."""
    weight_sum = Fraction(0)
    columns = []  # (weight, member cells, sums, unit)
    for name in sorted(active_attributes(members[0])):
        w = weights[name]
        weight_sum += w
        if name == "id":
            continue  # no two members share an id: only its weight counts
        values = [o.attrs[name] for o in members]
        columns.append((w, values, *_summed_similarity(values)))
    scale = math.lcm(weight_sum.denominator, *(w.denominator * u for w, _, _, u in columns))
    totals = [0] * len(members)
    for w, values, sums, unit in columns:
        factor = w.numerator * (scale // (w.denominator * unit))
        scaled = {v: factor * s for v, s in sums.items()}
        totals = [t + scaled[v] for t, v in zip(totals, values)]
    return totals, weight_sum.numerator * (scale // weight_sum.denominator)


def member_means(members: list, config: ClusteringConfig) -> list:
    """Each member's exact mean similarity to the other members, as a
    Fraction: the quantity refinement compares with the threshold.  Needs
    at least two members."""
    totals, unit = _summed_similarities(members, _Weights(config))
    others = unit * (len(members) - 1)
    return [Fraction(t, others) for t in totals]


def _split(members: list, threshold: Fraction, weights: _Weights) -> tuple:
    """(stay, movers): a member moves when its mean similarity to the
    others is below the threshold, decided in exact integer arithmetic."""
    totals, unit = _summed_similarities(members, weights)
    # mean < threshold  <=>  total < threshold * (n - 1) * unit  <=>  total < bar,
    # bar being that product rounded up
    bar = -(-threshold.numerator * (len(members) - 1) * unit // threshold.denominator)
    stay, movers = [], []
    for obj, t in zip(members, totals):
        (movers if t < bar else stay).append(obj)
    return stay, movers


def refine_group(members: list, threshold: Fraction, weights: _Weights) -> list:
    """Split out poorly matching members until stable.

    All members below the threshold leave together as one new group, and
    both halves are refined again, the stayers first.  A split that would
    move nobody or everybody is a fixed point.
    """
    out = []
    work = [members]
    while work:
        group = work.pop()
        stay, movers = _split(group, threshold, weights) if len(group) > 1 else (group, [])
        if not movers or not stay:
            out.append(group)
        else:
            work += [movers, stay]  # stay pops first: its subtree ends before movers
    return out


def cluster_objects(om: ObjectModel, config: ClusteringConfig = None) -> Clustering:
    """Cluster both sides of the model, each walked in id order.  Group ids
    run 1..n, users first."""
    config = config or ClusteringConfig()
    threshold, weights = _as_written(config.threshold), _Weights(config)
    groups = []
    of = {Side.USER: {}, Side.RESOURCE: {}}  # side -> object id -> Group
    for side in (Side.USER, Side.RESOURCE):
        for bucket in partition_by_signature(om.by_id(side)):
            for part in refine_group(bucket, threshold, weights):
                group = Group(len(groups) + 1, side, tuple(o.id for o in part))
                groups.append(group)
                of[side].update((o.id, group) for o in part)
    return Clustering(tuple(groups), of[Side.USER], of[Side.RESOURCE])
