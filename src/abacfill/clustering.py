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
sum per attribute, read off a tally of the group's value counts (and, for
sets, an element index over its distinct sets and each one's summed
overlap).  A bucket's first round costs O(members x attributes + set
overlaps), where set overlaps counts the pairs of distinct sets in an
attribute that share an element.  The movers get a fresh tally; the
stayers keep their group's, with the movers' counts and overlaps
subtracted, so a stayers' round costs O(stayers x attributes + the
movers' set overlaps).

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
from fractions import Fraction

from .model import MISSING, NULL, ConfigError, Obj, ObjectModel, Record, Schema, Side


class ClusteringConfig:
    """threshold: move members with mean similarity strictly below this;
    the comparison is exact, so a mean equal to the threshold stays.
    weights: per-attribute weight for the similarity mean; default 1.0.
    Both are read as the decimals they print as: 0.1 is exactly 1/10."""

    __slots__ = ("threshold", "weights")

    def __init__(self, threshold: float = 0.25, weights: dict = None):
        self.threshold, self.weights = threshold, {} if weights is None else weights
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


class Group(Record):
    __slots__ = ("gid", "side", "members")

    def __init__(self, gid: int, side: Side, members: tuple):
        self.gid, self.side = gid, side
        self.members = members  # object ids, ascending


class Clustering:
    __slots__ = ("groups", "users", "resources")

    def __init__(self, groups: tuple, users: dict, resources: dict):
        self.groups = groups  # all Groups, users first, gids sequential from 1
        self.users = users  # user id -> Group
        self.resources = resources  # resource id -> Group


def active_attributes(obj: Obj) -> frozenset:
    """Attributes that apply to the object.  Unknown cells still apply."""
    return frozenset([name for name, v in obj.attrs.items() if v is not NULL])


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
    """Buckets of objects sharing an active-attribute set, in input order;
    each set is `active_attributes` of the object, made inline."""
    buckets = {}
    for obj in objects:
        buckets.setdefault(frozenset({n for n, v in obj.attrs.items() if v is not NULL}),
                           []).append(obj)
    return list(buckets.values())


def _as_written(x) -> Fraction:
    """The number as the decimal it prints as.  The binary float nearest
    0.1 lies above 1/10, so a mean of exactly 1/10 would fall below it."""
    return Fraction(str(float(x)))


class _Column:
    """One attribute's cells in a group under refinement, and what each
    cell's similarity to the others, summed, is read from: the counts of
    the values and of MISSING cells.  A MISSING cell scores 1/2 against
    everyone, and strings count in halves: a string matches the strings
    equal to it.  For sets the column also keeps an element -> distinct
    values index, and agree[x]: the summed Jaccard overlap of the distinct
    set x with every cell, in units of twice the lcm of the union sizes
    that occur.  Taking cells out never adds a union size, so that unit
    stays exact as members leave."""

    def __init__(self, cells: list):
        self.cells = cells
        counts = self.counts = Counter(cells)
        self.missing = counts.pop(MISSING, 0)
        self.unit, self.agree = 2, None
        if all(isinstance(v, str) for v in counts):
            return
        self.as_set = {v: frozenset((v,)) if isinstance(v, str) else v for v in counts}
        self.holders = {}  # element -> distinct values holding it
        for v, s in self.as_set.items():
            for e in s:
                self.holders.setdefault(e, []).append(v)
        overlaps = {v: self._overlaps(v) for v in counts}
        unit = self.unit = 2 * math.lcm(*{u for by in overlaps.values() for _, u in by.values()})
        self.agree = {v: sum(counts[d] * i * unit // u for d, (i, u) in by.items())
                      for v, by in overlaps.items()}

    def _overlaps(self, v) -> dict:
        """d -> (|v & d|, |v | d|) for each distinct value d sharing an
        element with v; two empty sets agree fully, as 1 / 1."""
        size, as_set = len(self.as_set[v]), self.as_set
        if not size:
            return {v: (1, 1)}
        shared = {}
        for e in as_set[v]:
            for d in self.holders[e]:
                shared[d] = shared.get(d, 0) + 1
        return {d: (i, size + len(as_set[d]) - i) for d, i in shared.items()}

    def sums(self, factor: int) -> dict:
        """Cell value -> factor times its summed similarity to the other
        cells, counted in 1/unit."""
        unit = self.unit
        if self.agree is None:
            sums = {v: factor * (2 * (c - 1) + self.missing) for v, c in self.counts.items()}
        else:
            base, agree = self.missing * unit // 2 - unit, self.agree
            sums = {v: factor * (agree[v] + base) for v in self.counts}
        sums[MISSING] = factor * (len(self.cells) - 1) * unit // 2
        return sums

    def drop(self, keep: list, gone: list) -> None:
        """Keep the cells at the positions `keep`; take the cells `gone`
        out of the counts, and each one's overlaps out of agree."""
        self.cells = [self.cells[i] for i in keep]
        out = Counter(gone)
        self.missing -= out.pop(MISSING, 0)
        for v, c in out.items():
            self.counts[v] -= c  # a count may reach 0; no cell reads it then
            if self.agree is not None:
                for d, (i, u) in self._overlaps(v).items():
                    self.agree[d] -= c * i * self.unit // u


class _Tally:
    """A group's columns, one per non-id attribute, each with its factor
    onto one integer scale: member i's similarity to the others (the
    weighted mean over attributes), summed over them, is exactly
    totals()[i] / unit.  The id adds only its weight, since no two members
    share an id."""

    def __init__(self, members: list, weights: dict):
        self.members = members
        names = sorted(active_attributes(members[0]))
        weight_sum = sum((weights[name] for name in names), Fraction(0))
        columns = [(weights[n], _Column([o.attrs[n] for o in members])) for n in names if n != "id"]
        scale = math.lcm(weight_sum.denominator, *(w.denominator * c.unit for w, c in columns))
        self.columns = [(w.numerator * (scale // (w.denominator * c.unit)), c) for w, c in columns]
        self.unit = weight_sum.numerator * (scale // weight_sum.denominator)

    def totals(self) -> list:
        totals = [0] * len(self.members)
        for factor, column in self.columns:
            scaled = column.sums(factor)
            totals = [t + scaled[v] for t, v in zip(totals, column.cells)]
        return totals

    def below(self, threshold: Fraction) -> list:
        """Whether each member's mean similarity to the others is below the
        threshold, decided in exact integer arithmetic."""
        # mean < threshold  <=>  total < threshold * (n - 1) * unit  <=>  total < bar,
        # bar being that product rounded up
        bar = -(-threshold.numerator * (len(self.members) - 1) * self.unit // threshold.denominator)
        return [t < bar for t in self.totals()]

    def drop(self, moved: list) -> None:
        """Take the members where moved is true out of the tally."""
        keep = [i for i, m in enumerate(moved) if not m]
        gone = [i for i, m in enumerate(moved) if m]
        self.members = [self.members[i] for i in keep]
        for _, column in self.columns:
            column.drop(keep, [column.cells[i] for i in gone])


def member_means(members: list, config: ClusteringConfig) -> list:
    """Each member's exact mean similarity to the other members, as a
    Fraction: the quantity refinement compares with the threshold.  Needs
    at least two members."""
    weights = {name: _as_written(config.weight(name)) for name in active_attributes(members[0])}
    tally = _Tally(members, weights)
    others = tally.unit * (len(members) - 1)
    return [Fraction(t, others) for t in tally.totals()]


def refine_group(members: list, threshold: Fraction, weights: dict) -> list:
    """Split out poorly matching members until stable.

    All members below the threshold leave together as one new group, and
    both halves are refined again, the stayers first.  A split that would
    move nobody or everybody is a fixed point.  The movers get a tally of
    their own; the stayers keep the group's, with the movers taken out.
    """
    out = []
    work = [_Tally(members, weights)]
    while work:
        tally = work.pop()
        moved = tally.below(threshold) if len(tally.members) > 1 else [False]
        if all(moved) or not any(moved):
            out.append(tally.members)
            continue
        movers = _Tally([o for o, m in zip(tally.members, moved) if m], weights)
        tally.drop(moved)
        work += [movers, tally]  # stay pops first: its subtree ends before movers
    return out


def cluster_objects(om: ObjectModel, config: ClusteringConfig = None,
                    buckets: dict = None) -> Clustering:
    """Cluster both sides of the model, each walked in id order.  Group ids
    run 1..n, users first.

    buckets, when given, maps each side to its signature buckets as lists
    of object ids, as `partition_by_signature` would make them over the
    side in id order; they are used in place of that walk.  A removal run
    passes its intact model's: hiding a known cell leaves it applicable,
    so no signature changes."""
    config = config or ClusteringConfig()
    threshold = _as_written(config.threshold)
    weights = {name: _as_written(config.weight(name)) for _, name in om.schema.attrs}
    groups = []
    of = {Side.USER: {}, Side.RESOURCE: {}}  # side -> object id -> Group
    for side in (Side.USER, Side.RESOURCE):
        if buckets is None:
            parts = partition_by_signature(om.by_id(side))
        else:
            table = om.side_objects(side)
            parts = [list(map(table.__getitem__, ids)) for ids in buckets[side]]
        for bucket in parts:
            for part in refine_group(bucket, threshold, weights):
                group = Group(len(groups) + 1, side, tuple(o.id for o in part))
                groups.append(group)
                of[side].update((o.id, group) for o in part)
    return Clustering(tuple(groups), of[Side.USER], of[Side.RESOURCE])
