"""Independent reference implementations used to check the package.

The policy and solver oracles work directly on the raw JSON document shape
and plain Python values, sharing no code with the package under test.  The
pairwise clustering reference is the quadratic refinement that per-attribute
counting replaced, with every sum kept as an exact fraction.  The dense
learning reference is the slow path that factorized learning
replaced: it builds the whole pair x feature design matrix with the
package's three-valued evaluator and candidate features, so that it checks
only the factorization and the fit; a condition's support is the
evaluator's verdict on every group member.  The full constraint list is every
kind-compatible attribute pair, the candidates learning had before it left
out the constraints that can hold on no pair.  The refutation oracle
judges an answer by the generating rules alone: it writes the answer into
the intact policy and compares the policy's meaning with the reference
entitlements.  The walk references are the slower readers that a predict
pass replaced with one pass each: constraint candidates from a positional
value index over each whole side, unknown cells from a filter over every
cell, a constraint's counterpart values from a walk over every member of
the counterpart group, and an object's relevant triples, with their
counterparts, from a scan of every entitlement for its own.  The
prediction spec composes the dense learning reference and the walk
references into whole answers, with prediction's gates, relational filter
and tie rule written out.  The reference removal run is the harness as it
was before a run started from its scale's `harness.Baseline`: cells hidden
in a whole model copy, both sides clustered from their own signature walk,
and every unknown cell, with the constraint candidates, found by a walk of
the damaged model.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import numpy as np

from abacfill import features as features_module
from abacfill.clustering import cluster_objects
from abacfill.evaluate import (
    Tri,
    ValueIndex,
    eval_atomic_condition,
    eval_atomic_constraint,
    policy_meaning,
)
from abacfill.features import (
    RIDGE,
    Feature,
    GroupSide,
    LearningData,
    constraint_features,
    is_untainted,
)
from abacfill.model import (
    CONSTRAINT_KINDS,
    MISSING,
    NULL,
    AbacError,
    AtomicConstraint,
    AttrKind,
    Entitlement,
    InsufficientDataError,
    Policy,
    Side,
)
from abacfill.harness import CellOutcome, HarnessConfig, remove_cells, score_prediction
from abacfill.prediction import (
    CellPrediction,
    Confidence,
    Evidence,
    PredictionConfig,
    predict_missing,
)

T, F, U = "T", "F", "U"


def _cell(entry, attr):
    if attr == "id":
        return entry["id"]
    return entry.get("attrs", {}).get(attr, None)


def _is_missing(v):
    return isinstance(v, dict) and v.get("missing") is True


def _atom_cond(entry, cond):
    attr, op, val = cond
    v = _cell(entry, attr)
    if v is None:
        return F
    if _is_missing(v):
        return U
    if op == "in":
        return T if v in val else F
    if op == "contains":
        return T if val in v else F
    raise ValueError(op)


def _atom_con(uentry, rentry, con):
    ua, op, ra = con
    vu = _cell(uentry, ua)
    vr = _cell(rentry, ra)
    if vu is None or vr is None:
        return F
    if _is_missing(vu) or _is_missing(vr):
        return U
    if op == "equal":
        ok = vu == vr
    elif op == "in":
        ok = vu in vr
    elif op == "contains":
        ok = vr in vu
    elif op == "supseteq":
        ok = set(vu) >= set(vr)
    else:
        raise ValueError(op)
    return T if ok else F


def _conj(states):
    if F in states:
        return F
    if U in states:
        return U
    return T


def naive_entitlements(doc):
    """Brute-force rule evaluation over a raw policy document.

    Returns (granted, unknown_pairs): the set of (user, resource, action)
    triples every rule definitely grants, and the number of rule/pair
    evaluations that came out unknown.
    """
    granted = set()
    unknown = 0
    for rule in doc.get("rules", []):
        for uentry in doc["users"]:
            for rentry in doc["resources"]:
                states = [_atom_cond(uentry, c) for c in rule.get("uc", [])]
                states += [_atom_cond(rentry, c) for c in rule.get("rc", [])]
                states += [_atom_con(uentry, rentry, c) for c in rule.get("c", [])]
                verdict = _conj(states)
                if verdict == T:
                    for a in rule["actions"]:
                        granted.add((uentry["id"], rentry["id"], a))
                elif verdict == U:
                    unknown += 1
    return granted, unknown


def pinv_fit(X, y):
    """Least-squares oracle: minimum-norm solution via the pseudoinverse.

    Returns (intercept, coefficients) for the design [1 | X].
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.hstack([np.ones((X.shape[0], 1)), X])
    beta = np.linalg.pinv(design) @ y
    return float(beta[0]), beta[1:]


_VOCAB = ["v0", "v1", "v2", "v3"]


def _random_cell(rng, kind):
    roll = rng.random()
    if roll < 0.12:
        return None
    if roll < 0.24:
        return {"missing": True}
    if kind == "single":
        return rng.choice(_VOCAB)
    return sorted(rng.sample(_VOCAB, rng.randint(0, 3)))


def random_small_policy(rng, max_side=4):
    """Random policy document with at most max_side users and resources.

    Shapes are always schema-consistent; cells may be null or missing.
    """
    schema = [
        {"name": "id", "kind": "single", "appliesTo": "user"},
        {"name": "ua_s", "kind": "single", "appliesTo": "user"},
        {"name": "ua_m", "kind": "multi", "appliesTo": "user"},
        {"name": "id", "kind": "single", "appliesTo": "resource"},
        {"name": "ra_s", "kind": "single", "appliesTo": "resource"},
        {"name": "ra_m", "kind": "multi", "appliesTo": "resource"},
    ]
    actions = ["read", "write"][: rng.randint(1, 2)]

    def make_objects(prefix, names):
        out = []
        for i in range(rng.randint(1, max_side)):
            attrs = {name: _random_cell(rng, kind) for name, kind in names}
            out.append({"id": f"{prefix}{i}", "attrs": attrs})
        return out

    users = make_objects("u", [("ua_s", "single"), ("ua_m", "multi")])
    resources = make_objects("r", [("ra_s", "single"), ("ra_m", "multi")])

    def random_cond(side_attr_single, side_attr_multi):
        if rng.random() < 0.5:
            vals = sorted(rng.sample(_VOCAB, rng.randint(1, 2)))
            return [side_attr_single, "in", vals]
        return [side_attr_multi, "contains", rng.choice(_VOCAB)]

    con_shapes = [
        ["ua_s", "equal", "ra_s"],
        ["ua_s", "in", "ra_m"],
        ["ua_m", "contains", "ra_s"],
        ["ua_m", "supseteq", "ra_m"],
    ]

    rules = []
    for _ in range(rng.randint(0, 3)):
        rules.append(
            {
                "uc": [random_cond("ua_s", "ua_m") for _ in range(rng.randint(0, 2))],
                "rc": [random_cond("ra_s", "ra_m") for _ in range(rng.randint(0, 2))],
                "c": [list(rng.choice(con_shapes)) for _ in range(rng.randint(0, 2))],
                "actions": sorted(rng.sample(actions, rng.randint(1, len(actions)))),
            }
        )

    return {
        "schema": schema,
        "actions": actions,
        "users": users,
        "resources": resources,
        "rules": rules,
    }


def with_cross_side_values(rng, doc) -> dict:
    """The document with some resource ids equal to user ids and some cells
    holding an id of the other side, so that every id constraint holds on
    some pairs; user cells take resource ids and resource cells user ids."""
    names = {key: [e["id"] for e in doc[key]] for key in ("users", "resources")}
    for entry in doc["resources"]:
        if rng.random() < 0.3:
            entry["id"] = "u" + entry["id"][1:]
    for key, other in (("users", "resources"), ("resources", "users")):
        for entry in doc[key]:
            for name, v in entry["attrs"].items():
                if rng.random() >= 0.3:
                    continue
                if isinstance(v, str):
                    entry["attrs"][name] = rng.choice(names[other])
                elif isinstance(v, list):
                    entry["attrs"][name] = sorted(set(v) | {rng.choice(names[other])})
    return doc


def refuted(policy, entitlements, side, oid, attr, value) -> bool:
    """Do the generating rules refute the answer `value` for cell oid.attr?

    The answer is written into a copy of the intact policy's model, and the
    policy's meaning is compared with its reference entitlements; a change
    refutes it.  A set answer is checked element by element: each element
    outside the truth is added to the truth on its own, and any one that
    changes the meaning refutes the answer.  Elements the answer leaves
    out are not checked."""
    truth = policy.model.side_objects(side)[oid].value(attr)
    fills = [truth | {e} for e in sorted(value - truth)] if isinstance(truth, frozenset) else [value]
    reference = set(entitlements)
    for fill in fills:
        om = policy.model.copy()
        om.side_objects(side)[oid].attrs[attr] = fill
        if policy_meaning(Policy(om, policy.rules))[0] != reference:
            return True
    return False


# --- pairwise clustering reference ---


@functools.lru_cache(maxsize=None)
def _as_written(x) -> Fraction:
    """A threshold or weight as the decimal it prints as (0.1 is 1/10)."""
    return Fraction(str(float(x)))


def _exact_value_similarity(a, b) -> Fraction:
    if a is MISSING or b is MISSING:
        return Fraction(1, 2)
    sa = {a} if isinstance(a, str) else set(a)
    sb = {b} if isinstance(b, str) else set(b)
    union = len(sa | sb)
    return Fraction(1) if union == 0 else Fraction(len(sa & sb), union)


def _applicable(obj) -> frozenset:
    return frozenset(name for name, v in obj.attrs.items() if v is not NULL)


def exact_similarity(o1, o2, weights) -> Fraction:
    """Weighted mean per-attribute overlap of two objects, as a fraction."""
    total = score = Fraction(0)
    for name in _applicable(o1) | _applicable(o2):
        w = _as_written(weights.get(name, 1.0))
        total += w
        v1, v2 = o1.attrs.get(name, NULL), o2.attrs.get(name, NULL)
        if v1 is not NULL and v2 is not NULL:
            score += w * _exact_value_similarity(v1, v2)
    return Fraction(1) if total == 0 else score / total


class PairwiseReference:
    """Signature buckets refined by each member's mean exact similarity to
    every other member.  The pairwise similarities are computed once, so
    one model can be grouped at several thresholds."""

    def __init__(self, om, weights=None):
        weights = weights or {}
        self.buckets = []  # (member ids, pairwise similarities), users first
        self.similarity = {}  # Side -> (id, id) -> similarity, within buckets
        for side, table in ((Side.USER, om.users), (Side.RESOURCE, om.resources)):
            by_signature = {}
            for oid in sorted(table):
                by_signature.setdefault(_applicable(table[oid]), []).append(oid)
            self.similarity[side] = {}
            for ids in by_signature.values():
                sim = {
                    (a, b): exact_similarity(table[a], table[b], weights)
                    for a in ids
                    for b in ids
                    if a != b
                }
                self.buckets.append((ids, sim))
                self.similarity[side].update(sim)

    def member_means(self, side, members) -> list:
        """Each member's exact mean similarity to the other members of one
        group, from the pairwise similarities."""
        sim = self.similarity[side]
        return [
            sum((sim[a, b] for b in members if b != a), Fraction(0)) / (len(members) - 1)
            for a in members
        ]

    def groups(self, threshold) -> list:
        """Member id tuples of every group, users first."""
        return [
            tuple(part)
            for ids, sim in self.buckets
            for part in pairwise_refine(ids, _as_written(threshold), sim)
        ]


def pairwise_refine(members, threshold: Fraction, sim) -> list:
    """Members strictly below the threshold in mean similarity to the
    others leave together; both halves are refined again, stayers first,
    until nobody or everybody would leave."""
    if len(members) <= 1:
        return [members]
    stay, movers = [], []
    for a in members:
        mean = sum((sim[a, b] for b in members if b != a), Fraction(0)) / (len(members) - 1)
        (movers if mean < threshold else stay).append(a)
    if not movers or not stay:
        return [members]
    return pairwise_refine(stay, threshold, sim) + pairwise_refine(movers, threshold, sim)


# --- dense learning reference ---


@dataclass
class DenseLearningData:
    """Design matrix for one (user group, resource group, action) triple."""

    features: tuple
    matrix: np.ndarray  # (rows, features) of 0.0/1.0
    labels: np.ndarray  # (rows,) of 0.0/1.0
    pairs: tuple  # (user id, resource id) per row

    @property
    def row_count(self) -> int:
        return int(self.matrix.shape[0])


def canonical_key(feature):
    """A feature's place in the canonical column order: user conditions,
    then resource conditions, each by attribute, operator and value, then
    constraints by user attribute, operator and resource attribute."""
    if feature.condition is not None:
        block = 0 if feature.side is Side.USER else 1
        val = feature.condition.val
        if isinstance(val, frozenset):
            val = ",".join(sorted(val))
        return (block, feature.condition.attr, feature.condition.op, val)
    c = feature.constraint
    return (2, c.user_attr, c.op, c.res_attr)


def all_constraint_features(om) -> tuple:
    """Every kind-compatible (user attribute, resource attribute)
    constraint, in canonical order, whether or not it can hold on any pair:
    the constraint candidates before learning left out those it cannot."""
    op_for_kinds = {kinds: op for op, kinds in CONSTRAINT_KINDS.items()}
    return tuple(sorted(
        (
            Feature(constraint=AtomicConstraint(ua.name, op_for_kinds[ua.kind, ra.kind], ra.name))
            for ua in om.schema.for_side(Side.USER)
            for ra in om.schema.for_side(Side.RESOURCE)
        ),
        key=canonical_key,
    ))


def _evaluate(feature, user, res):
    if feature.constraint is not None:
        return eval_atomic_constraint(user, res, feature.constraint)
    obj = user if feature.side is Side.USER else res
    return eval_atomic_condition(obj, feature.condition)


def extent_supports(members, cond) -> bool:
    """No member has a known value or an inapplicable cell that makes the
    condition false: each holds its value or has that cell unknown."""
    return all(eval_atomic_condition(m, cond) is not Tri.FALSE for m in members)


def dense_learning_data(om, user_group, res_group, action, entitlements) -> DenseLearningData:
    """One row per untainted member pair, one evaluator call per cell, over
    the candidate features the package fits for the triple."""
    user_members = [om.users[i] for i in user_group.members]
    res_members = [om.resources[i] for i in res_group.members]
    features = (
        GroupSide(om, user_group).summarize().conditions
        + GroupSide(om, res_group).summarize().conditions
        + constraint_features(om)
    )
    entitlements = set(entitlements)

    rows, labels, pairs = [], [], []
    for u in user_members:
        if not is_untainted(u):
            continue
        for r in res_members:
            if not is_untainted(r):
                continue
            vec = []
            for f in features:
                v = _evaluate(f, u, r)
                if v is Tri.UNKNOWN:
                    raise AbacError(f"unknown feature value on untainted pair {u.id}, {r.id}")
                vec.append(1.0 if v is Tri.TRUE else 0.0)
            rows.append(vec)
            labels.append(1.0 if Entitlement(u.id, r.id, action) in entitlements else 0.0)
            pairs.append((u.id, r.id))

    matrix = np.array(rows, dtype=float) if rows else np.zeros((0, len(features)))
    return DenseLearningData(tuple(features), matrix, np.array(labels, dtype=float), tuple(pairs))


def design_statistics(X, y, features=()) -> LearningData:
    """The statistics of an explicit design: integer when X and y are.
    Every feature counts as supported.  The gram over any columns is read
    off those columns of X."""
    X = np.asarray(X)
    y = np.asarray(y)
    if np.array_equal(X, X.round()) and np.array_equal(y, y.round()):
        X, y = X.astype(np.int64), y.astype(np.int64)
    return LearningData(
        features=tuple(features),
        row_count=X.shape[0],
        positives=y.sum(),
        sums=X.sum(axis=0),
        xty=X.T @ y,
        all_true=(X > 0.5).all(axis=0),
        supported=np.ones(X.shape[1], dtype=bool),
        gram=lambda columns: X[:, columns].T @ X[:, columns],
    )


def full_gram(data: LearningData) -> np.ndarray:
    """The gram over every column of data."""
    return data.gram(np.arange(len(data.sums)))


def fit_design(X, y):
    """The package's fit, reached from an explicit design through its statistics."""
    s = design_statistics(X, y)
    return features_module.fit_least_squares(s.row_count, s.sums, full_gram(s), s.xty,
                                             s.positives)


def smallest_exact_rules(matrix, labels) -> list:
    """Every smallest set of at most two columns whose AND over the rows is
    the labels, as ascending tuples of column indexes in ascending order:
    every subset of that size is tried.  Empty when no set of at most two
    columns is exact."""
    X = np.asarray(matrix) > 0.5
    y = np.asarray(labels) > 0.5
    for size in range(3):
        rules = [
            subset
            for subset in itertools.combinations(range(X.shape[1]), size)
            if np.array_equal(X[:, list(subset)].all(axis=1), y)
        ]
        if rules:
            return rules
    return []


def dense_fit(X, y):
    """Centered ridge least squares on the explicit design, in floating point."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    xm = X.mean(axis=0)
    ym = y.mean()
    Xc = X - xm
    coefs = np.linalg.solve(Xc.T @ Xc + RIDGE * np.eye(X.shape[1]), Xc.T @ (y - ym))
    return ym - float(coefs @ xm), coefs


def exact_ridge_fit(X, y):
    """Coefficients of the centered ridge fit of an integer design, solved in
    rational arithmetic: the value both floating-point fits approximate."""
    X = np.asarray(X).astype(np.int64)
    y = np.asarray(y).astype(np.int64)
    n, d = X.shape
    sums = X.sum(axis=0)
    gram = n * (X.T @ X) - np.outer(sums, sums)
    rhs = n * (X.T @ y) - sums * int(y.sum())
    shift = n * Fraction(RIDGE)
    rows = [
        [Fraction(int(gram[i, j])) + (shift if i == j else 0) for j in range(d)]
        + [Fraction(int(rhs[i]))]
        for i in range(d)
    ]
    # Gauss-Jordan elimination; the matrix is positive definite, so every
    # pivot is non-zero
    for c in range(d):
        pivot = rows[c]
        for r in range(d):
            factor = rows[r][c] / pivot[c]
            if r != c and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], pivot)]
    return np.array([float(rows[i][d] / rows[i][i]) for i in range(d)])


def dense_ranking(om, user_group, res_group, dense: DenseLearningData):
    """The package's ranking fed by the dense path: every-row-true read off
    the matrix, support from the evaluator over every group member and
    coefficients from the floating-point dense fit."""
    def fit(*_args, **_kwargs):
        return dense_fit(dense.matrix, dense.labels)

    members = {
        Side.USER: [om.users[i] for i in user_group.members],
        Side.RESOURCE: [om.resources[i] for i in res_group.members],
    }
    data = design_statistics(dense.matrix, dense.labels, dense.features)
    data.supported = np.array([
        f.is_constraint or extent_supports(members[f.side], f.condition)
        for f in dense.features
    ], dtype=bool)
    with mock.patch.object(features_module, "fit_least_squares", fit):
        return features_module.rank_features(user_group, res_group, data)


def side_groups(clustering, side) -> list:
    """The clustering's groups of one side, in gid order."""
    return [g for g in clustering.groups if g.side is side]


# --- walk references for a predict pass's readers ---


def value_index_constraint_features(om) -> tuple:
    """The constraint candidates read off a `ValueIndex` over each whole side
    per attribute: kept when the two attributes share a key, or, for
    supseteq, when some user holds a known set and some resource the empty
    set."""
    op_for_kinds = {kinds: op for op, kinds in CONSTRAINT_KINDS.items()}

    def indexes(side):
        objs = list(om.side_objects(side).values())
        return {a.name: ValueIndex(objs, a.name) for a in om.schema.for_side(side)}

    users, resources = indexes(Side.USER), indexes(Side.RESOURCE)
    kept = []
    for ua in om.schema.for_side(Side.USER):
        for ra in om.schema.for_side(Side.RESOURCE):
            op = op_for_kinds[(ua.kind, ra.kind)]
            u, r = users[ua.name], resources[ra.name]
            shared = not u.rows.keys().isdisjoint(r.rows)
            empty = op == "supseteq" and u.size and r.empty
            if shared or empty:
                kept.append(AtomicConstraint(ua.name, op, ra.name))
    return tuple(Feature(constraint=c) for c in sorted(kept))


def scanned_missing_cells(om) -> list:
    """Every MISSING cell, found by filtering all of `cells()`."""
    return [(side, oid, name) for side, oid, name, v in om.cells() if v is MISSING]


def member_walk_constraint_values(om, entitlements, side, oid, gu, gr, action, constraint):
    """The counterpart values a constraint links to an object's cell, found
    by walking every member of the counterpart group and keeping those
    that a scan of every Entitlement finds entitled with the object under
    the action."""
    if side is Side.USER:
        linked = {e.resource for e in entitlements if e.user == oid and e.action == action}
        counterpart_ids = [r for r in gr.members if r in linked]
        table, other_attr = om.resources, constraint.res_attr
    else:
        linked = {e.user for e in entitlements if e.resource == oid and e.action == action}
        counterpart_ids = [u for u in gu.members if u in linked]
        table, other_attr = om.users, constraint.user_attr
    values = []
    for cid in counterpart_ids:
        v = table[cid].value(other_attr)
        if v is NULL or v is MISSING:
            continue
        if isinstance(v, frozenset):
            values.extend(v)
        else:
            values.append(v)
    return values


def scanned_group_triples(clustering, entitlements, side, oid) -> list:
    """Distinct (user group, resource group, action, counterparts) triples
    of the object's own entitlements, found by scanning every Entitlement
    for those that name it on its side and looking up both groups of each;
    a triple's counterparts are the other side's ids of its entitlements,
    ascending."""
    own = [e for e in entitlements if (e.user if side is Side.USER else e.resource) == oid]
    triples = {}
    for e in own:
        gu, gr = clustering.users[e.user], clustering.resources[e.resource]
        counterpart = e.resource if side is Side.USER else e.user
        triples.setdefault((gu.gid, gr.gid, e.action), (gu, gr, e.action, set()))[3].add(counterpart)
    return [(gu, gr, action, sorted(ids)) for gu, gr, action, ids in map(triples.get, sorted(triples))]


# --- an executable spec of prediction ---


def reference_predict(om, clustering, entitlements, config=None) -> list:
    """Every unknown cell's CellPrediction, in the order of `cells()`, built
    from the slow pieces alone: triples and counterparts from
    `scanned_group_triples`, rankings from `dense_learning_data` and
    `dense_ranking`, a constraint's values from
    `member_walk_constraint_values`.

    For one cell, a triple whose ranking is refused (no fully known member
    pair, or none granted) is left out.  The rest are read in their order,
    each ranking from the top, with the rules written out:

    * rank gates: a feature at rank <= high is HIGH, at rank <= medium
      MEDIUM; the first feature past the medium gate ends the triple.
    * a feature supplies values only when it mentions the cell's attribute
      on the object's side: a condition its tested values, a constraint
      the linked attribute's values over the triple's counterparts.
    * relational filter: when any constraint ranked in any of the cell's
      triples, at any rank, mentions the attribute, no condition supplies.
    * a feature that supplies no value leaves no evidence.
    * each value's support is its best (confidence, then smallest rank)
      over everything that supplied it.
    * tie rule: a single-valued cell takes the value of best confidence,
      then smallest rank, then smallest value; a multi-valued cell takes
      every value, at the weakest of their confidences.
    * no value at all is NEI.
    """
    config = config or PredictionConfig()
    entitlements = set(entitlements)
    rankings = {}

    def ranking(gu, gr, action):
        key = (gu.gid, gr.gid, action)
        if key not in rankings:
            dense = dense_learning_data(om, gu, gr, action, entitlements)
            try:
                rankings[key] = dense_ranking(om, gu, gr, dense)
            except InsufficientDataError:
                rankings[key] = None
        return rankings[key]

    out = []
    for side, oid, attr in scanned_missing_cells(om):
        triples = []
        for gu, gr, action, _ in scanned_group_triples(clustering, entitlements, side, oid):
            ranked = ranking(gu, gr, action)
            if ranked is not None:
                triples.append((gu, gr, action, ranked))
        relational = False
        for _, _, _, ranked in triples:
            for rf in ranked:
                if rf.feature.is_constraint and rf.feature.mentions(side, attr):
                    relational = True

        support = {}  # value -> every (confidence, rank) that supplied it
        evidence = []
        for gu, gr, action, ranked in triples:
            for rank, rf in enumerate(ranked, start=1):
                if rank <= config.high_rank_limit:
                    confidence = Confidence.HIGH
                elif rank <= config.medium_rank_limit:
                    confidence = Confidence.MEDIUM
                else:
                    break
                f = rf.feature
                if not f.mentions(side, attr):
                    continue
                if f.is_constraint:
                    values = member_walk_constraint_values(
                        om, entitlements, side, oid, gu, gr, action, f.constraint
                    )
                elif relational:
                    continue
                elif f.condition.op == "in":
                    values = sorted(f.condition.val)
                else:
                    values = [f.condition.val]
                if not values:
                    continue
                evidence.append(Evidence(f.render(), rank, confidence, tuple(sorted(set(values)))))
                for v in values:
                    support.setdefault(v, []).append((confidence, rank))

        if not support:
            out.append(CellPrediction(side, oid, attr, Confidence.NEI, None, tuple(evidence)))
            continue
        best = {v: max(seen, key=lambda cr: (cr[0].value, -cr[1])) for v, seen in support.items()}
        if om.schema.kind(side, attr) is AttrKind.SINGLE:
            value = min(best, key=lambda v: (-best[v][0].value, best[v][1], v))
            confidence = best[value][0]
        else:
            value = frozenset(best)
            confidence = min((c for c, _ in best.values()), key=lambda c: c.value)
        out.append(CellPrediction(side, oid, attr, confidence, value, tuple(evidence)))
    return out


# --- a removal run without a baseline ---


def reference_removal_run(policy, entitlements, fraction, seed, config=None) -> tuple:
    """(damaged model, outcomes) of one removal run made the slow way: the
    cells `remove_cells` draws with `Random(seed)` hidden in a whole copy
    of the policy's model, `cluster_objects(om)` walking both sides for
    their signatures, and `predict_missing(om, ...)` finding every unknown
    cell and the constraint candidates by walks of the damaged model.  The
    outcomes are `CellOutcome`s in the order the cells were drawn."""
    config = config or HarnessConfig()
    om = policy.model.copy()
    removed = remove_cells(om, fraction, random.Random(seed))
    clustering = cluster_objects(om, config.clustering)
    predictions = predict_missing(om, clustering, entitlements, config.prediction)
    by_cell = {(p.side, p.object_id, p.attr): p for p in predictions}
    outcomes = []
    for side, oid, attr, truth in removed:
        p = by_cell[side, oid, attr]
        ok = None
        if p.predicted:
            ok = score_prediction(om.schema.kind(side, attr), p.value, truth, config.subset_ok)
        outcomes.append(CellOutcome(side, oid, attr, truth, p.value, p.confidence, ok))
    return om, outcomes
