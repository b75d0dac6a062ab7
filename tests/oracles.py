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
out the constraints that can hold on no pair.  The walk references are the
slower readers that a predict pass replaced with one pass each: constraint
candidates from a positional value index over each whole side, unknown
cells from a filter over every cell, and a constraint's counterpart values
from a walk over every member of the counterpart group.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import numpy as np

from abacfill import features as features_module
from abacfill.evaluate import Tri, ValueIndex, eval_atomic_condition, eval_atomic_constraint
from abacfill.features import (
    RIDGE,
    Feature,
    FeatureConfig,
    LearningData,
    constraint_features,
    is_untainted,
    side_summary,
)
from abacfill.model import (
    CONSTRAINT_KINDS,
    MISSING,
    NULL,
    AbacError,
    AtomicConstraint,
    Entitlement,
    Side,
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
            Feature.con(AtomicConstraint(ua.name, op_for_kinds[ua.kind, ra.kind], ra.name))
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
        side_summary(om, user_group).conditions
        + side_summary(om, res_group).conditions
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
    """The fit statistics of an explicit design: integer when X and y are.
    Every feature counts as supported."""
    X = np.asarray(X)
    y = np.asarray(y)
    if np.array_equal(X, X.round()) and np.array_equal(y, y.round()):
        X, y = X.astype(np.int64), y.astype(np.int64)
    return LearningData(
        features=tuple(features),
        row_count=X.shape[0],
        positives=y.sum(),
        sums=X.sum(axis=0),
        gram=X.T @ X,
        xty=X.T @ y,
        all_true=(X > 0.5).all(axis=0),
        supported=np.ones(X.shape[1], dtype=bool),
    )


def fit_design(X, y):
    """The package's fit, reached from an explicit design through its statistics."""
    s = design_statistics(X, y)
    return features_module.fit_least_squares(s.row_count, s.sums, s.gram, s.xty, s.positives)


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


def dense_ranking(om, user_group, res_group, dense: DenseLearningData, config=None):
    """The package's ranking fed by the dense path: every-row-true read off
    the matrix, support from the evaluator over every group member and
    coefficients from the floating-point dense fit."""
    config = config or FeatureConfig()

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
        return features_module.rank_features(user_group, res_group, data, config)


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
    return tuple(Feature.con(c) for c in sorted(kept))


def scanned_missing_cells(om) -> list:
    """Every MISSING cell, found by filtering all of `cells()`."""
    return [(side, oid, name) for side, oid, name, v in om.cells() if v is MISSING]


def member_walk_constraint_values(om, entitlements, side, oid, gu, gr, action, constraint):
    """The counterpart values a constraint links to an object's cell, found
    by walking every member of the counterpart group and keeping those
    entitled with the object under the action."""
    if side is Side.USER:
        linked = entitlements.resources(oid, action)
        counterpart_ids = [r for r in gr.members if r in linked]
        table, other_attr = om.resources, constraint.res_attr
    else:
        linked = entitlements.users(oid, action)
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
