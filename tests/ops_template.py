"""The ops template: a seeded policy document whose rules use the two
constraint operators that neither `generate` template uses, `in` and
`supseteq`.

Each of `scale` teams has 4 workers, each with 2-4 of the skills s1..s5
and one of the sites site1..site3, 4 tasks that each need 1-2 skills, and
4 buildings that each span 1-2 sites.  A worker may `do` a task whose
needs its skills cover, and `visit` a building that spans its site:

    <role in {worker} | type in {task} | skills supseteq needs | do>
    <role in {worker} | type in {building} | site in sites | visit>

All draws come from one `Random(seed)`, team by team.  The document has
the raw JSON shape that `policy_from_dict` reads and that
`oracles.naive_entitlements` evaluates.
"""

from __future__ import annotations

import random

from abacfill.policy_io import policy_from_dict

SKILLS = ("s1", "s2", "s3", "s4", "s5")
SITES = ("site1", "site2", "site3")
TAGS = ("a", "b", "c", "d")

SCHEMA = [
    {"name": "id", "kind": "single", "appliesTo": "user"},
    {"name": "role", "kind": "single", "appliesTo": "user"},
    {"name": "skills", "kind": "multi", "appliesTo": "user"},
    {"name": "site", "kind": "single", "appliesTo": "user"},
    {"name": "id", "kind": "single", "appliesTo": "resource"},
    {"name": "type", "kind": "single", "appliesTo": "resource"},
    {"name": "needs", "kind": "multi", "appliesTo": "resource"},
    {"name": "sites", "kind": "multi", "appliesTo": "resource"},
]

RULES = [
    {
        "uc": [["role", "in", ["worker"]]],
        "rc": [["type", "in", ["task"]]],
        "c": [["skills", "supseteq", "needs"]],
        "actions": ["do"],
    },
    {
        "uc": [["role", "in", ["worker"]]],
        "rc": [["type", "in", ["building"]]],
        "c": [["site", "in", "sites"]],
        "actions": ["visit"],
    },
]


def ops_document(scale: int, seed: int) -> dict:
    rng = random.Random(seed)

    def some(values, low, high):
        return sorted(rng.sample(values, rng.randint(low, high)))

    users, resources = [], []
    for team in range(1, scale + 1):
        for tag in TAGS:
            attrs = {"role": "worker", "skills": some(SKILLS, 2, 4), "site": rng.choice(SITES)}
            users.append({"id": f"wrk{team:02d}{tag}", "attrs": attrs})
        for tag in TAGS:
            attrs = {"type": "task", "needs": some(SKILLS, 1, 2), "sites": None}
            resources.append({"id": f"tsk{team:02d}{tag}", "attrs": attrs})
        for tag in TAGS:
            attrs = {"type": "building", "needs": None, "sites": some(SITES, 1, 2)}
            resources.append({"id": f"bld{team:02d}{tag}", "attrs": attrs})
    return {
        "schema": SCHEMA,
        "actions": ["do", "visit"],
        "users": users,
        "resources": resources,
        "rules": RULES,
    }


def ops_policy(scale: int, seed: int):
    return policy_from_dict(ops_document(scale, seed))
