"""Synthetic policy generators for evaluation.

Two templates, each scaled by a unit count:

* "university": per department, three faculty teach one course each and
  three students take one, with gradebooks, course materials, and
  transcripts as resources.  Six rules tie access to position, taught or
  taken courses, and department membership.
* "project": per project, two leaders, four staff members, and two
  contractors work against budgets and internal or external tasks.  Three
  rules tie access to role, project membership, expertise, and agency.

Every object class has its own set of applicable attributes, every object
holds at least one entitlement, and each granted pair is pinned down by
the deciding attribute values on both sides, so removed cells stay
recoverable in principle.  The seed only shuffles which balanced choice
each object gets.
"""

from __future__ import annotations

import random

from .evaluate import policy_meaning
from .model import (
    AtomicCondition,
    AtomicConstraint,
    AttrKind,
    AttrSchema,
    ConfigError,
    ObjectModel,
    Policy,
    Rule,
    Schema,
    Side,
)

TEMPLATES = ("university", "project")


class GeneratorConfig:
    __slots__ = ("template", "scale", "seed")

    def __init__(self, template: str, scale: int = 1, seed: int = 0):
        self.template, self.scale, self.seed = template, scale, seed
        if self.template not in TEMPLATES:
            raise ConfigError(f"unknown template {self.template!r}; choose from {TEMPLATES}")
        if self.scale < 1:
            raise ConfigError(f"scale must be at least 1: {self.scale}")


def _cond(attr, *values):
    return AtomicCondition(attr, "in", frozenset(values))


def _schema(*specs):
    s = Schema()
    for name, kind, side in specs:
        s.add(AttrSchema(name, kind, side))
    return s


def _university(scale: int, rng: random.Random) -> Policy:
    S, M, U, R = AttrKind.SINGLE, AttrKind.MULTI, Side.USER, Side.RESOURCE
    schema = _schema(
        ("id", S, U),
        ("position", S, U),
        ("department", S, U),
        ("coursesTaught", M, U),
        ("coursesTaken", M, U),
        ("id", S, R),
        ("department", S, R),
        ("course", S, R),
        ("student", S, R),
        ("type", S, R),
    )
    om = ObjectModel(schema=schema, actions=("modify", "read"))

    for d in range(1, scale + 1):
        dept = f"dep{d:02d}"
        tags = ("a", "b", "c")
        courses = [f"crs{d:02d}{t}" for t in tags]

        for tag, course in zip(tags, courses):
            om.new(U, f"fac{d:02d}{tag}", position="faculty", department=dept,
                   coursesTaught=frozenset({course}))
        for tag in tags:
            om.new(U, f"stu{d:02d}{tag}", position="student", department=dept,
                   coursesTaken=frozenset({rng.choice(courses)}))
        # statement order reaches only the generate digests and the rng draws
        for tag, course in zip(tags, courses):
            om.new(R, f"gbk{d:02d}{tag}", department=dept, course=course, type="gradebook")
            om.new(R, f"mat{d:02d}{tag}", course=course, type="materials")
        for tag in tags:
            om.new(R, f"trn{d:02d}{tag}", department=dept, student=f"stu{d:02d}{tag}",
                   type="transcript")

    teaches = AtomicConstraint("coursesTaught", "contains", "course")
    takes = AtomicConstraint("coursesTaken", "contains", "course")
    same_dept = AtomicConstraint("department", "equal", "department")
    own_transcript = AtomicConstraint("id", "equal", "student")
    faculty = (_cond("position", "faculty"),)
    student = (_cond("position", "student"),)

    rules = (
        Rule(faculty, (_cond("type", "gradebook"),), (teaches,), frozenset({"modify"})),
        Rule(faculty, (_cond("type", "materials"),), (teaches,), frozenset({"read"})),
        Rule(faculty, (_cond("type", "transcript"),), (same_dept,), frozenset({"read"})),
        Rule(student, (_cond("type", "transcript"),), (own_transcript,), frozenset({"read"})),
        Rule(student, (_cond("type", "materials"),), (takes,), frozenset({"read"})),
        Rule(student, (_cond("type", "gradebook"),), (same_dept,), frozenset({"read"})),
    )
    return Policy(model=om, rules=rules)


def _project(scale: int, rng: random.Random) -> Policy:
    S, M, U, R = AttrKind.SINGLE, AttrKind.MULTI, Side.USER, Side.RESOURCE
    schema = _schema(
        ("id", S, U),
        ("role", S, U),
        ("projects", M, U),
        ("expertise", S, U),
        ("agency", S, U),
        ("id", S, R),
        ("project", S, R),
        ("type", S, R),
        ("area", S, R),
        ("vendor", S, R),
    )
    om = ObjectModel(schema=schema, actions=("approve", "update"))

    for p in range(1, scale + 1):
        prj = f"prj{p:02d}"
        staff_areas = ["engineering", "engineering", "design", "design"]
        rng.shuffle(staff_areas)
        contractor_areas = [rng.choice(["engineering", "design"]) for _ in range(2)]
        projects = frozenset({prj})

        for tag in ("a", "b"):
            om.new(U, f"led{p:02d}{tag}", role="leader", projects=projects)
        for tag, area in zip(("a", "b", "c", "d"), staff_areas):
            om.new(U, f"emp{p:02d}{tag}", role="employee", projects=projects, expertise=area)
        for tag, area in zip(("a", "b"), contractor_areas):
            om.new(U, f"con{p:02d}{tag}", role="contractor", projects=projects, expertise=area,
                   agency="acme")

        for tag in ("a", "b"):
            om.new(R, f"bud{p:02d}{tag}", project=prj, type="budget")
        for tag, area in zip(("a", "b", "c", "d"), ("engineering", "engineering", "design", "design")):
            om.new(R, f"tsk{p:02d}{tag}", project=prj, type="task", area=area)
        for tag, area in zip(("a", "b"), contractor_areas):
            om.new(R, f"ext{p:02d}{tag}", project=prj, type="extTask", area=area, vendor="acme")

    on_project = AtomicConstraint("projects", "contains", "project")
    area_match = AtomicConstraint("expertise", "equal", "area")
    agency_match = AtomicConstraint("agency", "equal", "vendor")
    leader = (_cond("role", "leader"),)
    employee = (_cond("role", "employee"),)
    contractor = (_cond("role", "contractor"),)

    rules = (
        Rule(leader, (_cond("type", "budget"),), (on_project,), frozenset({"approve"})),
        Rule(employee, (_cond("type", "task"),), (on_project, area_match), frozenset({"update"})),
        Rule(contractor, (_cond("type", "extTask"),), (on_project, area_match, agency_match),
             frozenset({"update"})),
    )
    return Policy(model=om, rules=rules)


def generate(config: GeneratorConfig) -> Policy:
    """Build a complete policy (no unknown cells) for the template."""
    rng = random.Random(config.seed)
    if config.template == "university":
        policy = _university(config.scale, rng)
    else:
        policy = _project(config.scale, rng)
    policy.validate()
    return policy


def reference_entitlements(policy: Policy):
    """The entitlement set of a complete policy."""
    granted, unknown = policy_meaning(policy)
    if unknown:
        raise ConfigError("reference entitlements need a complete model")
    return granted
