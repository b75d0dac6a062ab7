import json
import pathlib

import pytest

from abacfill.policy_io import load_entitlements, load_policy

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def campus_doc():
    with open(DATA / "campus.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def campus_policy():
    return load_policy(str(DATA / "campus.json"))


@pytest.fixture
def campus_entitlements(campus_policy):
    return load_entitlements(str(DATA / "campus_entitlements.csv"), campus_policy.model)


@pytest.fixture
def campus_complete(campus_policy):
    # ground truth for the two unknown cells
    u1 = campus_policy.model.users["csFac1"]
    u1.attrs["department"] = "cs"
    u1.attrs["coursesTaught"] = frozenset({"cs101"})
    return campus_policy
