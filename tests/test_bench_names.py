"""The benchmark's tracer wraps the package at names that a run calls.

`perfbench/spans.py` patches module attributes by name: a wrapped name
that no caller resolves any more records nothing, and its traced metrics
read 0 without an error.  These tests load the tracer by path, read-only,
and check that every name it wraps resolves and that one traced `predict`
records a span for each layer of the pipeline.
"""

import importlib
import importlib.util
import pathlib
import random

import pytest

from abacfill import cli
from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import remove_cells
from abacfill.model import Entitlement, Policy
from abacfill.policy_io import save_entitlements, save_policy

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(spans):
    names = [(m, a) for m, a, *_ in spans.WRAPPED] + [(m, a) for m, a, _ in spans.COUNTED]
    for module, attr in names:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_traced_predict_records_every_layer(spans, tmp_path, capsys):
    policy = generate(GeneratorConfig("university", 4, seed=1))
    # noise, a tenth of the granted entitlements swapped for as many random
    # ones, leaves triples that no exact rule explains, so the fit runs
    rng = random.Random(1)
    granted = sorted(reference_entitlements(policy))
    dropped = set(rng.sample(granted, len(granted) // 10))
    om = policy.model.copy()
    users, resources = sorted(om.users), sorted(om.resources)
    added = {Entitlement(rng.choice(users), rng.choice(resources), rng.choice(om.actions))
             for _ in dropped}
    entitlements = (set(granted) - dropped) | added
    assert remove_cells(om, 0.06, random.Random(1))
    pol, ents = tmp_path / "p.json", tmp_path / "e.csv"
    save_policy(Policy(om, policy.rules), str(pol))
    save_entitlements(entitlements, str(ents))

    tracer = spans.Tracer()
    tracer.open_scope("predict")
    tracer.install()
    try:
        code = cli.main(["predict", "--policy", str(pol), "--entitlements", str(ents)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert capsys.readouterr().out

    recorded = tracer.dump()
    names = {s["name"] for s in recorded}
    for name in ("features.build", "features.rank", "features.fit", "prediction.lookup",
                 "clustering.cluster"):
        assert name in names, name
    assert sum(s["counts"].get("rows", 0) for s in recorded if s["name"] == "features.build") > 0
