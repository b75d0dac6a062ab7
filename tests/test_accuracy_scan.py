"""Accuracy beyond the acceptance grid: seeded scans of many removal draws.

The fill-dense scheme: `generate` with seed S, then cells hidden in a model
copy with `Random(S * 1000 + draw)`, grouped at the CLI's default
threshold, 0.25.  Every prediction made must be correct; a cell without
usable evidence is NEI, never a guess.

`scripts/accuracy_scan.py` runs the larger grids the same way and counts
the wrong answers; here it runs one slice whose wrong answers are known.
"""

import importlib.util
import pathlib

from abacfill.clustering import ClusteringConfig
from abacfill.generator import GeneratorConfig, generate, reference_entitlements
from abacfill.harness import HarnessConfig, evaluate_run
from abacfill.model import EntitlementIndex


def test_fill_dense_scan_makes_no_wrong_prediction():
    """university-20, 6% hidden, seeds 1-20 x 6 draws.  A condition built
    from a value one group member holds once predicted seed 17, draw 5's
    trn07b.student as stu13a (truth stu07b); such a value no longer makes
    a condition, so that cell is NEI."""
    config = HarnessConfig(clustering=ClusteringConfig(threshold=0.25))
    wrong, predicted = [], 0
    for seed in range(1, 21):
        policy = generate(GeneratorConfig(template="university", scale=20, seed=seed))
        entitlements = EntitlementIndex(reference_entitlements(policy))
        for draw in range(6):
            run = evaluate_run(policy, entitlements, 0.06, seed * 1000 + draw, config=config)
            predicted += run.predicted
            wrong += [
                (seed, draw, c.object_id, c.attr, c.truth, c.predicted)
                for c in run.cells
                if c.correct is False
            ]
    assert wrong == []
    # not vacuous: 3983 of the 6000 hidden cells get an answer at this writing
    assert predicted > 3500


SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "accuracy_scan.py"
_spec = importlib.util.spec_from_file_location("accuracy_scan", SCRIPT)
accuracy_scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(accuracy_scan)

#: university-4, generator seed 14, draw 1 (removal seed 14001), 30% hidden,
#: threshold 0.1: the run whose wrong answers tests/test_refutation.py names
SLICE = accuracy_scan.Grid({"university": (4,)}, range(14, 15), range(1, 2),
                           percents=(30,), thresholds=(0.1,))


def test_scan_reports_the_slice_wrong_answers_refuted(monkeypatch, capsys):
    report = accuracy_scan.scan(SLICE)
    assert report.runs == 1
    assert sorted((w.object_id, w.attr) for w in report.wrong) == [
        (oid, "coursesTaken")
        for oid in ("stu01a", "stu01b", "stu02a", "stu02c", "stu03b", "stu04a")
    ]
    assert all(w.refuted for w in report.wrong)
    # every one of the 50 hidden cells gets an answer
    assert report.removed == report.predicted == {("university", 30, 0.1): 50}

    monkeypatch.setitem(accuracy_scan.GRIDS, "slice", SLICE)
    assert accuracy_scan.main(["--grid", "slice", "--ceiling", "slice=5"]) == 1
    out, err = capsys.readouterr()
    assert "  wrong 6 (refuted 6)\n" in out
    assert "    university coursesTaken: 6 (refuted 6)\n" in out
    assert "    university 30% st 0.1: 1.0000 (50 of 50)" in out
    assert "over the ceiling: slice: 6 wrong, ceiling 5" in err
    assert accuracy_scan.main(["--grid", "slice", "--ceiling", "slice=6"]) == 0
