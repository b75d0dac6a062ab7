"""scripts/perf_pairs.py: the environment each perfbench run gets, and the
rule by which a gain holds."""

import importlib.util
import json
import os
import pathlib
import subprocess

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "perf_pairs.py"
_spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

END_TO_END = [
    {"name": "pass_s", "unit": "s", "better": "lower"},
    {"name": "coverage", "unit": "ratio", "better": "higher"},
]


def test_bench_env_writes_bytecode_to_the_given_directory(monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/elsewhere")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    env = perf_pairs.bench_env(str(tmp_path))
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path)
    assert env["OPENBLAS_NUM_THREADS"] == "1"
    assert os.environ["PYTHONDONTWRITEBYTECODE"] == "1"


def test_each_run_gets_a_new_empty_bytecode_directory(monkeypatch, tmp_path):
    tree, scratch = tmp_path / "tree", tmp_path / "scratch"
    (tree / "perfbench" / "results").mkdir(parents=True)
    scratch.mkdir()
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        pycache = env["PYTHONPYCACHEPREFIX"]
        seen.append((pycache, os.listdir(pycache), "PYTHONDONTWRITEBYTECODE" in env))
        seed = cmd[cmd.index("--seed") + 1]
        results = tree / "perfbench" / "results" / f"fill-dense-seed{seed}-trace0.json"
        results.write_text(json.dumps({"digests": ["d" + seed]}))
        out = json.dumps({"metrics": {"pass_s": {"value": 0.01}}, "correct": True})
        return subprocess.CompletedProcess(cmd, 0, stdout="log\n" + out + "\n", stderr="")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(perf_pairs.subprocess, "run", fake_run)
    args = perf_pairs.parse_args(["HEAD", "--workload", "fill-dense", "--pairs", "2"])
    runs = [perf_pairs.run_bench(str(tree), args, seed, str(scratch)) for seed in (7, 8)]
    assert runs[0] == {"metrics": {"pass_s": 0.01}, "correct": True, "digests": ["d7"]}
    assert runs[1]["digests"] == ["d8"]
    assert [listed for _, listed, _ in seen] == [[], []]
    assert not any(unset for _, _, unset in seen)
    first, second = (pathlib.Path(pycache) for pycache, _, _ in seen)
    assert first != second and first.parent == second.parent == scratch
    assert not first.exists() and not second.exists()


def _pairs(parent_pass, change_pass):
    return [
        {"parent": {"metrics": {"pass_s": p, "coverage": 1.0}},
         "change": {"metrics": {"pass_s": c, "coverage": 1.0}}}
        for p, c in zip(parent_pass, change_pass)
    ]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread():
    parent = [10.0, 10.2, 10.4, 10.1, 10.3, 10.0, 10.2, 10.4, 10.1, 10.3]
    faster = [p - 1.0 for p in parent]
    summary = perf_pairs.summarize(_pairs(parent, faster), END_TO_END)
    assert summary["pass_s"]["wins"] == 10 and summary["pass_s"]["gain_holds"]
    # equal coverage in every pair: no wins, no losses, no gain
    coverage = summary["coverage"]
    assert (coverage["wins"], coverage["losses"], coverage["gain_holds"]) == (0, 0, False)

    # nine wins of ten still hold; eight do not
    nine = faster[:9] + [parent[9] + 1.0]
    assert perf_pairs.summarize(_pairs(parent, nine), END_TO_END)["pass_s"]["gain_holds"]
    eight = faster[:8] + [parent[8] + 1.0, parent[9] + 1.0]
    eight_won = perf_pairs.summarize(_pairs(parent, eight), END_TO_END)["pass_s"]
    assert (eight_won["wins"], eight_won["losses"]) == (8, 2)
    assert not eight_won["gain_holds"]

    # every pair won, but the medians lie closer than the parent's quartiles
    slightly = [p - 0.05 for p in parent]
    close = perf_pairs.summarize(_pairs(parent, slightly), END_TO_END)["pass_s"]
    assert close["wins"] == 10 and not close["gain_holds"]


def test_a_higher_is_better_metric_gains_upward():
    def coverage(parent, change):
        pairs = _pairs([10.0] * 10, [10.0] * 10)
        for pair in pairs:
            pair["parent"]["metrics"]["coverage"] = parent
            pair["change"]["metrics"]["coverage"] = change
        return perf_pairs.summarize(pairs, END_TO_END)["coverage"]

    up, down = coverage(0.4, 0.5), coverage(0.5, 0.4)
    assert (up["wins"], up["losses"], up["gain_holds"]) == (10, 0, True)
    assert (down["wins"], down["losses"], down["gain_holds"]) == (0, 10, False)
