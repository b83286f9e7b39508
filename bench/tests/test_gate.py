import json
from pathlib import Path

import pytest

from gate import check_reports, failed_all, load_strict, summary_mismatches
from workloads import DEFAULT_SEED, WORKLOADS, reference_path, write_config

ROOT = Path(__file__).resolve().parents[2]


def write_reports(out: Path, config: dict, status="pass", summary=None, text=None):
    out.mkdir(parents=True, exist_ok=True)
    for i, suite in enumerate(config["suites"]):
        doc = {"report": {"status": status, "summary": summary or {"max_ratio": 1.5}}}
        body = text if text is not None else json.dumps(doc)
        (out / f"{i:02d}_{suite['name']}.json").write_text(body)
    (out / "summary_index.json").write_text(json.dumps({"suites": []}))


CONFIG = {"suites": [{"name": "char_norms"}, {"name": "cz_comm"}]}


def test_strict_json_rejects_non_finite(tmp_path):
    path = tmp_path / "r.json"
    for token in ("Infinity", "-Infinity", "NaN"):
        path.write_text('{"x": %s}' % token)
        with pytest.raises(ValueError):
            load_strict(path)
    path.write_text('{"x": 1e308}')
    assert load_strict(path) == {"x": 1e308}


def test_summary_tolerance():
    want = {"a": 1.0, "b": [2.0, None, "x"], "n": 6}
    assert summary_mismatches({"a": 1.0 + 1e-12, "b": [2.0, None, "x"], "n": 6}, want, 1e-9, 0) == []
    assert summary_mismatches({"a": 1.001, "b": [2.0, None, "x"], "n": 6}, want, 1e-9, 0) == [
        "summary.a: 1.001 != 1.0"
    ]
    assert summary_mismatches({"a": 1.0, "b": [2.0, None], "n": 6}, want, 1e-9, 0)
    assert summary_mismatches({"a": 1.0, "b": [2.0, None, "x"]}, want, 1e-9, 0)
    assert summary_mismatches({"z": 0.0}, {"z": 4e-16}, 1e-9, 1e-12) == []


def test_passing_reports(tmp_path):
    write_reports(tmp_path, CONFIG)
    assert [r["ok"] for r in check_reports(CONFIG, tmp_path, None)] == [True, True]


@pytest.mark.parametrize(
    "kwargs, problem",
    [
        ({"status": "fail"}, "status 'fail'"),
        ({"status": "out-of-hypothesis"}, "status 'out-of-hypothesis'"),
        ({"text": '{"report": {"status": "pass", "summary": {"r": Infinity}}}'}, "strict JSON"),
    ],
)
def test_failing_reports(tmp_path, kwargs, problem):
    write_reports(tmp_path, CONFIG, **kwargs)
    results = check_reports(CONFIG, tmp_path, None)
    assert not any(r["ok"] for r in results)
    assert problem in results[0]["problems"][0]


def test_missing_report_and_reference_drift(tmp_path):
    write_reports(tmp_path, CONFIG)
    (tmp_path / "01_cz_comm.json").unlink()
    reference = {"rtol": 1e-9, "atol": 0.0, "summaries": [{"max_ratio": 1.4}, {}]}
    first, second = check_reports(CONFIG, tmp_path, reference)
    assert first["problems"] == ["summary.max_ratio: 1.5 != 1.4"]
    assert "01_cz_comm.json" in second["problems"][0]


def test_raised_run_fails_every_suite():
    assert [r["ok"] for r in failed_all(CONFIG, "boom")] == [False, False]


def test_demo_workload_is_the_committed_demo_config(tmp_path):
    config = write_config("demo", DEFAULT_SEED, tmp_path / "demo.json")
    committed = json.loads((ROOT / "configs" / "demo.json").read_text())
    committed.pop("out_dir")
    assert json.loads(json.dumps(config)) == committed


def test_references_match_workloads():
    for name, config in WORKLOADS.items():
        ref = json.loads(reference_path(name).read_text())
        assert ref["seed"] == DEFAULT_SEED
        assert len(ref["summaries"]) == len(config["suites"])


def test_benchmark_json_lists_the_workloads_and_unique_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert len(spec["per_layer"]) <= 128
