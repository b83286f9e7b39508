import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mherz import verification
from mherz.cli import (
    SUITES,
    emit,
    estimate_c,
    list_suites,
    load_config,
    load_report,
    main,
    run,
)
from mherz.errors import ConfigError, MherzError, PredicateError
from mherz.grid import make_grid
from mherz.norms import ExponentParams
from mherz.verification import (
    OPTION_DOMAINS,
    InequalityReport,
    TrialRecord,
    check_char_norms,
)

REPO = Path(__file__).resolve().parents[1]
PR_DICT = {"alpha": 0.25, "p": 2, "q": 2, "lam": 0.5}


def write_config(tmp_path, body, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(body))
    return p


def minimal_config(tmp_path, **overrides):
    body = {
        "grid": {"L_max": 2, "s": 3},
        "seed": 3,
        "out_dir": str(tmp_path / "reports"),
        "format": "json",
        "suites": [{"name": "char_norms", "params": [PR_DICT]}],
    }
    body.update(overrides)
    return write_config(tmp_path, body)


def test_minimal_config_runs_clean(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    assert run(cfg) == 0
    out = capsys.readouterr().out
    assert "char_norms" in out
    files = sorted((tmp_path / "reports").iterdir())
    assert [f.name for f in files] == ["00_char_norms.json", "summary_index.json"]
    idx = json.loads((tmp_path / "reports" / "summary_index.json").read_text())
    assert idx["suites"][0]["status"] == "pass"


def test_unknown_suite_is_usage_error(tmp_path):
    cfg = minimal_config(tmp_path)
    body = json.loads(cfg.read_text())
    body["suites"][0]["name"] = "nope"
    cfg.write_text(json.dumps(body))
    with pytest.raises(ConfigError, match=r"suites\[0\].name"):
        load_config(cfg)
    assert main(["run", str(cfg)]) == 2


def test_unknown_option_points_at_field(tmp_path, capsys):
    # char_norms takes no seed: options are exactly the check_* keyword
    # arguments, so caps and single-value choices are not options
    for name, options in (
        ("char_norms", {"bogus": 1}),
        ("char_norms", {"seed": 1}),
        ("char_norms", {"tol": 1e-9}),
        ("john_nirenberg_bmo", {"symbol": "bogus"}),
        ("cz_comm", {"kernel": "double-hilbert"}),
        ("cz_comm", {"dilations": []}),
        ("maximal_bounds", {"space": "herz", "ratio_cap": 1e-9}),
    ):
        params = [PR_DICT] if name == "char_norms" else PR_DICT
        cfg = minimal_config(
            tmp_path, suites=[{"name": name, "params": params, "options": options}]
        )
        with pytest.raises(ConfigError, match=r"suites\[0\].options: unknown keys"):
            load_config(cfg)
        assert main(["run", str(cfg)]) == 2
        assert "unknown keys" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()


def test_predicate_violation_is_named_inequality_error(tmp_path):
    cfg = minimal_config(
        tmp_path,
        suites=[
            {
                "name": "maximal_bounds",
                "params": {"alpha": 0.75, "p": 2, "q": 2, "lam": 0.5},
                "options": {"space": "herz"},
            }
        ],
    )
    with pytest.raises(ConfigError, match="alpha"):
        load_config(cfg)


def test_out_of_hypothesis_allowed_and_exit_semantics(tmp_path):
    cfg = minimal_config(
        tmp_path,
        suites=[
            {
                "name": "maximal_bounds",
                "params": {"alpha": 0.75, "p": 2, "q": 2, "lam": 0.5},
                "options": {
                    "space": "herz",
                    "allow_out_of_hypothesis": True,
                    "refine": False,
                    "trials": 3,
                },
            }
        ],
    )
    # non-strict: out-of-hypothesis exits 0
    assert run(cfg) == 0
    # strict: nonzero
    assert run(cfg, strict=True) == 1


def test_grid_guard_is_config_error(tmp_path):
    cfg = minimal_config(tmp_path, grid={"L_max": 13, "s": 0})
    with pytest.raises(ConfigError, match="size guard"):
        load_config(cfg)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"seed": "abc"}, "seed"),
        ({"seed": -5}, "seed"),  # the first seeded suite would run on seed -5 + index
        ({"seed": True}, "seed"),
        ({"grid": {"L_max": 2.7, "s": 3}}, "grid.L_max"),
        ({"grid": {"L_max": 2, "s": True}}, "grid.s"),
        ({"strict": "no"}, "strict"),
        ({"out_dir": 5}, "out_dir"),
        ({"grid": {"L_max": 2, "s": 2, "S": 5}}, "grid"),  # was run at s=2
        ({"grid": {"L_max": 2}}, "grid"),
    ],
)
def test_top_level_fields_refused_by_name(tmp_path, capsys, overrides, field):
    cfg = minimal_config(
        tmp_path,
        suites=[{"name": "cz_comm", "params": PR_DICT, "options": {"refine": False}}],
        **overrides,
    )
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: "):
        load_config(cfg)
    assert main(["run", str(cfg)]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize(
    "body, named",
    [([{"name": "char_norms", "params": [PR_DICT]}], "object"), ({"bogus": 1}, "bogus")],
)
def test_config_root_refused(tmp_path, capsys, monkeypatch, body, named):
    monkeypatch.chdir(tmp_path)  # where a root without out_dir would write
    if isinstance(body, dict):
        body = json.loads(minimal_config(tmp_path).read_text()) | body
    cfg = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match=named):
        load_config(cfg)
    assert main(["run", str(cfg)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


def test_unreadable_config_is_a_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    # text that is not UTF-8, and an int past Python's digit limit: each was a raw ValueError
    for text in (b"\xff", b'{"seed": ' + b"9" * 5000 + b"}"):
        cfg.write_bytes(text)
        with pytest.raises(ConfigError, match="^config is not valid JSON: "):
            load_config(cfg)


def _cz(params=None, **fields):
    return {"name": "cz_comm", "params": PR_DICT | (params or {}), **fields}


@pytest.mark.parametrize(
    "entry, field",
    [
        (_cz({"alpha": None}), "suites[0].params.alpha"),  # was a raw TypeError
        (_cz({"alpha": [0.25]}), "suites[0].params.alpha"),
        (_cz({"alpha": True}), "suites[0].params.alpha"),  # was read as 1.0
        (_cz({"p": True}), "suites[0].params.p"),
        (_cz({"q": False}), "suites[0].params.q"),
        (_cz({"lam": True}), "suites[0].params.lam"),
        (_cz({"n": 1.5}), "suites[0].params.n"),  # was read as 1
        (_cz({"m": 1.5}), "suites[0].params.m"),
        (_cz({"n": True}), "suites[0].params.n"),
        (_cz({"alpha": "x"}), "suites[0].params"),
        ({"name": "char_norms", "params": [PR_DICT | {"q": None}]}, "suites[0].params[0].q"),
        (_cz(options="ab"), "suites[0].options"),  # was a raw ValueError
        (_cz(options=[]), "suites[0].options"),  # was read as no options
        (_cz(options=3), "suites[0].options"),
        (_cz(options=None), "suites[0].options"),
        ({"name": "char_norms", "params": []}, "suites[0].params"),  # was a vacuous pass
        # non-finite exponents: each was a pass on trials whose ratios were all nan
        ({"name": "char_norms", "params": [PR_DICT | {"lam": "nan"}]}, "suites[0].params[0].lam"),
        (
            {"name": "char_norms", "params": [PR_DICT | {"alpha": "inf"}]},
            "suites[0].params[0].alpha",
        ),
        (
            {"name": "maximal_bounds", "params": PR_DICT | {"lam": "nan"},
             "options": {"space": "herz"}},
            "suites[0].params.lam",
        ),
        ({"name": "norm_duality", "params": PR_DICT | {"lam": "nan"}}, "suites[0].params.lam"),
        # a single exponent object is read as a list of one
        ({"name": "char_norms", "params": PR_DICT | {"q": None}}, "suites[0].params[0].q"),
        ({"name": "maximal_bounds", "params": PR_DICT, "options": {"bogus": 1}}, "suites[0].options"),
        ({"name": "cz_comm"}, "suites[0]"),
        ({"name": ["cz_comm"], "params": PR_DICT}, "suites[0].name"),  # was a raw TypeError
        (_cz({"p": 10**400}), "suites[0].params"),  # was a raw OverflowError
    ],
)
def test_suite_fields_refused_by_name(tmp_path, capsys, entry, field):
    cfg = minimal_config(tmp_path, suites=[entry])
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: "):
        load_config(cfg)
    assert main(["run", str(cfg)]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


def test_missing_required_option(tmp_path):
    cfg = minimal_config(
        tmp_path, suites=[{"name": "maximal_bounds", "params": PR_DICT}]
    )
    with pytest.raises(ConfigError, match="missing required"):
        load_config(cfg)


def test_extrapolation_config_validates_block_side(tmp_path):
    cfg = minimal_config(
        tmp_path,
        suites=[
            {
                "name": "extrapolation",
                "params": PR_DICT,  # p = p0 = 2 violates the hypothesis
                "options": {"op": "strong-maximal", "p0": 2.0},
            }
        ],
    )
    with pytest.raises(ConfigError, match="p0"):
        load_config(cfg)


def test_csv_emission_contract(tmp_path):
    rep = check_char_norms(make_grid(2, 3), [ExponentParams(**PR_DICT)])
    path = emit(rep, "csv", tmp_path / "r.csv")
    lines = path.read_text().splitlines()
    header_comments = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# generated_at=") for l in header_comments)
    assert any("mherz" in l for l in header_comments)
    assert any(l.startswith("# params=") for l in header_comments)
    header = next(l for l in lines if not l.startswith("#"))
    assert header.startswith("claim,trial,lhs,rhs,ratio,note")


def test_json_round_trip(tmp_path):
    rep = check_char_norms(make_grid(2, 3), [ExponentParams(**PR_DICT)])
    path = emit(rep, "json", tmp_path / "r.json")
    back = load_report(path)
    assert back.to_dict() == rep.to_dict()
    doc = json.loads(path.read_text())
    assert doc["version"]


def _reject_constant(token):
    raise ValueError(f"non-finite constant {token} is not strict JSON")


def test_non_finite_values_written_as_strict_json(tmp_path, monkeypatch):
    import mherz.cli

    rep = InequalityReport(
        claim="synthetic",
        params={"q": math.inf},
        trials=[TrialRecord("t", 1.0, 0.0)],  # infinite ratio
        summary={"max_ratio": math.inf, "floor": -math.inf, "spread": math.nan},
        thresholds={"drift_cap": 0.25},
        refinement={"base_max_ratio": 0.0, "refined_max_ratio": 1.0, "drift": math.inf},
        status="fail",
    )
    path = emit(rep, "json", tmp_path / "r.json")
    doc = json.loads(path.read_text(), parse_constant=_reject_constant)["report"]
    assert doc["trials"][0]["ratio"] == "inf"
    assert doc["refinement"]["drift"] == "inf"
    assert doc["summary"] == {"max_ratio": "inf", "floor": "-inf", "spread": "nan"}
    back = load_report(path)
    assert back.trials == rep.trials
    assert back.params == rep.params
    assert back.refinement == rep.refinement
    assert back.summary["floor"] == -math.inf and math.isnan(back.summary["spread"])

    csv_path = emit(rep, "csv", tmp_path / "r.csv")
    assert '# params={"q": "inf"}' in csv_path.read_text().splitlines()

    # the summary index goes through the same encoder
    monkeypatch.setattr(mherz.cli, "_execute_job", lambda cfg, job: rep)
    assert run(minimal_config(tmp_path)) == 1
    idx = (tmp_path / "reports" / "summary_index.json").read_text()
    summary = json.loads(idx, parse_constant=_reject_constant)["suites"][0]["summary"]
    assert summary["max_ratio"] == "inf"


def test_outputs_byte_stable_modulo_timestamp(tmp_path):
    cfg = minimal_config(tmp_path)
    run(cfg, out_dir=tmp_path / "a")
    run(cfg, out_dir=tmp_path / "b")
    strip = lambda text: re.sub(r"\"?generated_at\"?[=:][^,\n]*", "", text)
    a = strip((tmp_path / "a" / "00_char_norms.json").read_text())
    b = strip((tmp_path / "b" / "00_char_norms.json").read_text())
    assert a == b


def report_mismatches(got, want, where=""):
    """Paths at which ``got`` differs from ``want``: keys, strings and other
    values exactly, floats at rtol 1e-9 / atol 1e-12 (the benchmark gate's)."""
    if isinstance(want, dict) and isinstance(got, dict):
        if list(got) != list(want):
            return [f"{where}: keys {list(got)} != {list(want)}"]
        return [m for k in want for m in report_mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [
            m for i, (g, w) in enumerate(zip(got, want)) for m in report_mismatches(g, w, f"{where}[{i}]")
        ]
    if type(want) is float and type(got) is float:
        same = math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    else:
        same = type(got) is type(want) and got == want
    return [] if same else [f"{where}: {got!r} != {want!r}"]


def test_demo_reports_at_L2_s3_match_the_recorded_reports(tmp_path):
    # every file `mherz run` writes for configs/demo.json at L_max=2, s=3,
    # without generated_at; norm_duality, john_nirenberg_bmo (two nonempty
    # level sets, no decay fit) and cz_comm fail on that grid, so the fail
    # path is pinned too.  Regenerate the fixture only for a deliberate
    # report change.
    body = json.loads((REPO / "configs" / "demo.json").read_text())
    body["grid"] = {"L_max": 2, "s": 3}
    assert run(write_config(tmp_path, body), out_dir=tmp_path / "reports") == 1
    got = {}
    for path in sorted((tmp_path / "reports").iterdir()):
        got[path.name] = json.loads(path.read_text())
        del got[path.name]["generated_at"]
    want = json.loads((REPO / "tests" / "data" / "demo_L2_s3_reports.json").read_text())
    assert report_mismatches(got, want) == []


def test_format_override_and_csv_run(tmp_path):
    cfg = minimal_config(tmp_path)
    assert run(cfg, fmt="csv", out_dir=tmp_path / "csvout") == 0
    assert (tmp_path / "csvout" / "00_char_norms.csv").exists()


def test_john_nirenberg_csv_has_gamma_column(tmp_path):
    from mherz.verification import check_john_nirenberg_bmo

    rep = check_john_nirenberg_bmo(
        make_grid(2, 3), ExponentParams(**PR_DICT), refine=False
    )
    path = emit(rep, "csv", tmp_path / "jn.csv")
    header = next(l for l in path.read_text().splitlines() if not l.startswith("#"))
    assert "gamma" in header  # (gamma, norm) columns ready for a line fit


# per suite: (options, params block) pairs on both sides of the hypotheses
HYPOTHESIS_CASES = {
    "char_norms": [
        ({}, [PR_DICT]),
        ({}, [{"alpha": 0.0, "p": 2, "q": 2, "lam": 0.9}]),
        ({}, [PR_DICT, {"alpha": -0.6, "p": 2, "q": 2, "lam": 0.0}]),
    ],
    "norm_duality": [
        ({"trials": 4}, PR_DICT),
        ({"trials": 4}, {"alpha": 0.75, "p": 2, "q": 2, "lam": 0.5}),
        ({"trials": 4}, {"alpha": 0.1, "p": 3, "q": 2, "lam": 0.0}),
    ],
    "maximal_bounds": [
        ({"space": "herz", "trials": 3}, PR_DICT),
        ({"space": "herz", "trials": 3}, {"alpha": 0.75, "p": 2, "q": 2, "lam": 0.5}),
        ({"space": "morrey-herz", "trials": 3}, {"alpha": 0.0, "p": 2, "q": 2, "lam": 0.9}),
        ({"space": "block-upper", "trials": 3}, {"alpha": -0.25, "p": 2, "q": 2, "lam": 0.5}),
        ({"space": "block-upper", "trials": 3}, PR_DICT),
    ],
    "fefferman_stein": [
        ({"family_count": 1, "r_list": [2.0]}, PR_DICT),
        ({"family_count": 1, "r_list": [2.0]}, {"alpha": 0.25, "p": 2, "q": 2, "lam": 0.0}),
    ],
    "extrapolation": [
        ({"op": "strong-maximal", "p0": 2.0, "trials": 2, "K": 2},
         {"alpha": 0.2, "p": 4, "q": 4, "lam": 0.2}),
        ({"op": "strong-maximal", "p0": 2.0, "trials": 2, "K": 2}, PR_DICT),
        ({"op": "strong-maximal", "p0": 2.0, "trials": 2, "K": 2},
         {"alpha": 0.2, "p": 4, "q": 4, "lam": 0.0}),
    ],
    "john_nirenberg_bmo": [
        ({}, PR_DICT),
        ({}, {"alpha": 0.25, "p": 2, "q": 2, "lam": 0.0}),
    ],
    "cz_comm": [
        ({}, PR_DICT),
        ({}, {"alpha": 0.75, "p": 2, "q": 2, "lam": 0.5}),
    ],
}


@pytest.mark.parametrize("name", sorted(HYPOTHESIS_CASES))
def test_config_rejects_exactly_what_the_suite_refuses(tmp_path, name):
    assert set(HYPOTHESIS_CASES) == set(SUITES)
    sdef = SUITES[name]
    outcomes = set()
    for options, block in HYPOTHESIS_CASES[name]:
        if "refine" in sdef.options:
            options = {**options, "refine": False}
        cfg = minimal_config(
            tmp_path, suites=[{"name": name, "params": block, "options": options}]
        )
        try:
            load_config(cfg)
            rejected = False
        except ConfigError as exc:
            assert "exponent predicate violated" in str(exc)
            rejected = True
        if sdef.multi_params:
            params = {"param_sets": [ExponentParams(**d) for d in block]}
        else:
            params = {"params": ExponentParams(**block)}
        try:
            sdef.runner(make_grid(2, 3), **params, **options)
            refused = False
        except PredicateError:
            refused = True
        assert rejected == refused, (options, block)
        outcomes.add(refused)
    assert outcomes == {False, True}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_reports_write_the_declared_thresholds(name):
    options, block = HYPOTHESIS_CASES[name][0]
    if SUITES[name].multi_params:
        params = {"param_sets": [ExponentParams(**d) for d in block]}
    else:
        params = {"params": ExponentParams(**block)}
    if "refine" in SUITES[name].options:
        options = {**options, "refine": False}
    rep = SUITES[name].runner(make_grid(2, 3), **params, **options)
    assert list(rep.thresholds.items()) == list(SUITES[name].caps.items())
    assert rep.thresholds is not SUITES[name].caps


BAD_OPTION_VALUES = [
    ("maximal_bounds", {"space": "bogus"}, "space"),
    ("maximal_bounds", {"space": "bogus", "allow_out_of_hypothesis": True}, "space"),
    ("maximal_bounds", {"space": "herz", "variant": "bogus"}, "variant"),
    ("extrapolation", {"op": "bogus", "p0": 2.0}, "op"),
    ("fefferman_stein", {"r_list": [1.0]}, "r_list"),
    ("fefferman_stein", {"r_list": []}, "r_list"),
    ("fefferman_stein", {"family_count": 0}, "family_count"),
    ("extrapolation", {"op": "strong-maximal", "p0": 2.0, "K": 0}, "K"),
    ("extrapolation", {"op": "strong-maximal", "p0": 2.0, "K": 2.5}, "K"),
    ("extrapolation", {"op": "strong-maximal", "p0": 2.0, "c": -1.0}, "c"),
    ("extrapolation", {"op": "strong-maximal", "p0": 2.0, "c": 0}, "c"),
    ("norm_duality", {"trials": 0}, "trials"),
    ("maximal_bounds", {"space": "herz", "trials": -3}, "trials"),
    ("maximal_bounds", {"space": "herz", "trials": True}, "trials"),
    ("extrapolation", {"op": "strong-maximal", "p0": 2.0, "trials": 1.5}, "trials"),
    ("john_nirenberg_bmo", {"gammas": []}, "gammas"),
    ("john_nirenberg_bmo", {"gammas": [2.0, "inf"]}, "gammas"),
    ("john_nirenberg_bmo", {"gammas": 3.0}, "gammas"),
    ("extrapolation", {"op": "strong-maximal", "p0": "2"}, "p0"),
    ("extrapolation", {"op": "strong-maximal", "p0": True}, "p0"),
    ("extrapolation", {"op": "strong-maximal", "p0": None}, "p0"),
    ("norm_duality", {"seed": "x"}, "seed"),
    ("maximal_bounds", {"space": "herz", "seed": 1.5}, "seed"),
    ("cz_comm", {"seed": -1}, "seed"),
    ("john_nirenberg_bmo", {"refine": "no"}, "refine"),
    ("maximal_bounds", {"space": "herz", "allow_out_of_hypothesis": "false"},
     "allow_out_of_hypothesis"),
]


@pytest.mark.parametrize("name, options, key", BAD_OPTION_VALUES)
def test_bad_option_values_refused_before_the_run(tmp_path, capsys, name, options, key):
    # each of these used to pass validation and die partway through the run,
    # after the suites before it had finished but before any report was written
    params = {"alpha": 0.2, "p": 4, "q": 4, "lam": 0.2} if name == "extrapolation" else PR_DICT
    cfg = minimal_config(
        tmp_path,
        grid={"L_max": 2, "s": 2},
        suites=[
            {"name": "char_norms", "params": [PR_DICT]},
            {"name": name, "params": params, "options": options},
        ],
    )
    with pytest.raises(ConfigError, match=rf"suites\[1\]\.options\.{key}: "):
        load_config(cfg)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert not (tmp_path / "reports").exists()
    # the suite called directly refuses the same options through the same
    # admission, which tags the error with the option it blames, and the
    # config error carries the suite's own message
    with pytest.raises((ValueError, MherzError)) as info:
        SUITES[name].runner(make_grid(2, 2), params=ExponentParams(**params), **options)
    assert info.value.field == f"options.{key}"
    assert f"suites[1].options.{key}: {info.value}" in err


@pytest.mark.parametrize(
    "s, overflow",
    [
        (2, {"q": 1000, "alpha": 2000}),  # the norms pass the float range at large q
        (2, {"alpha": 300}),
        (2, {"alpha": 2000}),  # so does the diagonal ratio's target
        (5, {"q": 1000, "alpha": 2000}),  # the norms at the window floor underflow to 0
        # each of these stopped the run: an annulus sum ** (1/p) overflowed,
        (2, {"p": 0.001}),
        # the geometric ratio 2**(q*beta) rounded to 1 and the sum divided by 0,
        (2, {"q": 1e-300}),
        # and the Morrey-Herz prefactor 2**(-(l1+l2)*lam) overflowed
        (5, {"alpha": 1e300, "lam": 1e299}),
    ],
)
def test_overflowing_closed_form_fails_without_stopping_the_run(tmp_path, s, overflow):
    # a relative error of inf against inf, or of 0 against 0, is nan, and a
    # nan fails the gate
    cfg = minimal_config(
        tmp_path,
        grid={"L_max": 3, "s": s},
        suites=[
            {"name": "char_norms", "params": [{**PR_DICT, **overflow}]},
            {"name": "char_norms", "params": [PR_DICT]},
        ],
    )
    assert run(cfg) == 1
    files = sorted(f.name for f in (tmp_path / "reports").iterdir())
    assert files == ["00_char_norms.json", "01_char_norms.json", "summary_index.json"]
    rep = load_report(tmp_path / "reports" / "00_char_norms.json")
    assert rep.status == "fail"
    assert math.isnan(rep.summary["worst_rel_err"])
    assert rep.notes == ["gate worst_rel_err <= 1e-12 fails: nan"]
    assert load_report(tmp_path / "reports" / "01_char_norms.json").status == "pass"


def test_john_nirenberg_without_a_decay_fit_fails_the_run(tmp_path):
    # gammas past the truncated log's oscillation leave every level set
    # empty: the run used to report pass and exit 0 with no decay measured
    cfg = minimal_config(
        tmp_path,
        grid={"L_max": 3, "s": 3},
        suites=[{"name": "john_nirenberg_bmo", "params": PR_DICT,
                 "options": {"gammas": [50, 60, 70], "refine": False}}],
    )
    assert run(cfg) == 1
    rep = load_report(tmp_path / "reports" / "00_john_nirenberg_bmo.json")
    assert rep.status == "fail"
    assert rep.notes == [
        "only 0 nonempty level sets on the gamma grid; decay holds trivially",
        "gate decay_slope < 0.0 fails: None",
        "gate decay_r2 >= 0.98 fails: None",
    ]


def test_overflowing_annulus_power_writes_the_maximal_report(tmp_path):
    # at p = 0.001 the annulus sums ** 1000 overflow; the run used to stop
    # before writing any report
    cfg = minimal_config(
        tmp_path,
        grid={"L_max": 3, "s": 2},
        suites=[
            {"name": "maximal_bounds", "params": {**PR_DICT, "p": 0.001},
             "options": {"space": "herz", "allow_out_of_hypothesis": True}},
            {"name": "char_norms", "params": [PR_DICT]},
        ],
    )
    assert run(cfg) == 0
    files = sorted(f.name for f in (tmp_path / "reports").iterdir())
    assert files == ["00_maximal_bounds.json", "01_char_norms.json", "summary_index.json"]
    rep = load_report(tmp_path / "reports" / "00_maximal_bounds.json")
    assert rep.status == "out-of-hypothesis"
    assert rep.notes[0] == "1 < p < inf fails: p=0.001"


@pytest.mark.parametrize(
    "s, refine, refused",
    [(9, True, True), (8, True, True), (8, False, False)],
)
def test_bmo_sweep_past_its_guard_refused_at_load_time(tmp_path, capsys, s, refine, refused):
    # the default bmo family sweeps 214,106,128 cells at N=4096, past the
    # oscillation sweep's guard: the run used to stop there, before any report
    cfg = minimal_config(
        tmp_path,
        grid={"L_max": 3, "s": s},
        suites=[
            {"name": "char_norms", "params": [PR_DICT]},
            {"name": "john_nirenberg_bmo", "params": PR_DICT, "options": {"refine": refine}},
        ],
    )
    if not refused:  # N=2048: the sweep is under the guard
        assert len(load_config(cfg).jobs) == 2
        return
    with pytest.raises(ConfigError, match=r"^grid: N=4096 .*214106128 cells"):
        load_config(cfg)
    assert main(["run", str(cfg)]) == 2
    assert "config error: grid: N=4096" in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()


def test_every_option_has_one_domain():
    assert set().union(*(sdef.options for sdef in SUITES.values())) == set(OPTION_DOMAINS)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_admits_all_its_options_first(monkeypatch, name):
    seen = []

    def stop(suite, grid, params, options):
        seen.append((suite, list(options)))
        raise PredicateError("admission reached")

    monkeypatch.setattr(verification, "admit", stop)
    options, block = HYPOTHESIS_CASES[name][0]
    if SUITES[name].multi_params:
        params = {"param_sets": [ExponentParams(**d) for d in block]}
    else:
        params = {"params": ExponentParams(**block)}
    with pytest.raises(PredicateError, match="admission reached"):
        SUITES[name].runner(make_grid(2, 3), **params, **options)
    assert seen == [(name, list(SUITES[name].options))]


@pytest.mark.parametrize("L_max, s", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_tiny_grids_are_refused_or_run_to_a_status(tmp_path, name, L_max, s):
    # every grid the size guard admits either runs to a status or is refused
    # at load time; at (1, 0) no annulus is cell-aligned, so the window is empty
    options, block = HYPOTHESIS_CASES[name][0]
    cfg = minimal_config(
        tmp_path,
        grid={"L_max": L_max, "s": s},
        suites=[{"name": name, "params": block, "options": options}],
    )
    if (L_max, s) == (1, 0):
        with pytest.raises(ConfigError, match=r"^grid: annulus window \[2, 1\] is empty$"):
            load_config(cfg)
    else:
        assert run(cfg) in (0, 1)


def test_exact_grid_beyond_its_gate_refused_at_load_time(tmp_path, capsys):
    # N=64 is at the gate, but the refinement would run exact-grid on N=128
    options = {"space": "herz", "variant": "exact-grid"}
    cfg = minimal_config(
        tmp_path,
        grid={"L_max": 3, "s": 3},
        suites=[
            {"name": "char_norms", "params": [PR_DICT]},
            {"name": "maximal_bounds", "params": PR_DICT, "options": options},
        ],
    )
    with pytest.raises(ConfigError, match=r"suites\[1\]\.options\.variant: .*N=128 .*gate 64"):
        load_config(cfg)
    assert main(["run", str(cfg)]) == 2
    assert "suites[1].options.variant" in capsys.readouterr().err
    assert not (tmp_path / "reports").exists()

    body = json.loads(cfg.read_text())
    body["suites"][1]["options"]["refine"] = False
    cfg.write_text(json.dumps(body))
    assert run(cfg) == 0
    idx = json.loads((tmp_path / "reports" / "summary_index.json").read_text())
    assert [s["status"] for s in idx["suites"]] == ["pass", "pass"]


def test_out_of_hypothesis_hint_only_where_the_option_exists(tmp_path):
    bad = {"alpha": 0.75, "p": 2, "q": 2, "lam": 0.5}
    hint = "set options.allow_out_of_hypothesis"
    for name, options, hinted in (
        ("maximal_bounds", {"space": "herz"}, True),
        ("cz_comm", {}, False),
    ):
        cfg = minimal_config(tmp_path, suites=[{"name": name, "params": bad, "options": options}])
        with pytest.raises(ConfigError, match="exponent predicate violated") as info:
            load_config(cfg)
        assert (hint in str(info.value)) == hinted, name


def test_package_exports_resolve():
    import mherz

    missing = [name for name in mherz.__all__ if not hasattr(mherz, name)]
    assert missing == []
    # the public surface, spelled out: adding or removing a name is a
    # deliberate change to this list
    assert sorted(mherz.__all__) == [
        "AnnulusIndex",
        "DOUBLE_HILBERT",
        "DYADIC_SIDES",
        "DyadicRectangle",
        "EXACT_GRID",
        "ExponentParams",
        "GridFunction",
        "GridRectangle",
        "GridSpec",
        "ITERATED_1D",
        "RectangleFamily",
        "WeightFunction",
        "annulus_restrict",
        "ap_star_characteristic",
        "block_norm_upper",
        "bmo_mk_norm",
        "build_function",
        "char_rect_norm_closed_form",
        "commutator",
        "conjugate_exponent",
        "cz_apply",
        "dilate",
        "generate_a1_weight",
        "herz_norm",
        "make_grid",
        "make_weight",
        "morrey_herz_norm",
        "pairing_l1",
        "restrict_to_window",
        "rubio_de_francia",
        "strong_maximal",
        "weighted_lp_norm",
        "window_mask",
    ]


def test_failing_cap_exits_nonzero(tmp_path, monkeypatch):
    # an absurd cap forces a fail status and a nonzero exit
    monkeypatch.setitem(SUITES["maximal_bounds"].caps, "ratio_cap", 1e-9)
    cfg = minimal_config(
        tmp_path,
        suites=[
            {
                "name": "maximal_bounds",
                "params": PR_DICT,
                "options": {"space": "herz", "refine": False, "trials": 3},
            }
        ],
    )
    assert run(cfg) == 1
    rep = load_report(tmp_path / "reports" / "00_maximal_bounds.json")
    assert rep.thresholds["ratio_cap"] == 1e-9
    assert rep.notes == [f"gate max_ratio <= 1e-09 fails: {rep.summary['max_ratio']!r}"]


LIST_SUITES_OUTPUT = """\
char_norms           indicator Morrey-Herz norms vs exact closed forms
cz_comm              singular operator boundedness and commutator dichotomy
extrapolation        weighted L^p0 hypothesis layer vs Morrey-Herz conclusion layer
fefferman_stein      vector-valued maximal inequality ratios
john_nirenberg_bmo   level-set decay fit and bmo norm equivalence
maximal_bounds       maximal operator norm ratios on herz / morrey-herz / block-upper
norm_duality         pairing bounds and indicator norm products
"""


def test_list_suites_covers_registry(capsys):
    assert list_suites() == 0
    out = capsys.readouterr().out
    for name in SUITES:
        assert name in out
    assert main(["list-suites"]) == 0
    assert capsys.readouterr().out == out == LIST_SUITES_OUTPUT


def test_cli_reads_the_one_registry_off_each_signature():
    assert SUITES is verification.SUITES
    assert len(SUITES) == 7
    for name, sdef in SUITES.items():
        assert sdef.name == name
        assert sdef.runner is getattr(verification, f"check_{name}")
        params = list(inspect.signature(sdef.runner).parameters.values())
        assert params[0].name == "grid"
        exponents = [p.name for p in params if p.name in ("params", "param_sets")]
        assert exponents == (["param_sets"] if sdef.multi_params else ["params"])
        options = [p for p in params[1:] if p.name not in exponents]
        assert sdef.options == tuple(p.name for p in options)
        assert sdef.defaults == {p.name: p.default for p in options if p.default is not p.empty}


def test_estimate_c(tmp_path, capsys):
    cfg = minimal_config(
        tmp_path,
        grid={"L_max": 2, "s": 3},
        suites=[
            {
                "name": "extrapolation",
                "params": {"alpha": 0.2, "p": 4, "q": 4, "lam": 0.2},
                "options": {"op": "strong-maximal", "p0": 2.0},
            }
        ],
    )
    assert estimate_c(cfg) == 0
    out = capsys.readouterr().out
    assert "estimated block norm" in out
    assert main(["estimate-c", str(minimal_config(tmp_path))]) == 2


def test_main_run_smoke(tmp_path):
    cfg = minimal_config(tmp_path)
    assert main(["run", str(cfg), "--out", str(tmp_path / "m"), "--format", "csv"]) == 0
    assert (tmp_path / "m" / "00_char_norms.csv").exists()


def _summary_close(got, want, rtol, atol) -> bool:
    if isinstance(want, dict):
        return list(got) == list(want) and all(
            _summary_close(got[k], want[k], rtol, atol) for k in want
        )
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=rtol, abs_tol=atol)
    return got == want


def test_demo_config_matches_the_reference_summaries(tmp_path):
    # the north-star run: all seven suites pass, with the summaries recorded
    # in the benchmark reference for the demo config's seed
    assert run(REPO / "configs" / "demo.json", out_dir=tmp_path) == 0
    index = json.loads((tmp_path / "summary_index.json").read_text())["suites"]
    assert [s["status"] for s in index] == ["pass"] * 7
    ref = json.loads((REPO / "bench" / "reference" / "demo.json").read_text())
    assert ref["seed"] == json.loads((REPO / "configs" / "demo.json").read_text())["seed"]
    assert len(index) == len(ref["summaries"])
    for entry, want in zip(index, ref["summaries"]):
        assert _summary_close(entry["summary"], want, ref["rtol"], ref["atol"]), entry["suite"]


def test_maximal_g35_config_matches_the_reference_summaries(tmp_path, monkeypatch):
    # the maximal-g35 workload at the benchmark's seed: fefferman_stein at
    # N=256/512 and the iterated-1d maximal, which the demo config never runs
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import workloads

    config = tmp_path / "maximal-g35.json"
    workloads.write_config("maximal-g35", workloads.DEFAULT_SEED, config)
    assert run(config, out_dir=tmp_path / "reports") == 0
    index = json.loads((tmp_path / "reports" / "summary_index.json").read_text())["suites"]
    assert [s["status"] for s in index] == ["pass"] * 2
    ref = json.loads(workloads.reference_path("maximal-g35").read_text())
    assert ref["seed"] == workloads.DEFAULT_SEED
    assert len(index) == len(ref["summaries"])
    for entry, want in zip(index, ref["summaries"]):
        assert _summary_close(entry["summary"], want, ref["rtol"], ref["atol"]), entry["suite"]


def modules_new_during_run(tmp_path, body):
    """Modules a fresh process imports during ``cli.run`` of ``body``; those
    it loads before, such as any that numpy loads on import, do not count."""
    code = """
import json, sys
from mherz import cli
before = set(sys.modules)
cli.run(sys.argv[1])
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    out = subprocess.run(
        [sys.executable, "-c", code, str(write_config(tmp_path, body))],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_a_run_imports_no_numpy_ma(tmp_path):
    # np.median imported numpy.ma (three modules) mid-run; _ratio_stats'
    # median takes the middle of a sorted list instead
    body = {
        "grid": {"L_max": 2, "s": 3},
        "seed": 5,
        "out_dir": str(tmp_path / "reports"),
        "format": "json",
        "suites": [
            {"name": "maximal_bounds", "params": PR_DICT,
             "options": {"space": "morrey-herz", "trials": 4}},
            {"name": "fefferman_stein", "params": PR_DICT},
            {"name": "extrapolation", "params": {"alpha": 0.2, "p": 4, "q": 4, "lam": 0.2},
             "options": {"op": "strong-maximal", "p0": 2.0, "K": 3, "trials": 4}},
        ],
    }
    new = modules_new_during_run(tmp_path, body)
    assert [m for m in new if m == "numpy.ma" or m.startswith("numpy.ma.")] == []
    reports = [json.loads(f.read_text()) for f in sorted((tmp_path / "reports").glob("0*.json"))]
    assert [r["report"]["summary"]["median_ratio"] > 0 for r in reports] == [True] * 3


def test_a_run_that_draws_noise_imports_no_numpy_random(tmp_path):
    # the noise builtin draws from an in-house PCG64 stream: the first use of
    # numpy.random loads secrets, hashlib and OpenSSL, about 5 MB of RSS
    body = {
        "grid": {"L_max": 2, "s": 3},
        "seed": 5,
        "out_dir": str(tmp_path / "reports"),
        "format": "json",
        "suites": [
            {"name": "maximal_bounds", "params": PR_DICT,
             "options": {"space": "morrey-herz", "trials": 4, "refine": False}},
        ],
    }
    new = modules_new_during_run(tmp_path, body)
    assert [m for m in new if m.split(".")[0] in ("secrets", "hashlib", "_hashlib")
            or m == "numpy.random" or m.startswith("numpy.random.")] == []
    rep = load_report(tmp_path / "reports" / "00_maximal_bounds.json")
    assert any(t.trial.startswith("noise-") for t in rep.trials)
