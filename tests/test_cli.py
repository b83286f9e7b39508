import json
import re

import pytest

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
from mherz.errors import ConfigError, PredicateError
from mherz.grid import make_grid
from mherz.norms import ExponentParams
from mherz.verification import check_char_norms

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


def test_unknown_option_points_at_field(tmp_path):
    # char_norms takes no seed: options are exactly the check_* keyword arguments
    for options in ({"bogus": 1}, {"seed": 1}):
        cfg = minimal_config(
            tmp_path,
            suites=[{"name": "char_norms", "params": [PR_DICT], "options": options}],
        )
        with pytest.raises(ConfigError, match=r"suites\[0\].options"):
            load_config(cfg)


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


def test_outputs_byte_stable_modulo_timestamp(tmp_path):
    cfg = minimal_config(tmp_path)
    run(cfg, out_dir=tmp_path / "a")
    run(cfg, out_dir=tmp_path / "b")
    strip = lambda text: re.sub(r"\"?generated_at\"?[=:][^,\n]*", "", text)
    a = strip((tmp_path / "a" / "00_char_norms.json").read_text())
    b = strip((tmp_path / "b" / "00_char_norms.json").read_text())
    assert a == b


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


def test_parallel_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("MHERZ_WORKERS", "2")
    cfg = minimal_config(
        tmp_path,
        suites=[
            {"name": "char_norms", "params": [PR_DICT]},
            {
                "name": "maximal_bounds",
                "params": PR_DICT,
                "options": {"space": "herz", "refine": False, "trials": 3},
            },
        ],
    )
    assert run(cfg, parallel=True) == 0


def test_parallel_workers_env_must_be_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MHERZ_WORKERS", "two")
    cfg = minimal_config(tmp_path)
    with pytest.raises(ConfigError, match="MHERZ_WORKERS"):
        run(cfg, parallel=True)
    assert main(["run", str(cfg), "--parallel"]) == 2
    assert "MHERZ_WORKERS" in capsys.readouterr().err


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
        ({"dilations": [1, 2, 4]}, PR_DICT),
        ({"dilations": [1, 2, 4]}, {"alpha": 0.75, "p": 2, "q": 2, "lam": 0.5}),
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


def test_failing_cap_exits_nonzero(tmp_path):
    # an absurd cap forces a fail status and a nonzero exit
    cfg = minimal_config(
        tmp_path,
        suites=[
            {
                "name": "maximal_bounds",
                "params": PR_DICT,
                "options": {"space": "herz", "ratio_cap": 1e-9, "refine": False, "trials": 3},
            }
        ],
    )
    assert run(cfg) == 1


def test_list_suites_covers_registry(capsys):
    assert list_suites() == 0
    out = capsys.readouterr().out
    for name in SUITES:
        assert name in out


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
