"""Scenario serialization, audit reports, and CLI behaviour."""

import copy
import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gvcglab import (
    BUILTIN_NAMES,
    MechanismResult,
    StructuralError,
    expected_matches,
    inefficiency_trio,
    load_scenario,
    negative_income_trio,
    positive_income_trio,
    random_economy,
    reproduce,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
    unit_demand_trio,
    wp,
)
from gvcglab import cli
from gvcglab.cli import main
from gvcglab.serialize import dumps, economy_to_json, result_to_json
from oracle import enumerate_allocations, minimal_equivalent_bundles

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def shipped(name):
    """The built-in scenario ``name``, from its file."""
    return load_scenario(SCENARIO_DIR / f"{name}.json")


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_scenarios_round_trip_exactly(name):
    scenario = shipped(name)
    recovered = scenario_from_json(scenario_to_json(scenario))
    assert recovered.economy == scenario.economy
    assert recovered.t_l == scenario.t_l
    assert recovered.audits == scenario.audits
    assert recovered.deviations == scenario.deviations
    assert recovered.expected == scenario.expected


_CONSTRUCTORS = {
    "ex1": (negative_income_trio, 0, ["0", "19/10", "19/10"]),
    "ex2": (positive_income_trio, 0, ["0", "19/10", "19/10"]),
    "ex3": (unit_demand_trio, 0, ["0", "1", "2"]),
    "prop2-5": (lambda: inefficiency_trio(t_l=-1), -1, ["0", "0", "-1"]),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_shipped_files_match_builtins(name):
    constructor, t_l, payments = _CONSTRUCTORS[name]
    scenario = shipped(name)
    assert scenario.economy == constructor()
    assert scenario.t_l == t_l
    assert scenario.expected["payments"] == payments
    assert expected_matches(run_scenario(scenario), scenario.expected)


def test_result_serialization_shape():
    report = run_scenario(shipped("ex1"))
    assert report["result"]["payments"] == ["0", "19/10", "19/10"]
    assert report["result"]["allocation"] == [[], ["a"], ["b"]]
    assert report["result"]["welfare"] == "4"
    assert report["result"]["t_L"] == "0"


def test_reports_are_byte_deterministic():
    a = dumps(run_scenario(shipped("ex1")))
    b = dumps(run_scenario(shipped("ex1")))
    assert a == b
    assert reproduce("thm2-sample", seed=3, samples=40) == reproduce(
        "thm2-sample", seed=3, samples=40
    )


def test_decimal_rationals_accepted_in_scenario_files():
    scenario = scenario_from_json(
        {
            "name": "decimal",
            "economy": {
                "objects": ["a"],
                "preferences": [
                    {
                        "kind": "dichotomous",
                        "minimal_bundles": [["a"]],
                        "wp": {
                            "breakpoints": [],
                            "pieces": [{"intercept": "1.9", "slope": "0"}],
                        },
                    }
                ],
            },
            "t_L": "0.5",
        }
    )
    assert scenario.t_l == F(1, 2)
    assert scenario.economy.preferences[0].wp_map.value(0) == F(19, 10)


# ---------------------------------------------------------------------------
# scenario execution and expectations


def test_expected_blocks_match_for_all_builtins():
    for name in BUILTIN_NAMES:
        report = run_scenario(shipped(name))
        assert report["expected_match"] is True, name


def test_ex1_report_has_dominance_details():
    report = run_scenario(shipped("ex1"))
    dom = report["checks"]["dominance"]
    assert dom["dominated"] is True
    assert dom["payment_gain"] == "1/20"
    assert dom["dominating_payment_sum"] == "77/20"
    assert dom["witness"]["dominating"]["outcomes"][0] == {
        "bundle": ["a", "b"],
        "payment": "39/10",
    }


def test_ex3_report_has_manipulation_details():
    report = run_scenario(shipped("ex3"))
    dsic = report["checks"]["dsic"]
    assert dsic["manipulable"] is True
    assert dsic["witness"]["agent"] == 1
    assert dsic["witness"]["truthful"] == {"bundle": ["a"], "payment": "1"}
    assert dsic["witness"]["deviated"] == {"bundle": ["b"], "payment": "2"}


def test_dsic_audit_without_deviations_is_an_input_error(tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "ex1.json").read_text())
    scenario["audits"] = ["dsic"]
    scenario["deviations"] = None
    scenario.pop("expected")
    path = tmp_path / "no_devs.json"
    path.write_text(json.dumps(scenario))
    assert main(["audit", str(path)]) == 2
    capsys.readouterr()


def _audit_exit_code(tmp_path, capsys, **fields):
    scenario = json.loads((SCENARIO_DIR / "ex1.json").read_text())
    scenario.update(fields)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(scenario))
    code = main(["audit", str(path)])
    return code, capsys.readouterr().err


def test_audits_given_as_a_string_is_an_input_error(tmp_path, capsys):
    code, err = _audit_exit_code(tmp_path, capsys, audits="dsic")
    assert code == 2
    assert "audits must be a list" in err


@pytest.mark.parametrize("audits", [0, "", False, {}], ids=repr)
def test_falsy_audits_that_are_not_a_list_are_an_input_error(tmp_path, capsys, audits):
    # a falsy value must not pass for "no audits selected"
    code, err = _audit_exit_code(tmp_path, capsys, audits=audits)
    assert code == 2
    assert err == "error: audits must be a list of audit selectors\n"


def test_audits_missing_or_null_run_the_default_audits(tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "ex1.json").read_text())
    scenario.pop("audits")
    path = tmp_path / "no_audits.json"
    path.write_text(json.dumps(scenario))
    assert main(["audit", str(path)]) == 0
    missing = json.loads(capsys.readouterr().out)
    assert sorted(missing["checks"]) == ["dominance", "guarantees", "ir_no_subsidy"]
    code, err = _audit_exit_code(tmp_path, capsys, audits=None)
    assert (code, err) == (0, "")


def test_deviations_given_as_an_object_is_an_input_error(tmp_path, capsys):
    code, err = _audit_exit_code(tmp_path, capsys, audits=["dsic"], deviations={"0": []})
    assert code == 2
    assert "deviations must be a list" in err


def test_deviation_entry_given_as_an_object_is_an_input_error(tmp_path, capsys):
    misreport = json.loads((SCENARIO_DIR / "ex1.json").read_text())["economy"]["preferences"][0]
    code, err = _audit_exit_code(
        tmp_path, capsys, audits=["dsic"], deviations=[[], misreport, []]
    )
    assert code == 2
    assert "deviations[1] must be a list" in err


def test_unknown_expectation_key_is_rejected():
    scenario = shipped("ex1")
    broken = scenario_from_json(
        {**scenario_to_json(scenario), "expected": {"not-a-key": 1}}
    )
    with pytest.raises(StructuralError):
        run_scenario(broken)


def test_reproduce_all_names_pass():
    for name in ("ex1", "ex2", "ex3", "prop2-5"):
        claims = reproduce(name)
        assert claims and all(ok for _, ok in claims), (name, claims)
    claims = reproduce("thm2-sample", seed=0, samples=50)
    assert all(ok for _, ok in claims)
    claims = reproduce("n2-efficiency", seed=0, samples=30)
    assert all(ok for _, ok in claims)
    with pytest.raises(StructuralError):
        reproduce("nope")


# ---------------------------------------------------------------------------
# CLI


def test_cli_solve_prints_result(capsys):
    code = main(["solve", str(SCENARIO_DIR / "ex1.json")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["payments"] == ["0", "19/10", "19/10"]


def test_cli_solve_t_l_override(capsys):
    code = main(["solve", str(SCENARIO_DIR / "ex1.json"), "--t-l=-1/2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["t_L"] == "-1/2"


def test_cli_solve_one_agent_scenario(tmp_path, capsys):
    scenario = {
        "name": "solo",
        "economy": {
            "objects": ["a"],
            "preferences": [
                {
                    "kind": "dichotomous",
                    "minimal_bundles": [["a"]],
                    "wp": {"breakpoints": [], "pieces": [{"intercept": "3", "slope": "0"}]},
                }
            ],
        },
        "t_L": "0",
    }
    path = tmp_path / "solo.json"
    path.write_text(json.dumps(scenario))
    assert main(["solve", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["payments"] == ["0"]
    assert payload["allocation"] == [["a"]]


def test_cli_solve_prop2_5_losers_pay_reference(capsys):
    assert main(["solve", str(SCENARIO_DIR / "prop2-5.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["payments"] == ["0", "0", "-1"]
    assert payload["t_L"] == "-1"


def test_cli_audit_builtins_meet_expectations(capsys):
    for name in BUILTIN_NAMES:
        code = main(["audit", str(SCENARIO_DIR / f"{name}.json")])
        out = capsys.readouterr().out
        assert code == 0, (name, out)
        assert json.loads(out)["expected_match"] is True


def test_cli_audit_mismatch_exits_one(tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "ex1.json").read_text())
    scenario["expected"]["payments"] = ["0", "2", "2"]
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(scenario))
    assert main(["audit", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["expected_match"] is False


def test_cli_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", str(path)]) == 2
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    path.write_text(json.dumps({"name": "x"}))  # missing fields
    assert main(["solve", str(path)]) == 2
    capsys.readouterr()


def test_cli_huge_decimal_exponent_exits_two_quickly(tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "ex1.json").read_text())
    scenario["t_L"] = "1e10000000"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scenario))
    start = time.perf_counter()
    assert main(["solve", str(path)]) == 2
    assert time.perf_counter() - start < 2  # building 10**10**7 takes seconds
    assert "exceeds 4300 digits" in capsys.readouterr().err


def test_cli_guard_exits_three(monkeypatch, capsys):
    monkeypatch.setenv("GVCGLAB_GUARD", "3")
    assert main(["solve", str(SCENARIO_DIR / "ex1.json")]) == 3
    capsys.readouterr()


def test_cli_reproduce_prints_pass_lines(capsys):
    code = main(["reproduce", "ex1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 4
    assert "FAIL" not in out


def test_cli_reproduce_unknown_name_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["reproduce", "不明"])
    assert err.value.code == 2
    capsys.readouterr()


def test_cli_fuzz_reports_counts(capsys):
    code = main(
        ["fuzz", "--n", "3", "--m", "2", "--income-effect", "pos", "--samples", "25"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"] == 25
    assert payload["dominated"] == 0


@pytest.mark.parametrize(
    "flag, value",
    [("--n", "0"), ("--n", "-2"), ("--m", "0"), ("--m", "11"), ("--m", "12"), ("--samples", "-1")],
)
def test_cli_fuzz_out_of_range_sizes_exit_two(flag, value, capsys):
    args = {"--n": "2", "--m": "2", "--samples": "5"}
    args[flag] = value
    with pytest.raises(SystemExit) as err:
        main(["fuzz", *(part for pair in args.items() for part in pair)])
    assert err.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_cli_reproduce_negative_samples_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["reproduce", "thm2-sample", "--samples", "-1"])
    assert err.value.code == 2
    capsys.readouterr()


def test_cli_fuzz_accepts_the_size_limits(capsys):
    assert main(["fuzz", "--n", "1", "--m", "10", "--samples", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == 0


def _scan_result(economy, t):
    """Mechanism outcome from exhaustive scans: the lexicographically first
    argmax, shrunk, and each Clarke pivot as a brute-force maximum."""
    prefs = economy.preferences
    allocations = list(enumerate_allocations(economy.num_agents, economy.num_objects))
    welfare, first = None, None
    for alloc in allocations:
        total = sum(wp(p, b, t) for p, b in zip(prefs, alloc))
        if welfare is None or total > welfare:
            welfare, first = total, alloc
    bundles = minimal_equivalent_bundles(economy, t, first)
    payments = []
    for i, pref in enumerate(prefs):
        rivals_best = max(
            sum(wp(p, b, t) for j, (p, b) in enumerate(zip(prefs, alloc)) if j != i)
            for alloc in allocations
        )
        payments.append(t + rivals_best - (welfare - wp(pref, bundles[i], t)))
    return MechanismResult(bundles, tuple(payments), welfare, t)


def test_cli_solve_matches_scan_oracle(tmp_path, capsys):
    paths = [SCENARIO_DIR / f"{name}.json" for name in BUILTIN_NAMES]
    rng = random.Random(5)
    for k in range(12):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        economy = random_economy(rng, n, m, "mixed")
        doc = {"name": f"r{k}", "economy": economy_to_json(economy), "t_L": str(rng.randint(-1, 1))}
        paths.append(tmp_path / f"r{k}.json")
        paths[-1].write_text(json.dumps(doc))
    for path in paths:
        scenario = load_scenario(path)
        assert main(["solve", str(path)]) == 0
        expected = _scan_result(scenario.economy, scenario.t_l)
        names = scenario.economy.object_names
        assert capsys.readouterr().out == dumps(result_to_json(expected, names)), path.name
    with pytest.raises(SystemExit):
        main(["solve", str(paths[0]), "--branch-and-bound"])
    capsys.readouterr()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("preferences", "abc", "economy.preferences must be a list"),
        ("preferences", {"z": 1}, "economy.preferences must be a list"),
        ("preferences", [[1]], "economy.preferences[0] must be an object"),
        ("objects", "abc", "economy.objects must be a list"),
    ],
)
def test_cli_economy_field_of_wrong_type_exits_two(tmp_path, capsys, field, value, message):
    scenario = json.loads((SCENARIO_DIR / "ex1.json").read_text())
    scenario["economy"][field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(scenario))
    for command in ("solve", "audit"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


def test_cli_expected_given_as_a_list_exits_two(tmp_path, capsys):
    code, err = _audit_exit_code(tmp_path, capsys, expected=[1])
    assert code == 2
    assert "expected must be an object" in err


def test_cli_unexpected_exception_exits_four_without_traceback(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("solver state\nlost")

    monkeypatch.setattr(cli, "_cmd_solve", broken)
    assert main(["solve", str(SCENARIO_DIR / "ex1.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError(")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_nested_fields_of_wrong_type_are_named():
    doc = scenario_to_json(shipped("ex3"))
    cases = [
        (("economy", "preferences", 0, "minimal_bundles"), "ab", "minimal_bundles must be a list"),
        (("economy", "preferences", 0, "minimal_bundles", 0), "ab", "minimal_bundles[0] must be a list"),
        (("economy", "preferences", 1, "bundles"), [], "bundles must be an object"),
        (("economy", "objects", 1), 2, "economy.objects[1] must be a string"),
        (("economy", "preferences", 0, "wp"), [1], "wp must be an object"),
        (("economy", "preferences", 0, "wp", "breakpoints"), "5", "breakpoints must be a list"),
        (("economy", "preferences", 0, "wp", "pieces"), "x", "pieces must be a list"),
        (("economy", "preferences", 0, "wp", "pieces", 0), "x", "pieces[0] must be an object"),
        (("economy", "preferences", 1, "bundles", "a,b"), "x", "bundles['a,b'] must be an object"),
        (("deviations", 1, 0), "x", "deviations[1][0] must be an object"),
        ((), [doc], "scenario must be an object"),
    ]
    for path, value, message in cases:
        broken = json.loads(json.dumps(doc))
        if path:
            node = broken
            for step in path[:-1]:
                node = node[step]
            node[path[-1]] = value
        else:
            broken = value
        with pytest.raises(StructuralError, match=message.replace("[", r"\[")):
            scenario_from_json(broken)


def _preference_prefix(path):
    """The path an error inside a preference is prefixed with."""
    if path[:2] == ("economy", "preferences") and len(path) > 3:
        return f"economy.preferences[{path[2]}]: "
    if path[0] == "deviations":
        return f"deviations[{path[1]}][{path[2]}]: "
    return ""


@pytest.mark.parametrize(
    "path, message",
    [
        (("economy",), "economy is missing"),
        (("t_L",), "t_L is missing"),
        (("economy", "objects"), "economy.objects is missing"),
        (("economy", "preferences"), "economy.preferences is missing"),
        (("economy", "preferences", 0, "minimal_bundles"), "minimal_bundles is missing"),
        (("economy", "preferences", 0, "wp"), "wp is missing"),
        (("economy", "preferences", 1, "bundles"), "bundles is missing"),
        (("economy", "preferences", 0, "wp", "breakpoints"), "breakpoints is missing"),
        (("economy", "preferences", 0, "wp", "pieces"), "pieces is missing"),
        (("economy", "preferences", 0, "wp", "pieces", 0, "intercept"), "pieces[0].intercept is missing"),
        (("economy", "preferences", 0, "wp", "pieces", 0, "slope"), "pieces[0].slope is missing"),
        (("deviations", 1, 0, "wp"), "wp is missing"),
    ],
)
def test_cli_missing_field_exits_two_naming_it(tmp_path, capsys, path, message):
    doc = json.loads((SCENARIO_DIR / "ex3.json").read_text())
    node = doc
    for step in path[:-1]:
        node = node[step]
    del node[path[-1]]
    target = tmp_path / "missing.json"
    target.write_text(json.dumps(doc))
    assert main(["solve", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {_preference_prefix(path)}{message}\n"
    assert captured.out == ""


def _one_error_line(captured):
    return (
        captured.err.startswith("error: ")
        and captured.err.count("\n") == 1
        and "Traceback" not in captured.err
        and captured.out == ""
    )


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"name": "caf\xe9"}', "can't decode byte 0xe9"),
        (b"[" * 100_000 + b"]" * 100_000, "recursion"),
        (b"1" * 5000, "Exceeds the limit (4300 digits)"),
    ],
    ids=["not-utf-8", "nested-100000-deep", "5000-digit-integer"],
)
def test_cli_unreadable_json_exits_two_naming_the_file(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured)
    assert captured.err.startswith(f"error: {path}: ") and message in captured.err


def test_cli_bundle_member_of_wrong_type_exits_two(tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "ex1.json").read_text())
    scenario["economy"]["preferences"][1]["minimal_bundles"] = [["a"], [{}]]
    path = tmp_path / "member.json"
    path.write_text(json.dumps(scenario))
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: economy.preferences[1]: minimal_bundles[1][0]: "
        "bundle member must be a string, not dict\n"
    )


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("t_L",), "x", "t_L: cannot parse rational from 'x'"),
        (("t_L",), 1.5, "t_L: not an exact rational: 1.5"),
        (
            ("economy", "preferences", 1, "wp", "breakpoints", 0),
            "1/0",
            "economy.preferences[1]: breakpoints[0]: cannot parse rational from '1/0'",
        ),
        (
            ("economy", "preferences", 1, "wp", "pieces", 1, "intercept"),
            "two",
            "economy.preferences[1]: pieces[1].intercept: cannot parse rational from 'two'",
        ),
        (
            ("economy", "preferences", 0, "wp", "pieces", 0, "slope"),
            True,
            "economy.preferences[0]: pieces[0].slope: not an exact rational: True",
        ),
        (
            ("economy", "preferences", 2, "minimal_bundles", 1, 0),
            "z",
            "economy.preferences[2]: minimal_bundles[1][0]: unknown object name 'z'",
        ),
    ],
)
def test_cli_bad_value_exits_two_naming_its_field(tmp_path, capsys, path, value, message):
    scenario = json.loads((SCENARIO_DIR / "ex1.json").read_text())
    node = scenario
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    target = tmp_path / "bad_value.json"
    target.write_text(json.dumps(scenario))
    assert main(["solve", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def _ex3_with(tmp_path, edit):
    """ex3's scenario file after ``edit(doc)``, written out; returns its path."""
    doc = json.loads((SCENARIO_DIR / "ex3.json").read_text())
    edit(doc)
    target = tmp_path / "ex3_edited.json"
    target.write_text(json.dumps(doc))
    return str(target)


@pytest.mark.parametrize(
    "key, first",
    [("b,a", "a,b"), ("a,a", "a")],
    ids=["reordered-key", "repeated-name"],
)
def test_cli_two_keys_naming_one_bundle_exit_two(tmp_path, capsys, key, first):
    def add_key(doc):
        bundles = doc["economy"]["preferences"][1]["bundles"]
        bundles[key] = {"breakpoints": [], "pieces": [{"intercept": "0", "slope": "0"}]}

    assert main(["solve", _ex3_with(tmp_path, add_key)]) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured)
    assert captured.err == (
        f"error: economy.preferences[1]: bundles[{key!r}] "
        f"names the same bundle as bundles[{first!r}]\n"
    )


@pytest.mark.parametrize("command", ["solve", "audit"])
@pytest.mark.parametrize("where", ["economy.preferences[1]", "deviations[1][0]"])
def test_cli_table_missing_a_bundle_exits_two_naming_it(tmp_path, capsys, command, where):
    def drop_b(doc):
        partial = copy.deepcopy(doc["economy"]["preferences"][1])
        del partial["bundles"]["b"]
        if where == "deviations[1][0]":
            doc["deviations"][1][0] = partial
        else:
            doc["economy"]["preferences"][1] = partial

    assert main([command, _ex3_with(tmp_path, drop_b)]) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured)
    assert captured.err == f"error: {where}: bundle 10 missing from WP table\n"


def test_cli_unknown_expectation_key_exits_two_whatever_its_place(tmp_path, capsys):
    # the known key mismatches, so comparing it first would exit 1
    for expected in ({"payments": ["0"], "x": 1}, {"x": 1, "payments": ["0"]}):
        code, err = _audit_exit_code(tmp_path, capsys, expected=expected)
        assert code == 2
        assert err == "error: unknown expectation key 'x'\n"


def test_cli_name_of_wrong_type_exits_two(tmp_path, capsys):
    code, err = _audit_exit_code(tmp_path, capsys, name={"x": [1]})
    assert code == 2
    assert err == "error: name must be a string, not dict\n"


def _json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


_JSON_VALUES = (None, True, 0, -1, "x", "", [], ["a"], {}, {"x": 1})


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cli_mutated_scenarios_never_exit_four(tmp_path, capsys, data):
    name = data.draw(st.sampled_from(BUILTIN_NAMES))
    doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    path = data.draw(st.sampled_from(list(_json_paths(doc))))
    parent = None
    node = doc
    for step in path:
        parent, node = node, node[step]
    action = data.draw(st.sampled_from(("drop", "retype", "nest") if path else ("retype", "nest")))
    if action == "drop":
        del parent[path[-1]]
    else:
        if action == "retype":
            new = data.draw(st.sampled_from([v for v in _JSON_VALUES if type(v) is not type(node)]))
        else:
            new = data.draw(st.sampled_from(([node], {"x": node})))
        if path:
            parent[path[-1]] = new
        else:
            doc = new
    target = tmp_path / "mutated.json"
    target.write_text(json.dumps(doc))
    code = main(["audit", str(target)])
    captured = capsys.readouterr()
    assert code != 4, captured.err
    if code == 2:
        assert _one_error_line(captured), captured.err
