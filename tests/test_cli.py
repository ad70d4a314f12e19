import json

import pytest

import collapsing.family as family_module
from collapsing.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_holds(tmp_path, capsys):
    code, _ = run(capsys, "construct", "--kind", "cross", "--params", "d=3",
                  "--out", str(tmp_path / "f.json"))
    assert code == 0
    code, out = run(capsys, "verify", "--family", str(tmp_path / "f.json"), "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert report["holds"] is True
    assert report["mode"] == "exact"


def test_verify_failure_emits_witness(tmp_path, capsys):
    family = {
        "space": {"dim": 2, "kind": "linf"},
        "vectors": [[1, 0], [1, 0]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(family))
    code, out = run(capsys, "verify", "--family", str(path), "--k", "2")
    assert code == 1
    report = json.loads(out)
    assert report["witness"] == [1, 2]
    assert report["margin"] == 2


def test_verify_conditions(tmp_path, capsys):
    code, _ = run(capsys, "construct", "--kind", "cross", "--params", "d=2",
                  "--out", str(tmp_path / "f.json"))
    for condition in ("full", "strong", "weak"):
        code, out = run(capsys, "verify", "--family", str(tmp_path / "f.json"),
                        "--condition", condition)
        assert code == 0, condition
        assert json.loads(out)["holds"] is True


def test_bound_best(capsys):
    code, out = run(capsys, "bound", "--k", "6", "--d", "10", "--best")
    assert code == 0
    assert json.loads(out)["exact"] == 20


def test_bound_all(capsys):
    code, out = run(capsys, "bound", "--k", "4", "--d", "4", "--all")
    assert code == 0
    names = {r["name"] for r in json.loads(out)}
    assert {"balanced-exact", "rank-power", "volume-coloring", "trivial"} <= names


def test_table1_csv(capsys):
    code, out = run(capsys, "table1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k,gamma")
    assert len(lines) == 9


def test_oracle_single(capsys):
    code, out = run(capsys, "oracle", "--m", "8", "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == payload["oracle"] == 1


def test_oracle_grid(capsys):
    code, out = run(capsys, "oracle", "--grid", "--mmax", "5")
    assert code == 0
    assert out.splitlines()[0] == "m,k,p,balanced,closed_form,oracle,exactness"


def test_pipeline(tmp_path, capsys):
    run(capsys, "construct", "--kind", "cross", "--params", "d=4",
        "--out", str(tmp_path / "f.json"))
    code, out = run(capsys, "pipeline", "--family", str(tmp_path / "f.json"), "--k", "6")
    assert code == 0
    assert json.loads(out)["stages"]["volume_inequality"]["holds"]


def test_search(capsys):
    code, out = run(capsys, "search", "--d", "2", "--k", "2")
    assert code == 0
    assert json.loads(out)["max_size"] == 4


def test_gram(tmp_path, capsys):
    run(capsys, "construct", "--kind", "cross", "--params", "d=2",
        "--out", str(tmp_path / "f.json"))
    code, out = run(capsys, "gram", "--family", str(tmp_path / "f.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["rank"] == 2
    assert payload["certificate"]["equality_case"] is True


def test_construct_fixture_and_lift(tmp_path, capsys):
    code, out = run(capsys, "construct", "--kind", "fixtureX", "--params", "d=3,eps=1/10")
    assert code == 0
    assert json.loads(out)["space"]["kind"] == "l1sub"
    code, out = run(capsys, "construct", "--kind", "fixtureY", "--params", "d=2")
    assert code == 0
    code, out = run(capsys, "construct", "--kind", "pk", "--params", "d=3,k=2")
    assert code == 0
    assert json.loads(out)["space"]["kind"] == "slab"


def test_usage_error_exit_code(capsys, tmp_path):
    code, _ = run(capsys, "verify", "--family", str(tmp_path / "missing.json"), "--k", "2")
    assert code == 2


def test_threads_flag(tmp_path, capsys):
    run(capsys, "construct", "--kind", "cross", "--params", "d=3",
        "--out", str(tmp_path / "f.json"))
    code, out = run(capsys, "verify", "--family", str(tmp_path / "f.json"),
                    "--k", "3", "--threads", "2")
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_threads_zero_is_usage_error(tmp_path, capsys):
    run(capsys, "construct", "--kind", "cross", "--params", "d=2",
        "--out", str(tmp_path / "f.json"))
    code, out = run(capsys, "verify", "--family", str(tmp_path / "f.json"),
                    "--k", "2", "--threads", "0")
    assert code == 2
    assert out == ""


def test_budget_zero_is_usage_error(tmp_path, capsys):
    # The exhaustive scan rejects this family with witness [1, 2]; a sampled
    # scan of zero subsets must not report that it holds.
    family = {"space": {"dim": 1, "kind": "linf"}, "vectors": [[1], [1], [1]]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(family))
    code, out = run(capsys, "verify", "--family", str(path), "--k", "2",
                    "--budget", "0", "--seed", "1")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("bad", ['"1/0"', "true", "NaN", "null"])
def test_malformed_scalar_is_usage_error(tmp_path, capsys, bad):
    # A NaN coordinate makes every norm comparison false, so it used to pass
    # as a family that holds.
    path = tmp_path / "f.json"
    path.write_text('{"space": {"dim": 2, "kind": "linf"}, '
                    '"vectors": [[%s, 0.5], [0.5, 0.5]]}' % bad)
    code, out = run(capsys, "verify", "--family", str(path), "--k", "2")
    assert code == 2
    assert out == ""


def test_vpoly_space_kind_is_usage_error(tmp_path, capsys):
    family = {
        "space": {"dim": 1, "kind": "vpoly", "vertices": [[1], [-1]]},
        "vectors": [[1], [-1]],
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(family))
    code = main(["verify", "--family", str(path), "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unknown space kind" in captured.err


@pytest.mark.parametrize("condition", [["--k", "1"], ["--condition", "strong"],
                                       ["--condition", "weak"]])
def test_l1_subspace_outsider_is_usage_error(tmp_path, capsys, condition):
    # (1, 1, 0) lies outside the span of (1, -1, 0); the family is rejected
    # when it is read, whatever the condition.
    family = {"space": {"dim": 1, "kind": "l1sub", "ambient": 3, "basis": [[1, -1, 0]]},
              "vectors": [[1, -1, 0], [1, 1, 0]]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(family))
    code, out = run(capsys, "verify", "--family", str(path), *condition)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("p", [2, 3])
def test_exact_lp_tiny_excess_fails(tmp_path, capsys, p):
    # (1/2, 1e-10) + (1/2, 0) has lp norm just above 1; a rounded root reads 1.
    family = {"space": {"dim": 2, "kind": "lp", "p": p},
              "vectors": [["1/2", "1/10000000000"], ["1/2", 0]]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(family))
    code, out = run(capsys, "verify", "--family", str(path), "--k", "2")
    assert code == 1
    report = json.loads(out)
    assert report["witness"] == [1, 2]
    assert report["mode"] == "exact"
    assert report["margin_pow"] == p
    assert report["margin"] == f"{10 ** (10 * p) + 1}/{10 ** (10 * p)}"


def test_exact_lp_non_integer_p_is_usage_error(tmp_path, capsys):
    family = {"space": {"dim": 2, "kind": "lp", "p": "5/2"}, "vectors": [[1, 0], [0, 1]]}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(family))
    code, out = run(capsys, "verify", "--family", str(path), "--k", "1")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("text", [
    '{"space": {"dim": 2, "kind": "linf"}, "vectors": 3}',  # vectors not a list
    '{"space": {"dim": 2}, "vectors": [[1, 0]]}',  # no space kind
])
def test_malformed_family_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "f.json"
    path.write_text(text)
    code = main(["verify", "--family", str(path), "--k", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "malformed input" in captured.err


@pytest.mark.parametrize("params", ["", "d=abc"])
def test_bad_params_are_usage_errors(capsys, params):
    code, out = run(capsys, "construct", "--kind", "cross", "--params", params)
    assert code == 2
    assert out == ""


def test_key_error_inside_a_command_is_not_a_usage_error(tmp_path, capsys, monkeypatch):
    # Only reading the input maps KeyError to exit 2; a KeyError from the
    # computation itself is a bug and must surface as one.
    import collapsing.cli as cli

    def broken(*args, **kwargs):
        raise KeyError("internal")

    run(capsys, "construct", "--kind", "cross", "--params", "d=2",
        "--out", str(tmp_path / "f.json"))
    monkeypatch.setattr(cli, "check_k_collapsing", broken)
    with pytest.raises(KeyError):
        main(["verify", "--family", str(tmp_path / "f.json"), "--k", "2"])


def test_exact_runs_never_load_numpy(tmp_path):
    # Exact runs stay in Python rationals; only float paths import numpy.
    import subprocess
    import sys
    from pathlib import Path

    import collapsing

    slab = {"space": {"dim": 2, "kind": "slab", "functionals": [[1, 0], [0, 1], ["1/2", "1/2"]]},
            "vectors": [[1, 0], [0, -1], ["-1/2", "1/2"]]}
    float_slab = {"space": {"dim": 2, "kind": "slab", "functionals": [[1.0, 0.0], [0.0, 1.0]]},
                  "vectors": [[0.5, 0.5], [-0.5, 0.25]]}
    (tmp_path / "slab.json").write_text(json.dumps(slab))
    (tmp_path / "float_slab.json").write_text(json.dumps(float_slab))
    cross, slab, float_slab, lift = (
        str(tmp_path / f) for f in ("cross.json", "slab.json", "float_slab.json", "lift.json")
    )
    code = f"""
import sys
sys.path.insert(0, {str(Path(collapsing.__file__).parents[1])!r})
from collapsing.cli import main
exact = [
    ["construct", "--kind", "cross", "--params", "d=3", "--out", {cross!r}],
    ["verify", "--family", {cross!r}, "--k", "2"],
    ["verify", "--family", {slab!r}, "--k", "2"],
    ["gram", "--family", {cross!r}],
    ["oracle", "--m", "8", "--k", "3"],
    ["bound", "--k", "4", "--d", "4", "--all"],
    ["search", "--d", "3", "--k", "2"],
    ["construct", "--kind", "lift", "--params", "q=7,s=1,k=2", "--out", {lift!r}],
]
for argv in exact:
    assert main(argv) in (0, 1), argv
assert "numpy" not in sys.modules
assert main(["verify", "--family", {float_slab!r}, "--k", "2"]) == 0
assert main(["construct", "--kind", "greedy", "--params", "d=3,delta=0.5,seed=1,trials=50"]) == 0
assert "numpy" in sys.modules
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("space, vectors", [
    ({"dim": 2, "kind": "lp", "p": 2}, [[1, 1], [-1, 0], [0, "-1/2"]]),
    ({"dim": 2, "kind": "lp", "p": 3}, [[1, 1], [-1, "1/2"]]),
])
def test_gram_irrational_exact_lp_norm_is_usage_error(tmp_path, capsys, space, vectors):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"space": space, "vectors": vectors}))
    code = main(["gram", "--family", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "(1, 1)" in captured.err and "float pairing matrix" in captured.err


@pytest.mark.parametrize("space, vectors", [
    ({"dim": 2, "kind": "lp", "p": 2}, [["3/5", "4/5"], [-1, 0]]),
    ({"dim": 2, "kind": "lp", "p": 3}, [[1, 0], [0, -1]]),
])
def test_gram_rational_exact_lp_norm_stays_exact(tmp_path, capsys, space, vectors):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"space": space, "vectors": vectors}))
    code, out = run(capsys, "gram", "--family", str(path))
    assert code == 0
    payload = json.loads(out)
    values = [v for row in payload["entries"] for v in row] + list(payload["certificate"].values())
    assert not any(isinstance(v, float) for v in values)
    assert [payload["entries"][i][i] for i in range(2)] == [1, 1]


def test_gram_float_integral_p_is_exact(tmp_path, capsys):
    # The dual used to raise |c| to the float power p - 1 = 2.0.
    outputs = []
    for p in (3.0, 3):
        path = tmp_path / f"f{p!r}.json"
        path.write_text(json.dumps({"space": {"dim": 2, "kind": "lp", "p": p},
                                    "vectors": [[1, 0], [0, "1/2"]]}))
        outputs.append(run(capsys, "gram", "--family", str(path)))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    assert json.loads(outputs[0][1])["certificate"]["trace"] == "3/2"


@pytest.mark.parametrize("d, k, message", [("2", "0", "k must be at least 1"),
                                            ("2", "-1", "k must be at least 1"),
                                            ("2", "2", "capped at 42 steps")])
def test_search_bad_or_too_large_is_usage_error(monkeypatch, capsys, d, k, message):
    # k = 0 used to print the k = 1 answer.  The l_inf^2 sign vectors at
    # k = 2 take 43 steps (nodes and candidate tests), so a cap of 42 trips.
    monkeypatch.setattr(family_module, "BNB_MAX_WORK", 42)
    code = main(["search", "--d", d, "--k", k])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_search_d5_k2_answers(capsys):
    # About 1.75 M candidate tests, inside the real cap.
    code, out = run(capsys, "search", "--d", "5", "--k", "2")
    assert code == 0
    report = json.loads(out)
    assert report["max_size"] == 10
    assert len(report["witness"]) == 10


def test_search_d6_k2_meets_the_cap(capsys):
    code = main(["search", "--d", "6", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"capped at {family_module.BNB_MAX_WORK} steps" in captured.err


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


# The float forms of these bounds pass the binary64 range: rank-power's
# k^(2 gamma_k d + 2) at the first three, volume-coloring's value at the last.
OVERFLOW_CELLS = [(2, 512, "rank-power"), (3, 910, "rank-power"), (5, 1911, "rank-power"),
                  (9, 3527, "volume-coloring")]


@pytest.mark.parametrize("k, d, name", OVERFLOW_CELLS)
@pytest.mark.parametrize("flag", [[], ["--best"]])
def test_bound_past_binary64_best(capsys, k, d, name, flag):
    code, out = run(capsys, "bound", "--k", str(k), "--d", str(d), *flag)
    assert code == 0
    best = _strict_json(out)
    assert best["best_lower"] <= best["best_upper"]


@pytest.mark.parametrize("k, d, name", OVERFLOW_CELLS)
def test_bound_past_binary64_all(capsys, k, d, name):
    code, out = run(capsys, "bound", "--k", str(k), "--d", str(d), "--all")
    assert code == 0
    results = {r["name"]: r for r in _strict_json(out)}
    if name == "rank-power":
        assert results[name]["applicable"] is False
        assert "exceeds binary64" in results[name]["note"]
    else:
        assert results[name]["applicable"] is True
        assert results[name]["value"] is None
        assert isinstance(results[name]["value_int"], int)
    finite = [r for r in results.values()
              if r["applicable"] and r["quantity"] == "C" and r["value"] != "asymptotic-only"]
    best_lower = max(r["value_int"] for r in finite if r["kind"] == "lower")
    best_upper = min(r["value_int"] for r in finite if r["kind"] != "lower")
    assert best_lower <= best_upper


# volume-coloring's exact value at k = 2 is 2^(d+1) + 1: 4,300 digits at
# d = 14283, one more than Python prints as a string from d = 14284.
@pytest.mark.parametrize("flag", [[], ["--best"], ["--all"]])
def test_bound_past_the_int_digit_limit_exits_2(capsys, flag):
    code = main(["bound", "--k", "2", "--d", "14290", *flag])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "more than 4300 digits" in captured.err


@pytest.mark.parametrize("flag", [[], ["--best"], ["--all"]])
@pytest.mark.parametrize("d", [14280, 14283])
def test_bound_below_the_int_digit_limit_prints(capsys, flag, d):
    code, out = run(capsys, "bound", "--k", "2", "--d", str(d), *flag)
    assert code == 0
    if flag == ["--all"]:
        results = {r["name"]: r for r in _strict_json(out)}
        assert results["volume-coloring"]["value_int"] == 2 ** (d + 1) + 1
    else:
        assert _strict_json(out)["best_upper"] == 2 ** (d + 1) + 1


def _refuse_oracle_work(*args, **kwargs):
    raise AssertionError("the oracle ran before its arguments were checked")


@pytest.mark.parametrize("argv, message", [
    (["oracle"], "needs --m and --k"),
    (["oracle", "--m", "8"], "needs --m and --k"),
    (["oracle", "--grid", "--mmax", "17"], "capped at m = 16"),
])
def test_oracle_bad_arguments_exit_2_before_any_work(monkeypatch, capsys, argv, message):
    # Without --m/--k the closed forms used to end in a TypeError traceback,
    # and --mmax 17 used to enumerate m = 4..16 before meeting the cap.
    import collapsing.simplexopt as simplexopt

    monkeypatch.setattr(simplexopt, "_vertices", _refuse_oracle_work)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["search", "--d", "-1", "--k", "2"], "dimension must be positive"),
    (["bound", "--k", "2", "--d", "2", "--all", "--p", "0"], "need p >= 1"),
    (["bound", "--k", "2", "--d", "2", "--p", "0"], "need p >= 1"),
])
def test_search_and_bound_bad_arguments_exit_2(capsys, argv, message):
    # --d -1 used to end in a ValueError traceback, --all --p 0 used to sweep
    # p in [1, 10] as if --p were absent, and --p 0 without --all went unread.
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
