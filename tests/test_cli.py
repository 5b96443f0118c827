"""Exercise every CLI subcommand, format, and exit code."""
import json

from click.testing import CliRunner

from goldiebound.cli import main
from goldiebound.serialize import canonical_json


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


def run_json(*args, env=None):
    result = run(*args, "--format", "json", env=env)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


# -- dim ---------------------------------------------------------------------------


def test_dim_pretty():
    result = run("dim", "B2", "1,0")
    assert result.exit_code == 0
    assert "= 5" in result.output


def test_dim_json_roundtrip():
    result = run("dim", "C3", "fw:[0,0,1]", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == {"root_system": "C3", "weight": ["1", "1", "1"], "dim": "14"}
    assert canonical_json(payload) == result.output.rstrip("\n")


def test_dim_tsv():
    result = run("dim", "A1", "1/2,-1/2", "--format", "tsv")
    lines = result.output.strip().splitlines()
    assert lines[0] == "root_system\tweight\tdim"
    assert lines[1] == "A1\t1,0\t2"  # canonical gauge: last coordinate zero


def test_dim_rejects_bad_inputs():
    assert run("dim", "E8", "1,0").exit_code == 2
    assert run("dim", "B2", "1,0,0").exit_code == 2
    assert run("dim", "B2", "1,q").exit_code == 2
    assert run("dim", "B2", "0,1").exit_code == 2  # not dominant


# -- orbit-size ---------------------------------------------------------------------


def test_orbit_size():
    payload = run_json("orbit-size", "B3", "1/2,1/2,1/2")
    assert payload["orbit_size"] == "8"
    assert payload["dominant"] == ["1/2", "1/2", "1/2"]
    result = run("orbit-size", "A2", "0,1,0", "--format", "tsv")
    lines = result.output.strip().splitlines()
    assert lines[0].split("\t") == ["root_system", "weight", "dominant", "orbit_size"]
    assert lines[1].split("\t")[-1] == "3"


# -- dpsi / index ---------------------------------------------------------------------


def test_dpsi_certified_spinor():
    payload = run_json("dpsi", "B3", "1/2,1/2,1/2")
    block = payload["dpsi"]
    assert block["value"] == "8"
    assert block["status"] == "certified"
    assert payload["class_rep"] == ["1/2", "1/2", "1/2"]
    assert block["witnesses"][0] == {
        "weight": ["1/2", "1/2", "1/2"],
        "dimension": "8",
    }


def test_index_matches_dpsi():
    a = run_json("dpsi", "D4", "1/2,1/2,1/2,1/2")
    b = run_json("index", "D4", "1/2,1/2,1/2,1/2")
    assert a["dpsi"]["value"] == b["index"]["value"] == "8"


# Exit code 3 and GOLDIEBOUND_DPSI_BOUND are retired with the d(psi) budget. The
# three tests below keep the names of the budget tests they replace and pin what
# took their place: --bound and the old variable are accepted and ignored.
RETIRED_BOUND_CASES = [
    ["dpsi", "A3", "1,1,0,0"],
    ["index", "B2", "1/2,1/2"],
    ["premet", "3"],
    ["table", "premet", "--from", "3", "--to", "4"],
]


def test_dpsi_budget_exhaustion_exits_3():
    # The runs that once exhausted the budget and exited 3 now certify.
    for args, value in ((["dpsi", "B2", "1/2,1/2", "--bound", "0"], "4"),
                        (["dpsi", "A3", "1,1,0,0", "--bound", "1"], "2")):
        payload = run_json(*args)
        assert payload["dpsi"]["value"] == value
        assert payload["dpsi"]["status"] == "certified"
    for args in RETIRED_BOUND_CASES:
        plain = run(*args, "--format", "json")
        assert plain.exit_code == 0, plain.output
        for bound in ("0", "1"):
            assert run(*args, "--bound", bound, "--format", "json").output == plain.output
        assert "--bound" not in run(*args, "--help").output


def test_dpsi_env_var_sets_default_bound():
    # GOLDIEBOUND_DPSI_BOUND is no longer read: no value of it changes the output.
    for args in RETIRED_BOUND_CASES:
        plain = run(*args, "--format", "json")
        for value in ("0", "-2", "zeuhl"):
            env = {"GOLDIEBOUND_DPSI_BOUND": value}
            assert run(*args, "--format", "json", env=env).output == plain.output


def test_negative_bound_is_a_usage_error():
    # A negative --bound is ignored like any other; a non-integer one is still a usage error.
    for args in RETIRED_BOUND_CASES:
        plain = run(*args, "--format", "json")
        assert run(*args, "--bound", "-1", "--format", "json").output == plain.output
    assert run("dpsi", "A3", "1,1,0,0", "--bound", "x").exit_code == 2


def test_weight_may_start_with_a_minus_sign():
    for command in ("dim", "orbit-size", "integral", "dpsi", "index"):
        with_dash = run(command, "A2", "-1,-2,-3", "--format", "json")
        assert with_dash.exit_code == 0, with_dash.output
        assert with_dash.output == run(command, "A2", "--format", "json", "--", "-1,-2,-3").output
    point = run("orbit-size", "B2", "-.5,.5", "--format", "json")  # "-." starts a weight too
    assert point.exit_code == 0, point.output
    assert point.output == run("orbit-size", "B2", "--format", "json", "--", "-.5,.5").output
    bounded = run("dpsi", "A2", "--bound", "-1", "-1,0,1")  # the bound, then the weight
    assert bounded.exit_code == 0 and bounded.output == run("dpsi", "A2", "--", "-1,0,1").output
    misspelled = run("dim", "B2", "1,0", "--formt", "json")
    assert misspelled.exit_code == 2 and "No such option '--formt'" in misspelled.output
    missing = run("dpsi", "B2", "1/2,1/2", "--bound")
    assert missing.exit_code == 2 and "requires an argument" in missing.output


def test_window_is_accepted_and_ignored():
    plain = run("dpsi", "A2", "1,0,0", "--bound", "2", "--format", "json")
    windowed = run("dpsi", "A2", "1,0,0", "--bound", "2", "--window", "0", "--format", "json")
    assert windowed.exit_code == 0 and windowed.output == plain.output
    assert json.loads(windowed.output)["dpsi"]["status"] == "certified"
    assert run("index", "B2", "1/2,1/2", "--window", "-1").exit_code == 0
    assert run("premet", "3", "--window", "1").exit_code == 0
    assert "--window" not in run("dpsi", "--help").output


def test_error_text_prints_rationals():
    result = run("index", "C2", "1/2,1/2")
    assert result.exit_code == 2
    assert "(1/2,1/2) is not in the weight lattice of C2" in result.output


def test_dpsi_tsv_and_pretty():
    result = run("dpsi", "B2", "1/2,1/2", "--format", "tsv")
    lines = result.output.strip().splitlines()
    assert lines[0] == "root_system\tclass_rep\tvalue\tstatus\tbound_used"
    assert lines[1].startswith("B2\t1/2,1/2\t4\tcertified")
    result = run("dpsi", "B2", "1/2,1/2")
    assert "value = 4 (certified" in result.output


# -- integral ----------------------------------------------------------------------


def test_integral_subsystem_command():
    payload = run_json("integral", "B2", "1/3,0")
    assert payload["dim"] == 4
    assert payload["type"] == "A1"
    assert payload["positive_roots"] == [["0", "1"]]
    result = run("integral", "C3", "fw:[1,0,0]", "--format", "tsv")
    assert result.exit_code == 0
    assert result.output.splitlines()[0].startswith("root_system\tweight\tdim")


# -- orbit --------------------------------------------------------------------------


def test_orbit_command():
    payload = run_json("orbit", "sp", "2^4")
    assert payload["partition"] == [2, 2, 2, 2]
    assert payload["N"] == 8
    assert payload["h"] == ["1", "-1", "1", "-1"]
    assert payload["is_even"] is True
    assert payload["centralizer_dim"] == 16
    assert payload["reductive_factors"] == [["O", 4]]
    assert payload["component_group_order"] == 2
    assert payload["grading"] == [[-2, 10], [0, 16], [2, 10]]


def test_orbit_command_so():
    payload = run_json("orbit", "so", "3,1,1")
    assert payload["centralizer_dim"] == 4
    assert payload["reductive_factors"] == [["O", 1], ["O", 2]]
    assert payload["component_group_order"] == 4


def test_orbit_rejects_invalid_partition():
    assert run("orbit", "sp", "3,1").exit_code == 2
    assert run("orbit", "so", "2,2,2,1").exit_code == 2
    assert run("orbit", "sp", "2^x").exit_code == 2


# -- delta --------------------------------------------------------------------------


def test_delta_command():
    payload = run_json("delta", "sp", "2^5")
    assert payload["delta"] == ["-5", "0", "-4", "1", "-2"]
    assert payload["delta_restricted"] == ["-5", "-3"]
    assert payload["rho_zero_restricted"] == ["4", "2"]
    assert payload["even_identity"] is True
    assert payload["nu"] == ["2", "1"]


def test_delta_command_custom_nu():
    payload = run_json("delta", "sp", "2^4", "--nu", "7/2,1/2")
    assert payload["even_identity"] is True
    assert run("delta", "sp", "2^4", "--nu", "1,1").exit_code == 2
    assert run("delta", "sp", "2^4", "--nu", "1,oops").exit_code == 2


def test_delta_unsupported_orbit():
    assert run("delta", "sp", "4,2").exit_code == 2
    assert run("delta", "so", "3,1,1").exit_code == 2


# -- premet -------------------------------------------------------------------------


def test_premet_json_roundtrip():
    result = run("premet", "5", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["g"] == "C5"
    assert payload["q"] == "B2"
    assert payload["dim_v"] == "4"
    assert payload["d_v"]["value"] == "4"
    assert payload["d_v"]["status"] == "certified"
    assert payload["grk_bound"] == "1"
    assert payload["ideal_codim"] == "16"
    assert [v["check"] for v in payload["verdicts"]][:2] == [
        "integral subsystem dimension",
        "integral subsystem type",
    ]
    assert all(v["passed"] for v in payload["verdicts"])
    assert canonical_json(payload) == result.output.rstrip("\n")


def test_premet_pretty_mentions_bound():
    result = run("premet", "3")
    assert result.exit_code == 0
    assert "Grk <= 1" in result.output
    assert "d(psi) = 2" in result.output


def test_premet_rejects_small_n():
    assert run("premet", "2").exit_code == 2


# -- table premet ---------------------------------------------------------------------


def test_table_premet_tsv():
    result = run("table", "premet", "--from", "3", "--to", "6", "--format", "tsv")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == (
        "n\tg\tq\tomega\tdim_v\td_v\td_v_status\tgrk_bound\ta_orbit_size\tideal_codim"
    )
    rows = [line.split("\t") for line in lines[1:]]
    assert [r[0] for r in rows] == ["3", "4", "5", "6"]
    assert [r[2] for r in rows] == ["A1", "A1xA1", "B2", "D3"]
    assert [r[-1] for r in rows] == ["4", "8", "16", "32"]


def test_table_premet_json():
    result = run("table", "premet", "--from", "3", "--to", "4", "--format", "json")
    payload = json.loads(result.output)
    assert [entry["n"] for entry in payload] == [3, 4]
    assert canonical_json(payload) == result.output.rstrip("\n")


def test_table_premet_validates_range():
    assert run("table", "premet", "--from", "2", "--to", "4").exit_code == 2
    assert run("table", "premet", "--from", "5", "--to", "4").exit_code == 2


# -- usage errors ----------------------------------------------------------------------


def test_usage_errors_exit_2():
    assert run("dim", "B2").exit_code == 2  # missing argument
    assert run("orbit", "su", "2,2").exit_code == 2  # bad family choice
    assert run("table", "premet", "--from", "3").exit_code == 2  # missing --to
