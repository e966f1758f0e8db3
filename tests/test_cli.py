"""Command-line front end: scenarios, exit codes, sweeps, decode."""

import json
import os

import pytest

from prefixsim import cli, wire
from prefixsim.scenario import ADVERSARIES, ScenarioError, load_scenario, run_scenario, validate
from prefixsim.simnet import SimulationError

SCENARIOS = os.path.join(os.path.dirname(cli.__file__), "scenarios")


def scenario_path(name):
    return os.path.join(SCENARIOS, name)


def test_shipped_faultfree_scenario_metrics(tmp_path, capsys):
    rc = cli.main([
        "--quiet", "run", "--scenario", scenario_path("pc3_faultfree_n4.json"),
        "--out", str(tmp_path),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert doc["outputs"]["0"]["low"]["time"] == "3"
    assert doc["network_messages"] == 36
    assert (tmp_path / "transcript.log").read_text()


def test_shipped_censor_scenario_passes(tmp_path):
    rc = cli.main([
        "--quiet", "run", "--scenario", scenario_path("msc_censor_f1.json"),
        "--out", str(tmp_path),
    ])
    assert rc == 0
    commits = (tmp_path / "commits.log").read_text().splitlines()
    # slot, index, origin, digest records for every committed payload
    assert commits and all(len(line.split("\t")) == 4 for line in commits)


def test_resilience_bound_rejected(tmp_path):
    bad = {"version": 1, "protocol": "pc3", "n": 3, "f": 1, "L": 3}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc = cli.main(["--quiet", "run", "--scenario", str(path)])
    assert rc == 2


def test_schema_error_names_field(tmp_path, capsys):
    bad = {"version": 1, "protocol": "nope", "n": 4, "f": 1, "L": 4}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc = cli.main(["run", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "protocol" in captured.err


def test_validate_collects_paths():
    errors = validate({"version": 1, "protocol": "msc", "n": 4, "f": 1, "slots": 0})
    assert any(path == "slots" for path, _ in errors)
    errors = validate({
        "version": 1, "protocol": "pc3", "n": 4, "f": 1, "L": 4,
        "adversary": {"kind": "silent", "byzantine": [0, 1]},
    })
    assert any(path == "adversary.byzantine" for path, _ in errors)


MSC_CENSOR = {"version": 1, "protocol": "msc", "n": 4, "f": 1, "slots": 2, "gst": 12, "delta_cap": 2,
              "adversary": {"kind": "censor", "reveal": {"2": [0]}, "lag_victims": [1, 3], "lag": 6}}
SPC = {"version": 1, "protocol": "spc", "n": 4, "f": 1, "L": 4}
PC3 = {"protocol": "pc3", "L": 4}


def _adversary_errors(base, **fields):
    scn = {**base, "adversary": {**base.get("adversary", {}), **fields}}
    return [(path, msg) for path, msg in validate(scn) if path.startswith("adversary.")]


def test_adversary_lag_must_be_a_non_negative_int():
    # A fractional lag used to finish with a float end_time.
    for lag in (0.5, -1, "6", None):
        assert _adversary_errors(MSC_CENSOR, lag=lag) == [
            ("adversary.lag", "non-negative integer required")], lag
    assert _adversary_errors(MSC_CENSOR, lag=0) == []


def test_adversary_round_len_must_be_a_positive_int():
    # A fractional round length used to finish with a float end_time.
    for kind in ("suspender", "censor", "fuzz"):
        for round_len in (0.5, 0, "1", None):
            assert _adversary_errors(SPC, kind=kind, round_len=round_len) == [
                ("adversary.round_len", "positive integer required")], (kind, round_len)
        assert _adversary_errors(SPC, kind=kind, round_len=2) == []


def test_adversary_stretch_must_be_a_positive_int():
    # "3" used to raise TypeError, and a delayer stretch of 0 SimulationError.
    for kind, stretch in (("fuzz", "3"), ("fuzz", 2.5), ("delayer", 0)):
        assert _adversary_errors(SPC, kind=kind, stretch=stretch) == [
            ("adversary.stretch", "positive integer required")], (kind, stretch)
    assert _adversary_errors(SPC, kind="delayer", stretch=3, links=[[0, 1]]) == []


def test_adversary_jitter_must_be_a_positive_int():
    for jitter in ("3", 0, 1.5):
        assert _adversary_errors(SPC, kind="silent", byzantine=[0], jitter=jitter) == [
            ("adversary.jitter", "positive integer required")], jitter
    assert _adversary_errors(SPC, kind="silent", byzantine=[0], jitter=4) == []


@pytest.mark.parametrize("fields, path", [
    ({"adversary": {"kind": "censor", "reveal": {"x": [0]}}}, "adversary.reveal"),
    ({"adversary": {"kind": "silent", "byzantine": [[1]]}}, "adversary.byzantine"),
    ({"adversary": {"kind": "silent", "byzantine": 5}}, "adversary.byzantine"),
    ({"rank0": 5}, "rank0"),
    ({"rank0": ["a", 1, 2, 3]}, "rank0"),
    ({"adversary": {**MSC_CENSOR["adversary"], "lag_victims": 5}}, "adversary.lag_victims"),
    ({"adversary": {**MSC_CENSOR["adversary"], "lag_victims": [[1]]}}, "adversary.lag_victims"),
    ({"adversary": {"kind": "delayer", "links": 5}}, "adversary.links"),
    ({"adversary": {"kind": "delayer", "links": [[0, [1]]]}}, "adversary.links"),
    ({"adversary": {"kind": "split_view", "byzantine": [0], "view": "x"}}, "adversary.view"),
    ({"seed": "x"}, "seed"),
    ({"inputs": 5}, "inputs"),
    ({"inputs": {"kind": "explicit", "payloads": 5}}, "inputs.payloads"),
    ({**PC3, "inputs": {"kind": "explicit"}}, "inputs.vectors"),
    ({**PC3, "inputs": {"kind": "explicit", "vectors": [["a"] * 4] * 3}}, "inputs.vectors"),
    ({**PC3, "protocol": "spc", "inputs": {"kind": "explicit", "vectors": [["a"] * 3] * 4}}, "inputs.vectors"),
    ({**PC3, "inputs": {"alphabet": 0}}, "inputs.alphabet"),
    ({**PC3, "inputs": {"alphabet": 300}}, "inputs.alphabet"),
    ({**PC3, "inputs": {"seed": [1]}}, "inputs.seed"),
    ({**PC3, "inputs": {"kind": "unanimous", "value": 5}}, "inputs.value"),
    ({**PC3, "L": 300, "inputs": {"kind": "unanimous"}}, "L"),
    ({"protocol": "graded", "inputs": {"kind": "explicit", "values": ["a"] * 3}}, "inputs.values"),
    ({"protocol": "binary", "inputs": {"kind": "explicit", "bits": [1, 0, 1, "x"]}}, "inputs.bits"),
    ({"adversry": {"kind": "silent", "byzantine": [0]}}, "adversry"),
    ({"inputs": {"kind": "random", "alfabet": 3}}, "inputs.alfabet"),
], ids=["reveal-key", "byzantine-nested", "byzantine-int", "rank0-int", "rank0-mixed",
        "lag-victims-int", "lag-victims-nested", "links-int", "links-nested", "view-str",
        "seed-str", "inputs-int", "payloads-int", "vectors-missing", "vectors-too-few",
        "vectors-too-short", "alphabet-0", "alphabet-300", "inputs-seed-list", "unanimous-int",
        "unanimous-L-300",
        "graded-too-few", "bits-str", "adversary-misspelt", "inputs-field-misspelt"])
def test_malformed_party_sets_are_schema_errors(tmp_path, capsys, fields, path):
    scn = {**MSC_CENSOR, **fields}
    assert [p for p, _ in validate(scn)] == [path]
    scn_path = tmp_path / "bad.json"
    scn_path.write_text(json.dumps(scn))
    assert cli.main(["run", "--scenario", str(scn_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err


def test_cli_determinism_same_artifacts(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = cli.main([
            "--quiet", "run", "--scenario", scenario_path("spc_splitview_n4.json"),
            "--out", str(out),
        ])
        assert rc == 0
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
    assert (out1 / "transcript.log").read_bytes() == (out2 / "transcript.log").read_bytes()


def test_sweep_reports_exponents(tmp_path):
    rc = cli.main([
        "--quiet", "sweep", "--scenario", scenario_path("sweep_pc3.json"),
        "--ns", "4,7", "--out", str(tmp_path),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["messages"] == 36


def test_sweep_validates_the_sizes_it_runs(tmp_path):
    # Each size runs with L = n, so the template's own L is never used:
    # 300 used to fail validation under unanimous inputs (exit 2).
    scn = load_scenario(scenario_path("sweep_pc3.json"))
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({**scn, "L": 300, "inputs": {"kind": "unanimous"}}))
    assert cli.main(["--quiet", "sweep", "--scenario", str(path), "--ns", "4,7"]) == 0


def test_sweep_takes_f_from_the_protocol_bound(tmp_path, capsys):
    # pc_5f1 needs n >= 5f+1; with the f of n >= 3f+1, n=11 ran f=3 and exited 2.
    fast = load_scenario(scenario_path("pc_5f1_faultfree_n6.json"))
    assert [cli.sweep_scenario(fast, n)["f"] for n in (6, 11, 16)] == [1, 2, 3]
    assert cli.main(["--quiet", "sweep", "--scenario", scenario_path("pc_5f1_faultfree_n6.json"),
                     "--ns", "6,11"]) == 0
    pc3 = load_scenario(scenario_path("sweep_pc3.json"))
    assert [cli.sweep_scenario(pc3, n)["f"] for n in (4, 7, 10, 11)] == [1, 2, 3, 3]
    # A protocol with no row still reaches validate's protocol error.
    for protocol in ("nope", ["pc3"]):
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps({**pc3, "protocol": protocol}))
        assert cli.main(["--quiet", "sweep", "--scenario", str(path), "--ns", "4,7"]) == 2
        err = capsys.readouterr().err
        assert "scenario.protocol: one of" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["graded_faultfree_n4.json", "binary_mixed_n4.json",
                                  "validated_faultfree_n4.json"])
def test_byte_accounting_covers_derived_protocols(name):
    scn = load_scenario(scenario_path(name))
    assert run_scenario({**scn, "measure_bytes": True}).metrics.bytes_total > 0


def test_sweep_of_a_graded_template(tmp_path):
    rc = cli.main([
        "--quiet", "sweep", "--scenario", scenario_path("graded_faultfree_n4.json"),
        "--ns", "4,7", "--out", str(tmp_path),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert [row["bytes"] for row in doc["rows"]] == [10572, 77070]


@pytest.mark.parametrize("ns, inputs, where", [
    ("4", None, "--ns"),
    ("4,x", None, "--ns"),
    ("4,7", {"kind": "explicit", "vectors": [["a"] * 4] * 4}, "inputs.vectors"),
], ids=["one-size", "non-integer", "inputs-for-n4-only"])
def test_sweep_rejects_bad_sizes(tmp_path, capsys, ns, inputs, where):
    scn = load_scenario(scenario_path("sweep_pc3.json"))
    if inputs is not None:
        scn["inputs"] = inputs
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(scn))
    try:
        rc = cli.main(["--quiet", "sweep", "--scenario", str(path), "--ns", ns])
    except SystemExit as exc:  # argparse's usage error
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


def test_check_suite_passes():
    assert cli.main(["--quiet", "check", "pc", "--n", "4", "--runs", "9"]) == 0
    assert cli.main(["--quiet", "check", "equivalence", "--n", "4", "--runs", "5"]) == 0


@pytest.mark.parametrize("suite", ["pc", "spc", "msc", "fuzz", "leaderless", "determinism"])
def test_every_scenario_suite_passes(capsys, suite):
    assert cli.main(["check", suite, "--runs", "4"]) == 0
    assert capsys.readouterr().out == f"PASS {suite}: 4 runs, no violations\n"


@pytest.mark.parametrize("args, where", [
    (["pc", "--n", "5"], "available n: 4, 6, 7"),
    (["leaderless", "--n", "10"], "available n: 4, 7"),
    (["equivalence", "--n", "0"], "n, L must be positive"),
], ids=["pc-n5", "leaderless-n10", "equivalence-n0"])
def test_check_of_a_size_no_suite_has_is_exit_2(capsys, args, where):
    assert cli.main(["check", *args]) == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_check_runs_below_one_is_a_usage_error(capsys, runs):
    # Used to print "PASS equivalence: 0 runs".
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "equivalence", "--runs", runs])
    assert exc.value.code == 2 and "argument --runs: at least 1 required" in capsys.readouterr().err


def test_none_adversary_honours_its_byzantine_list():
    result = run_scenario({"version": 1, "protocol": "pc3", "n": 4, "f": 1, "L": 4,
                           "adversary": {"kind": "none", "byzantine": [3]}})
    assert result.sim.adversary.byzantine == {3}
    assert result.honest == [0, 1, 2]


@pytest.mark.parametrize("kind", ADVERSARIES)
def test_more_than_f_byzantine_parties_is_a_schema_error(tmp_path, capsys, kind):
    # none, fuzz and delayer used to pass, run with one honest party and
    # report protocol violations (exit 3).  censor and withhold_body name
    # their parties by the keys of reveal.  Under suspension (a round_len,
    # which the suspender has by default) one honest party at a time is
    # suspended, so every kind may have f - 1.
    if kind in ("censor", "withhold_body"):
        parties, one = {"reveal": {"0": [1], "1": [2], "2": [3]}}, {"reveal": {"0": [1]}}
    else:
        parties, one = {"byzantine": [0, 1, 2]}, {"byzantine": [0]}
    where = f"adversary.{next(iter(parties))}"
    scn = {"version": 1, "protocol": "pc3", "n": 4, "f": 1, "L": 4, "adversary": {"kind": kind, **parties}}
    limit = 0 if kind == "suspender" else 1
    assert validate(scn) == [(where, f"at most {limit} byzantine parties for {kind}")]
    f_parties = {**scn, "adversary": {"kind": kind, **one}}
    assert validate(f_parties) == ([] if limit else [(where, f"at most 0 byzantine parties for {kind}")])
    suspended = {**scn, "adversary": {"kind": kind, **one, "round_len": 2}}
    assert validate(suspended) == [(where, f"at most 0 byzantine parties for {kind}")]
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    assert cli.main(["--quiet", "run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("kind", ADVERSARIES)
def test_party_ids_out_of_range_are_a_schema_error(kind):
    # Reported at the field that names the parties: reveal for censor and
    # withhold_body (it used to be adversary.byzantine, a field they lack).
    parties = {"reveal": {"9": [1]}} if kind in ("censor", "withhold_body") else {"byzantine": [9]}
    scn = {"version": 1, "protocol": "pc3", "n": 7, "f": 2, "L": 4, "adversary": {"kind": kind, **parties}}
    where = f"adversary.{next(iter(parties))}"
    assert validate(scn) == [(where, "party ids out of range")]


@pytest.mark.parametrize("args, seed, codec", [
    (["--seed", "5"], 5, "plain"),
    (["--codec", "plain"], 7, "plain"),
    (["--codec", "compact", "--seed", "2"], 2, "compact"),
], ids=["seed", "codec-plain", "codec-compact"])
def test_run_overrides_seed_and_codec(tmp_path, args, seed, codec):
    rc = cli.main(["--quiet", "run", "--scenario", scenario_path("pc3_faultfree_n4.json"),
                   "--out", str(tmp_path), *args])
    assert rc == 0
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert (doc["seed"], doc["codec"]) == (seed, codec)
    # --codec turns on byte accounting; the file leaves it off.
    assert (doc["bytes_total"] > 0) == ("--codec" in args)


def test_simulation_error_is_exit_3(monkeypatch, capsys):
    def abort(scn, record=False):
        raise SimulationError("event budget exceeded (runaway protocol?)")

    monkeypatch.setattr(cli, "run_scenario", abort)
    assert cli.main(["--quiet", "run", "--scenario", scenario_path("pc3_faultfree_n4.json")]) == 3
    assert capsys.readouterr().err == "simulation aborted: event budget exceeded (runaway protocol?)\n"


def test_decode_roundtrip(capsys):
    scn = load_scenario(scenario_path("pc3_faultfree_n4.json"))
    result = run_scenario(scn)
    proof = result.metrics.outputs[0]["low"][1]
    blob = wire.encode(proof)
    rc = cli.main(["decode", "--hex", blob.hex()])
    captured = capsys.readouterr()
    assert rc == 0
    assert "QC" in captured.out and "00000000" in captured.out
    assert cli.main(["decode", "--hex", "00ff"]) == 2


@pytest.mark.parametrize("args", [["--hex", "zz"], ["--file", "missing.bin"]], ids=["bad-hex", "missing-file"])
def test_decode_of_unreadable_input_is_exit_2(tmp_path, capsys, args):
    if args[0] == "--file":
        args = ["--file", str(tmp_path / args[1])]
    assert cli.main(["decode", *args]) == 2
    err = capsys.readouterr().err
    assert "unreadable" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [[], ["--seed", "3"], ["--codec", "plain"], ["sweep"]],
                         ids=["run", "run-seed", "run-codec", "sweep"])
def test_scenario_file_that_is_not_an_object_is_exit_2(tmp_path, capsys, args):
    # Each used to end in a TypeError traceback.
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    if args == ["sweep"]:
        argv = ["sweep", "--scenario", str(path), "--ns", "4,7"]
    else:
        argv = ["run", "--scenario", str(path), *args]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "scenario: scenario must be an object\n"
    with pytest.raises(ScenarioError, match="scenario must be an object"):
        run_scenario([1, 2])


def test_equivalence_runs_every_variant(capsys):
    assert cli.main(["check", "equivalence", "--n", "7", "--runs", "2"]) == 0
    assert capsys.readouterr().out == "PASS equivalence: 6 runs, no violations\n"


def test_censorship_message_names_what_it_compares(tmp_path, capsys):
    # The suspender finding of ROADMAP item 1: the count is compared with
    # the Byzantine parties (none here), not with f.
    scn = {"version": 1, "protocol": "msc", "n": 4, "f": 1, "slots": 2, "gst": 0, "delta": 1, "delta_cap": 1,
           "adversary": {"kind": "suspender", "round_len": 1}}
    path = tmp_path / "suspender.json"
    path.write_text(json.dumps(scn))
    assert cli.main(["--quiet", "run", "--scenario", str(path)]) == 3
    assert "censorship: 1 censored slots exceed the 0 Byzantine parties" in capsys.readouterr().err
