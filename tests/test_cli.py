import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wclass_sim import cli, montecarlo
from wclass_sim.cli import main, parse_args
from wclass_sim.errors import UsageError

from test_golden import CASES, GOLDEN, JSON_CASES


def test_parse_w_state_flags():
    spec = parse_args(
        ["w-state", "--n", "3", "--eta", "0", "--pe", "0.01", "--trials", "1000",
         "--seed", "42"]
    )
    assert spec.command == "w-state"
    assert spec.config.n == 3
    assert spec.config.p_e == 0.01
    assert spec.config.seed == 42
    assert spec.trials == 1000


def test_parse_negative_numbers_in_scientific_notation():
    alpha = repr(math.sqrt(1.0 - 3.7e-05**2))
    spec = parse_args(
        ["teleport", "--alpha-re", alpha, "--beta-re", "-3.7e-05", "--beta-im", "-0.0",
         "--seed", "1"]
    )
    assert spec.teleport.beta == complex(-3.7e-05, 0.0)
    spec = parse_args(["w-state", "--n", "3", "--eta", "1E-2", "--seed", "-5"])
    assert spec.config.eta == 0.01 and spec.config.seed == -5
    with pytest.raises(UsageError):
        parse_args(["teleport", "--beta-re", "-x", "--seed", "1"])


def test_parse_rejects_small_n_for_w_state():
    with pytest.raises(UsageError):
        parse_args(["w-state", "--n", "2", "--seed", "1"])


def test_parse_scaling_sweep():
    spec = parse_args(
        ["scaling-sweep", "--n-min", "3", "--n-max", "5", "--eta", "0.3",
         "--pe", "0.01", "--trials", "1000", "--seed", "7"]
    )
    assert (spec.n_min, spec.n_max) == (3, 5)
    assert spec.config.eta == 0.3


def test_parse_requires_seed():
    with pytest.raises(UsageError):
        parse_args(["w-state", "--n", "3"])


def test_parse_seed_auto_draws_and_embeds():
    spec = parse_args(["w-state", "--n", "3", "--seed", "auto"])
    assert spec.seed_was_auto
    assert isinstance(spec.config.seed, int)


def test_parse_rejects_unknown_flags():
    with pytest.raises(UsageError):
        parse_args(["w-state", "--seed", "1", "--bogus", "2"])


def test_parse_csv_only_for_sweep():
    with pytest.raises(UsageError):
        parse_args(["w-state", "--seed", "1", "--format", "csv-summary"])


# key -> (command, config file, flags, what the spec holds); the flags win
FLAG_OVERRIDES = {
    "n": ("w-state", {"n": 4}, ["--n", "5"], lambda s: s.config.n, 5),
    "p_e": ("w-state", {"p_e": 0.02}, ["--pe", "0.03"], lambda s: s.config.p_e, 0.03),
    "eta": ("w-state", {"eta": 0.25}, ["--eta", "0.1"], lambda s: s.config.eta, 0.1),
    "phases": ("w-state", {"phases": [0, 0.1, 0.2]}, ["--phases", "0,0.3,-0.4"],
               lambda s: s.config.phases, (0.0, 0.3, -0.4)),
    "n_a": ("w-state", {"n_a": 100}, ["--na", "200"], lambda s: s.config.n_a, 200.0),
    "finite_size": ("w-state", {"n_a": 100, "finite_size": False}, ["--finite-size"],
                    lambda s: s.config.finite_size, True),
    "t0": ("w-state", {"t0": 2e-6}, ["--t0", "3e-6"], lambda s: s.config.t0, 3e-6),
    "truncation_cap": ("w-state", {"truncation_cap": 3}, ["--cap", "5"],
                       lambda s: s.config.truncation_cap, 5),
    "max_attempts": ("w-state", {"max_attempts": 10}, ["--max-attempts", "20"],
                     lambda s: s.config.max_attempts, 20),
    "seed": ("w-state", {"seed": 9}, ["--seed", "10"], lambda s: s.config.seed, 10),
    "second_order_pump": ("w-state", {"second_order_pump": True}, ["--no-double-pair"],
                          lambda s: s.config.second_order_pump, False),
    "trials": ("w-state", {"trials": 50}, ["--trials", "60"], lambda s: s.trials, 60),
    # each component flag replaces one part of the file's [re, im]
    "alpha": ("teleport", {"alpha": [0.6, 0.8]}, ["--alpha-im", "-0.8"],
              lambda s: s.teleport.alpha, complex(0.6, -0.8)),
    "beta": ("teleport", {"alpha": [0.6, 0.0], "beta": [0.0, 0.8]}, ["--beta-im", "-0.8"],
             lambda s: s.teleport.beta, complex(0.0, -0.8)),
    "n_min": ("scaling-sweep", {"n_min": 3}, ["--n-min", "4"], lambda s: s.n_min, 4),
    "n_max": ("scaling-sweep", {"n_max": 5}, ["--n-max", "4"], lambda s: s.n_max, 4),
    "format": ("scaling-sweep", {"format": "json"}, ["--format", "csv-summary"],
               lambda s: s.fmt, "csv-summary"),
}


@pytest.mark.parametrize("key", sorted(FLAG_OVERRIDES))
def test_config_file_with_flag_override(tmp_path, key):
    command, content, flags, got, want = FLAG_OVERRIDES[key]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 9, **content}))
    spec = parse_args([command, "--config", str(cfg_path), *flags])
    assert got(spec) == want  # flag wins
    spec = parse_args([command, "--config", str(cfg_path)])
    file_value = content[key]
    if key in ("alpha", "beta"):
        file_value = complex(*file_value)
    elif key == "phases":
        file_value = tuple(file_value)
    assert got(spec) == file_value  # the file's value without the flag


def test_flag_override_cases_cover_every_config_key():
    assert sorted(FLAG_OVERRIDES) == sorted(cli._CONVERT) == sorted(cli._DEFAULTS)


def test_every_flag_stores_to_its_config_file_key(tmp_path):
    # a flag is named for the user; its dest is the key a config file and
    # the report's echo use, so one table serves both
    not_keys = {"command", "config", "workers", "output",
                "alpha_re", "alpha_im", "beta_re", "beta_im"}
    _, commands = cli._parsers()
    dests = {
        action.dest
        for sub in commands.values()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict.fromkeys(sorted(dests - not_keys))))
    cli._load_config_file(str(cfg_path))  # raises on a key it does not take


# one argv per command, beyond the golden cases: the flags only one command takes
DISPATCH_ARGVS = [
    ["epr", "--n", "2", "--seed", "3", "--pe", "0.02"],
    ["w-state", "--n", "4", "--na", "50", "--finite-size", "--t0", "2e-6", "--cap", "5",
     "--max-attempts", "90", "--trials", "7", "--seed", "-5", "--workers", "2"],
    ["teleport", "--alpha-re=-3.7e-05", "--alpha-im", "0", "--beta-re",
     repr(math.sqrt(1.0 - 3.7e-05**2)), "--beta-im", "-0.0", "--seed", "8", "-o", "out.json"],
    ["scaling-sweep", "--n-min", "4", "--n-max", "6", "--format", "csv-summary",
     "--seed", "9"],
]


@pytest.mark.parametrize(
    "argv", [argv for argv, _ in CASES.values()] + DISPATCH_ARGVS,
    ids=[*CASES, *(argv[0] for argv in DISPATCH_ARGVS)],
)
def test_parsing_by_command_matches_the_top_level_parser(argv, monkeypatch):
    # the named command's parser alone gives the spec the top-level parser,
    # which passes everything after the command on to it, gives
    by_command = parse_args(argv)
    top, _ = cli._parsers()
    monkeypatch.setattr(cli, "_parsers", lambda: (top, {}))
    assert parse_args(argv) == by_command


@pytest.mark.parametrize("argv, code, message", [
    ([], 2, "usage error: the following arguments are required: command\n"),
    (["-h"], 0, ""),
    (["bogus"], 2, "usage error: argument command: invalid choice: 'bogus' (choose from "
                   "'epr', 'w-state', 'teleport', 'scaling-sweep')\n"),
    (["--n", "3", "w-state", "--seed", "1"], 2,
     "usage error: argument command: invalid choice: '3' (choose from "
     "'epr', 'w-state', 'teleport', 'scaling-sweep')\n"),
])
def test_argv_without_a_leading_command_goes_to_the_top_level_parser(
    argv, code, message, capsys
):
    try:
        got = main(argv)
    except SystemExit as exc:  # -h prints the usage and exits
        got = exc.code
    out, err = capsys.readouterr()
    assert (got, err) == (code, message)
    assert out.startswith("usage: wclass-sim") == (argv == ["-h"])


def test_usage_error_exit_code_and_no_report(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = main(["w-state", "--n", "2", "--seed", "1", "-o", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("n_a", ["1", "-5"])
def test_finite_size_below_two_atoms_is_a_usage_error(tmp_path, n_a):
    out = tmp_path / "never.json"
    argv = ["w-state", "--na", n_a, "--finite-size", "--seed", "1", "--trials", "2",
            "--workers", "1", "-o", str(out)]
    assert main(argv) == 2
    assert not out.exists()


def test_io_error_exit_code(tmp_path):
    code = main(
        ["w-state", "--n", "3", "--pe", "0.05", "--trials", "2", "--seed", "1",
         "-o", str(tmp_path / "no-such-dir" / "r.json")]
    )
    assert code == 3


def test_insufficient_data_exit_code(tmp_path):
    code = main(
        ["w-state", "--n", "3", "--pe", "0.001", "--max-attempts", "20",
         "--trials", "5", "--seed", "1", "-o", str(tmp_path / "r.json")]
    )
    assert code == 1


def test_epr_command_reports_high_fidelity(tmp_path):
    out = tmp_path / "epr.json"
    code = main(
        ["epr", "--n", "2", "--eta", "0", "--pe", "0.005", "--trials", "500",
         "--seed", "4", "-o", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 4
    assert doc["command"] == "epr"
    assert doc["config"]["seed"] == 4
    assert doc["results"]["fidelity_mean"] >= 0.99


def test_teleport_command_holder_split(tmp_path):
    out = tmp_path / "tele.json"
    code = main(
        ["teleport", "--alpha-re", "0.6", "--beta-re", "0.8", "--pe", "0.05",
         "--trials", "60", "--seed", "11", "-o", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    frac = doc["results"]["holder_this_fraction"]
    n = doc["results"]["successes"]
    se = math.sqrt(0.25 / n)
    assert abs(frac - 0.5) < 4 * se


def test_strong_pump_warns_outside_the_weak_pump_regime(tmp_path):
    # p_e above 0.1: the truncated pump expansion loses accuracy, and the
    # command says so; the table is built afresh so that its rounds run
    from wclass_sim.montecarlo import _chain_engine

    _chain_engine.cache_clear()
    argv = ["w-state", "--n", "3", "--pe", "0.2", "--eta", "0.1", "--trials", "5",
            "--seed", "1", "--workers", "1", "-o", str(tmp_path / "r.json")]
    with pytest.warns(UserWarning, match="outside the weak-pump regime") as caught:
        assert main(argv) == 0
    assert str(caught[0].message) == (
        "emission_prob=0.2 is outside the weak-pump regime; "
        "the truncated expansion loses accuracy"
    )


def test_report_rerun_is_byte_identical(tmp_path):
    args = ["w-state", "--n", "3", "--pe", "0.02", "--eta", "0.2",
            "--trials", "40", "--seed", "123"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["-o", str(p1)]) == 0
    assert main(args + ["-o", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_report_independent_of_workers(tmp_path, monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK", 8)  # so the two workers split 60 trials
    base = ["w-state", "--n", "3", "--pe", "0.02", "--trials", "60", "--seed", "5"]
    p1, p2 = tmp_path / "w1.json", tmp_path / "w2.json"
    assert main(base + ["--workers", "1", "-o", str(p1)]) == 0
    assert main(base + ["--workers", "2", "-o", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def _reports_at_workers(tmp_path, argv, workers):
    """The report bytes of ``argv`` run at each worker count."""
    out = []
    for w in workers:
        path = tmp_path / f"w{w}.json"
        assert main([*argv, "--workers", str(w), "-o", str(path)]) == 0
        out.append(path.read_bytes())
    return out


def test_multi_block_reports_independent_of_workers(tmp_path, monkeypatch):
    # two blocks and part of a third, split at block boundaries; as many
    # cpus as workers, so none is clamped away
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    trials = 2 * montecarlo._BLOCK + 37
    argv = ["w-state", "--n", "3", "--pe", "0.02", "--eta", "0.1",
            "--trials", str(trials), "--seed", "8"]
    one, two, three = _reports_at_workers(tmp_path, argv, (1, 2, 3))
    assert one == two == three


def test_multi_block_teleport_reports_independent_of_workers(tmp_path, monkeypatch):
    # blocks of 2 trials, so 5 trials span three; forked workers inherit it
    monkeypatch.setattr(montecarlo, "_BLOCK", 2)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    argv = ["teleport", "--alpha-re", "0.6", "--beta-re", "0.8", "--pe", "0.05",
            "--eta", "0.1", "--trials", "5", "--seed", "4"]
    one, two, three = _reports_at_workers(tmp_path, argv, (1, 2, 3))
    assert one == two == three


def test_sweep_json_round_trip_and_csv_columns(tmp_path):
    args = ["scaling-sweep", "--n-min", "3", "--n-max", "4", "--pe", "0.03",
            "--eta", "0.2", "--trials", "60", "--seed", "2"]
    jpath = tmp_path / "sweep.json"
    assert main(args + ["-o", str(jpath)]) == 0
    doc = json.loads(jpath.read_text())
    rows = doc["results"]["sweep"]
    assert [row["n"] for row in rows] == [3, 4]
    assert rows[0]["ratio_to_prev"] is None
    assert rows[1]["ratio_to_prev"] == pytest.approx(
        rows[1]["mean_time_s"] / rows[0]["mean_time_s"]
    )
    cpath = tmp_path / "sweep.csv"
    assert main(args + ["--format", "csv-summary", "-o", str(cpath)]) == 0
    lines = cpath.read_text().splitlines()
    assert lines[0] == "n,p_c_hat,mean_time_s,predicted_time_s,ratio_to_prev,c_n_hat,fidelity_mean"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "3"


def test_workers_default_to_one():
    argv = ["w-state", "--n", "3", "--seed", "1"]
    assert parse_args(argv).workers == 1
    with pytest.raises(UsageError):
        parse_args(argv + ["--workers", "0"])


def test_one_worker_run_never_imports_multiprocessing(tmp_path):
    argv = ["w-state", "--n", "3", "--pe", "0.02", "--trials", "20", "--seed", "5",
            "--workers", "1", "-o", str(tmp_path / "w.json")]
    code = (
        "import sys\n"
        "from wclass_sim.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])]
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert json.loads((tmp_path / "w.json").read_text())["command"] == "w-state"


def test_report_written_to_stdout_by_default(capsys):
    code = main(["epr", "--n", "2", "--pe", "0.01", "--trials", "5", "--seed", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "epr"


def test_parser_reuse_keeps_reports_byte_identical(tmp_path, capsys):
    # one parser serves every call in a process: a usage error or another
    # command's flags must not leak into the next parse
    argv = CASES["w4_cap3_finite"][0]
    first, between, again = (tmp_path / f"{k}.json" for k in ("first", "w3", "again"))
    assert main([*argv, "-o", str(first)]) == 0
    assert main(["w-state", "--n", "x", "--seed", "1"]) == 2
    assert "usage error" in capsys.readouterr().err
    assert main([*CASES["w3"][0], "-o", str(between)]) == 0
    assert main([*argv, "-o", str(again)]) == 0
    golden = (GOLDEN / "w4_cap3_finite.json").read_bytes()
    assert first.read_bytes() == again.read_bytes() == golden
    assert between.read_bytes() == (GOLDEN / "w3.json").read_bytes()


@pytest.mark.parametrize(
    "command, content",
    [
        pytest.param("w-state", {"pe": 0.05}, id="content0"),
        pytest.param("w-state", {"format": "xml"}, id="content1"),
        pytest.param("w-state", {"n": "abc"}, id="n-abc"),
        pytest.param("w-state", {"trials": "x"}, id="trials-x"),
        pytest.param("scaling-sweep", {"n_min": "a"}, id="n_min-a"),
        pytest.param("w-state", {"phases": 5}, id="phases-5"),
        pytest.param("teleport", {"alpha": 0.6}, id="alpha-scalar"),
        pytest.param("teleport", {"beta": [0.8]}, id="beta-one-number"),
        # no lenient conversion: bool("false") is True, int(3.9) is 3 ...
        pytest.param("w-state", {"finite_size": "false"}, id="finite_size-string"),
        pytest.param("w-state", {"second_order_pump": "no"}, id="second_order_pump-string"),
        pytest.param("w-state", {"finite_size": "yes"}, id="finite_size-yes"),
        pytest.param("w-state", {"n": 3.9}, id="n-fraction"),
        pytest.param("w-state", {"trials": 2.5}, id="trials-fraction"),
        pytest.param("w-state", {"max_attempts": True}, id="max_attempts-true"),
        pytest.param("w-state", {"t0": True}, id="t0-true"),
        pytest.param("w-state", {"seed": 1.9}, id="seed-fraction"),
        pytest.param("w-state", {"eta": 10**400}, id="eta-beyond-float"),
        # the configs, not the CLI, reject these
        pytest.param("teleport", {"n": 4}, id="teleport-n4"),
        pytest.param("epr", {"n": 1}, id="epr-n1"),
        pytest.param("w-state", {"seed": 2**63}, id="seed-2**63"),
        pytest.param("w-state", {"seed": -(2**63) - 1}, id="seed-below-2**63"),
    ],
)
def test_config_file_rejects_unknown_keys_and_values(tmp_path, command, content):
    # {"pe": ...} is not the echo key "p_e"; it used to be ignored silently.
    # A value of the wrong type is a usage error too, not a traceback.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(content))
    argv = [command, "--config", str(cfg_path)]
    if "seed" not in content:
        argv += ["--seed", "1"]
    if "trials" not in content:
        argv += ["--trials", "2"]
    with pytest.raises(UsageError):
        parse_args(argv)
    assert main([*argv, "-o", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("name", JSON_CASES)
def test_config_echo_round_trips_through_config_file(tmp_path, name):
    # the config echo alone reproduces its report and exit code
    golden = (GOLDEN / f"{name}.json").read_bytes()
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "r.json"
    cfg_path.write_text(json.dumps(json.loads(golden)["config"]))
    argv = [CASES[name][0][0], "--config", str(cfg_path), "--workers", "1"]
    assert main([*argv, "-o", str(out)]) == CASES[name][1]
    assert out.read_bytes() == golden


@pytest.mark.parametrize(
    "argv, content",
    [
        pytest.param(["w-state", "--t0", "nan"], None, id="t0-nan"),
        pytest.param(["w-state"], {"t0": math.nan}, id="t0-nan-config"),
        pytest.param(["w-state", "--t0", "inf"], None, id="t0-inf"),
        pytest.param(["w-state", "--na", "nan"], None, id="na-nan"),
        pytest.param(["w-state", "--phases", "0,nan,0"], None, id="phases-nan"),
        pytest.param(["teleport", "--alpha-re", "nan"], None, id="alpha-re-nan"),
    ],
)
def test_non_finite_numbers_are_usage_errors(tmp_path, argv, content):
    if content is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(content))  # writes the bare token NaN
        argv = [*argv, "--config", str(cfg_path)]
    out = tmp_path / "never.json"
    assert main([*argv, "--seed", "1", "--trials", "3", "--workers", "1",
                 "-o", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("seed", [str(2**63), str(-(2**63) - 1)])
def test_seed_beyond_64_bits_is_a_usage_error(tmp_path, seed):
    # trial streams keep a seed's low 64 bits, so a wider seed would alias one
    out = tmp_path / "never.json"
    assert main(["w-state", "--seed", seed, "--trials", "3", "--workers", "1",
                 "-o", str(out)]) == 2
    assert not out.exists()


_CHAIN = ["--pe", "0.05", "--trials", "50"]
_FINITE = ["--na", "100", "--finite-size"]
_TELEPORT = ["teleport", "--cap", "5", "--alpha-re", "0.6", "--beta-im", "0.8",
             "--trials", "10"]


@pytest.mark.parametrize(
    "argv, phases",
    [
        pytest.param(
            ["epr", "--n", "2", "--eta", "0.3", "--cap", "3", *_CHAIN, "--seed", "5"],
            "0,5.5936", id="epr-cap3",
        ),
        pytest.param(
            ["epr", "--n", "2", "--eta", "0.3", "--cap", "4", "--no-double-pair", *_CHAIN,
             "--seed", "39"],
            "0,5.6685", id="epr-cap4-single-pair",
        ),
        pytest.param(
            ["w-state", "--n", "3", "--eta", "0.3", "--cap", "3", *_FINITE, *_CHAIN,
             "--seed", "66"],
            "0,6.0734,2.9971", id="w3-cap3-finite",
        ),
        pytest.param(
            ["w-state", "--n", "4", "--eta", "0.3", "--cap", "4", "--no-double-pair", *_CHAIN,
             "--seed", "45"],
            "0,4.1484,6.2597,5.7613", id="w4-cap4-single-pair",
        ),
        pytest.param(
            ["w-state", "--n", "5", "--eta", "0.1", "--cap", "4", *_CHAIN, "--seed", "26"],
            "0,0.1359,6.0383,1.1622,0.7785", id="w5-cap4",
        ),
        pytest.param(
            ["w-state", "--n", "5", "--eta", "0.1", "--cap", "3", *_FINITE, *_CHAIN,
             "--seed", "89"],
            "0,2.0894,5.1265,0.6321,0.9196", id="w5-cap3-finite",
        ),
        pytest.param(
            ["w-state", "--n", "6", "--eta", "0.1", "--cap", "4", *_FINITE, *_CHAIN,
             "--seed", "62"],
            "0,4.4548,1.041,0.4014,4.4078,2.8046", id="w6-cap4-finite",
        ),
        pytest.param(
            [*_TELEPORT, "--eta", "0.1", "--seed", "12"],
            "0,4.0941,4.9557", id="teleport-eta0.1",
        ),
        pytest.param(
            [*_TELEPORT, "--eta", "0.2", "--seed", "55"],
            "0,0.1781,5.2513", id="teleport-eta0.2",
        ),
    ],
)
def test_channel_phases_change_no_report_byte_outside_the_config(tmp_path, argv, phases):
    # the phases are a gauge: a phased report equals the zero-phase one in
    # every field but the echoed phases
    plain, phased = tmp_path / "plain.json", tmp_path / "phased.json"
    assert main([*argv, "-o", str(plain)]) == 0
    assert main([*argv, "--phases", phases, "-o", str(phased)]) == 0
    plain, phased = json.loads(plain.read_text()), json.loads(phased.read_text())
    echoed = [float(x) for x in phases.split(",")]
    assert phased["config"].pop("phases") == echoed
    assert plain["config"].pop("phases") == [0.0] * len(echoed)
    assert json.dumps(phased) == json.dumps(plain)
