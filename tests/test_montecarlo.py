import concurrent.futures
import functools
import gc
import json
import math
import operator
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wclass_sim import montecarlo, protocol
from wclass_sim.cli import main, parse_args
from wclass_sim.errors import (
    AttemptsExhaustedError,
    DomainError,
    InsufficientDataError,
    PreconditionError,
)
from wclass_sim.fock import CollectiveModeModel, create, left_sum
from wclass_sim.montecarlo import (
    NoisyStateMixture,
    estimate_vacuum_coefficient,
    fidelity_mixture,
    predicted_generation_time,
    rng_for_trial,
    run_batch,
    run_epr_batch,
    run_teleport_batch,
    wilson_interval,
)
from wclass_sim.protocol import (
    ChainSimulator,
    ProtocolConfig,
    TeleportConfig,
    chain_stages,
    epr_stage,
    ideal_w_state,
    make_chain_layout,
)

from compare_reports import workload_argvs
from oracle_helpers import (
    NodeTableReference,
    chain_columns,
    chain_records,
    chain_stage_probabilities,
    epr_reference_records,
    expected_rounds_with_restart,
    run_batch_reference,
    run_batch_trace_reference,
    run_trial_block_reference,
    run_trial_trace_reference,
)


def test_predicted_generation_time_examples():
    for n in (3, 5, 8):
        assert predicted_generation_time(n, 0.0, 1.0, 2.5) == pytest.approx(2.5)
    # consecutive-n ratio is exactly 1/((1-eta)^2 p_c)
    for eta, p_c in [(0.0, 0.02), (0.3, 0.01), (0.6, 0.4)]:
        r = predicted_generation_time(4, eta, p_c, 1.0) / predicted_generation_time(
            3, eta, p_c, 1.0
        )
        assert r == pytest.approx(1.0 / ((1 - eta) ** 2 * p_c), rel=1e-12)
    assert predicted_generation_time(3, 0.5, 0.01, 1.0) == pytest.approx(3.2e7)
    with pytest.raises(DomainError):
        predicted_generation_time(3, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        predicted_generation_time(3, 1.0, 0.5, 1.0)


def test_wilson_interval_brackets_the_rate():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_report_sums_fold_left_whatever_the_python():
    # sum() of floats is compensated from Python 3.12 on; the reports add
    # left to right, so a fidelity of 0 then ten of 0.1 average to the left
    # fold's 0.9999999999999999 / 11 on every Python
    cfg = ProtocolConfig(n=3, p_e=0.01)
    stages = chain_stages(3)
    fids = [0.0] + [0.1] * 10
    ones = np.ones((11, len(stages)), np.int64)
    cols = montecarlo.ChainColumns(
        np.ones(11, bool), ones, ones, np.array(fids), np.full(11, montecarlo._W)
    )
    report = montecarlo._aggregate_chain(cfg, stages, cols)
    assert report.fidelity_mean == 0.9999999999999999 / 11 != 1.0 / 11
    residues = [(x - report.fidelity_mean) ** 2 for x in fids]
    se = math.sqrt(functools.reduce(operator.add, residues, 0.0) / 10 / 11)
    assert report.confidence["fidelity_mean_se"] == se


@pytest.mark.parametrize("most", [2**53, 2**70], ids=["int64", "object"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_report_folds_match_the_python_left_folds(most, data):
    # the rounds' and fidelities' squared deviations and the fidelity mean,
    # folded in numpy, equal the Python left folds bit for bit; rounds past
    # int64 come as Python ints in an object array
    rounds = data.draw(st.lists(
        st.one_of(st.integers(1, most), st.sampled_from([1, 2**53, most])),
        min_size=1, max_size=40,
    ))
    fids = data.draw(st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.1, 1.0])),
        min_size=len(rounds), max_size=len(rounds),
    ))
    trials = len(rounds)
    cfg = ProtocolConfig(n=2, p_e=0.01)
    attempts = np.array([[r] for r in rounds], np.int64 if most < 2**63 else object)
    cols = montecarlo.ChainColumns(
        np.ones(trials, bool), attempts, np.ones((trials, 1), attempts.dtype),
        np.array(fids), np.zeros(trials, int),
    )
    report = montecarlo._aggregate_chain(cfg, (epr_stage(1, 2),), cols)
    mean = sum(rounds) / trials
    sd = math.sqrt(left_sum((x - mean) ** 2 for x in rounds) / max(1, trials - 1))
    assert report.confidence["mean_time_s_se"].hex() == (
        sd / math.sqrt(trials) * cfg.t0).hex()
    # the fidelity mean is the first fidelity plus the mean deviation from it
    devs = [x - fids[0] for x in fids]
    shift = left_sum(devs) / trials
    assert report.fidelity_mean.hex() == (fids[0] + shift).hex()
    fid_se = report.confidence["fidelity_mean_se"]
    if trials == 1:
        assert fid_se is None
    else:
        ss = left_sum((d - shift) ** 2 for d in devs)
        assert fid_se.hex() == math.sqrt(ss / (trials - 1) / trials).hex()


def test_run_batch_is_deterministic():
    cfg = ProtocolConfig(n=3, p_e=0.02, eta=0.1, seed=99)
    a = run_batch(cfg, 200)
    b = run_batch(cfg, 200)
    assert a.to_dict() == b.to_dict()
    assert [(r.rounds, r.fidelity) for r in chain_records(cfg, 200)] == [
        (r.rounds, r.fidelity) for r in chain_records(cfg, 200)
    ]
    single_a = run_batch(cfg, 1)
    single_b = run_batch(cfg, 1)
    assert single_a.to_dict() == single_b.to_dict()


def test_run_batch_worker_count_does_not_change_results(monkeypatch):
    # blocks of 16 trials, so the pool's two workers split 240 trials
    monkeypatch.setattr(montecarlo, "_BLOCK", 16)
    cfg = ProtocolConfig(n=3, p_e=0.02, eta=0.0, seed=5)
    serial = run_batch(cfg, 240, workers=1)
    parallel = run_batch(cfg, 240, workers=2)
    assert serial.to_dict() == parallel.to_dict()


def test_p_c_hat_matches_first_order_rate():
    cfg = ProtocolConfig(n=3, p_e=0.01, eta=0.0, seed=31)
    report = run_batch(cfg, 10_000)
    lo, hi = report.confidence["p_c_hat_wilson95"]
    se = (hi - lo) / 4
    # pooled attempts are dominated by the entangling stage: ~ 2 p_e
    assert abs(report.p_c_hat - 2 * cfg.p_e) < max(3 * se, 0.03 * 2 * cfg.p_e)


def test_mean_rounds_against_restart_model():
    cfg = ProtocolConfig(n=3, p_e=0.01, eta=0.2, seed=17)
    report = run_batch(cfg, 20_000)
    qs = chain_stage_probabilities(cfg.n, cfg.p_e, cfg.eta)
    expected = expected_rounds_with_restart(qs)
    got = report.mean_time_s / cfg.t0
    se = report.confidence["mean_time_s_se"] / cfg.t0
    # the analytic model follows the genuine path only; multi-pair branches
    # shift the truth by O(p_e)
    assert abs(got - expected) < 0.08 * expected + 4 * se


def test_scaling_ratio_against_restart_model():
    eta, p_e = 0.3, 0.01
    means, ses, oracle = {}, {}, {}
    for n in (3, 4, 5):
        cfg = ProtocolConfig(n=n, p_e=p_e, eta=eta, seed=53)
        report = run_batch(cfg, 20_000)
        means[n] = report.mean_time_s
        ses[n] = report.confidence["mean_time_s_se"]
        oracle[n] = expected_rounds_with_restart(
            chain_stage_probabilities(n, p_e, eta)
        ) * cfg.t0
    for n in (4, 5):
        got = means[n] / means[n - 1]
        want = oracle[n] / oracle[n - 1]
        rel_se = math.sqrt(
            (ses[n] / means[n]) ** 2 + (ses[n - 1] / means[n - 1]) ** 2
        )
        assert abs(got / want - 1.0) < 0.06 + 3 * rel_se


def test_predicted_time_brackets_measured_time_with_loss():
    cfg = ProtocolConfig(n=3, p_e=0.01, eta=0.3, seed=77)
    report = run_batch(cfg, 20_000)
    ratio = report.mean_time_s / report.predicted_time_s
    assert 0.5 <= ratio <= 2.0


def test_a_one_stage_chain_predicts_no_time():
    # the predicted time is the n-party W chain's law; a one-stage chain's
    # analogue t0 / p_c_hat would only repeat its mean_time_s
    cfg = ProtocolConfig(n=3, p_e=0.05, eta=0.1, seed=7)
    assert run_epr_batch(cfg, 50).predicted_time_s is None
    assert run_batch(cfg, 50).predicted_time_s is not None


def test_stage_attempts_are_geometric():
    # the round-by-round oracle records attempts-to-first-success per stage;
    # the entangling stage is an iid Bernoulli round, so the count is geometric
    cfg = ProtocolConfig(n=3, p_e=0.09, eta=0.0, seed=41)
    _, records = run_batch_trace_reference(cfg, 1200)
    firsts = np.array(
        [r.first_success_attempts[0] for r in records if r.succeeded]
    )
    sim = ChainSimulator(cfg)
    p_stage = sim.round_distribution(0, sim.initial_state()).p_accept
    mean = firsts.mean()
    se = firsts.std(ddof=1) / math.sqrt(len(firsts))
    assert abs(mean - 1.0 / p_stage) < 3 * se
    # chi-square goodness of fit against Geometric(p_hat) at the 1% level
    p_hat = 1.0 / mean
    bins = int(np.quantile(firsts, 0.9))
    observed = [np.sum(firsts == k) for k in range(1, bins)]
    observed.append(np.sum(firsts >= bins))
    expected = [len(firsts) * p_hat * (1 - p_hat) ** (k - 1) for k in range(1, bins)]
    expected.append(len(firsts) * (1 - p_hat) ** (bins - 1))
    chi2, pvalue = stats.chisquare(observed, expected, ddof=1)
    assert pvalue > 0.01


def test_trace_and_fast_paths_agree():
    # the engine against the round-by-round oracle, and both against the
    # exact E[rounds] of the node table: len(stages) + sum_k (k+1) fail_k / p_pass
    cfg = ProtocolConfig(n=3, p_e=0.05, eta=0.1, seed=61)
    fast = run_batch(cfg, 4000)
    slow, slow_records = run_batch_trace_reference(cfg, 4000)
    se = math.hypot(
        fast.confidence["mean_time_s_se"], slow.confidence["mean_time_s_se"]
    )
    assert abs(fast.mean_time_s - slow.mean_time_s) < 4 * se
    assert fast.fidelity_mean == pytest.approx(slow.fidelity_mean, abs=0.02)
    sim = ChainSimulator(cfg)
    p_pass, fail = sim.completion(0, sim.initial_state())
    exact = len(sim.stages) + sum((k + 1) * f for k, f in enumerate(fail)) / p_pass
    for records in (chain_records(cfg, 4000), slow_records):
        rounds = np.array([r.rounds for r in records], dtype=float)
        se = rounds.std(ddof=1) / math.sqrt(len(rounds))
        assert abs(rounds.mean() - exact) < 4 * se


@pytest.mark.parametrize(
    "cfg, stages, block",
    [
        (ProtocolConfig(n=3, p_e=0.05, eta=0.1, seed=61), None, 4096),
        (ProtocolConfig(n=3, p_e=0.05, eta=0.1, seed=62), None, 7),
        # a budget that about one trial in ten completes within, so both
        # outcomes show on any stream
        (ProtocolConfig(n=3, p_e=0.02, seed=4, max_attempts=5000), None, 64),
        (ProtocolConfig(n=4, p_e=0.1, seed=5, max_attempts=5000), None, 100),
        (ProtocolConfig(n=5, p_e=0.1, seed=6, max_attempts=2500), None, 4096),
        (ProtocolConfig(n=3, p_e=0.1, eta=0.3, seed=3, max_attempts=12), (epr_stage(1, 2),), 5),
    ],
    ids=["w3", "w3-block7", "w3-exhausted", "w4-budget", "w5-budget", "epr-budget"],
)
def test_block_scan_matches_the_scalar_round_walk(cfg, stages, block):
    # the batch oracle's block scan against the scalar walk it stands for:
    # the same result, attempts to first success and next draw, trial by
    # trial, including trials that a block boundary or the budget cuts
    stages = chain_stages(cfg.n) if stages is None else stages
    sim = NodeTableReference(replace(cfg, seed=0, phases=None), stages)
    root = sim.initial_state()
    trials = 150
    a, b = rng_for_trial(cfg.seed, 0), rng_for_trial(cfg.seed, 0)
    outcomes = set()
    for _ in range(trials):
        want = run_trial_trace_reference(sim, a, root)
        got = run_trial_block_reference(sim, b, root, block=block)
        assert got == want
        assert b.random() == a.random()
        outcomes.add(want[0].succeeded)
    assert outcomes == ({True, False} if cfg.max_attempts < 10**15 else {True})


def test_standard_errors_shrink_like_root_trials():
    cfg = ProtocolConfig(n=3, p_e=0.03, eta=0.1, seed=71)
    small = run_batch(cfg, 2000)
    large = run_batch(cfg, 8000)
    ratio = small.confidence["mean_time_s_se"] / large.confidence["mean_time_s_se"]
    assert ratio == pytest.approx(2.0, abs=0.5)


def test_vacuum_coefficient_trivial_zero():
    cfg = ProtocolConfig(
        n=3, p_e=0.02, eta=0.0, seed=81, second_order_pump=False
    )
    c_hat, mixture = estimate_vacuum_coefficient(cfg, 2000)
    assert c_hat == 0.0
    assert len(mixture.components) == 2


def test_vacuum_coefficient_identity_and_trend():
    cfgs = {
        eta: ProtocolConfig(n=3, p_e=0.03, eta=eta, seed=91) for eta in (0.1, 0.5)
    }
    layout = make_chain_layout(cfgs[0.1])
    c_low, mix_low = estimate_vacuum_coefficient(cfgs[0.1], 12_000)
    c_high, _ = estimate_vacuum_coefficient(cfgs[0.5], 12_000)
    assert c_low > 0.0
    assert c_high > c_low
    target = ideal_w_state(3, cfgs[0.1].phases, layout)
    assert fidelity_mixture(mix_low, target) == pytest.approx(
        1.0 / (1.0 + c_low), abs=1e-10
    )


def test_vacuum_coefficient_preconditions():
    cfg = ProtocolConfig(n=3, p_e=0.02, eta=0.1, seed=1)
    with pytest.raises(PreconditionError):
        estimate_vacuum_coefficient(cfg, 100)
    starved = ProtocolConfig(n=3, p_e=0.005, eta=0.1, seed=1, max_attempts=50)
    with pytest.raises(InsufficientDataError):
        estimate_vacuum_coefficient(starved, 1000)


def test_vacuum_coefficient_needs_a_w_outcome(monkeypatch):
    # successes without a W outcome: the report's c_n_hat is None
    cfg = ProtocolConfig(n=3, p_e=0.02, eta=0.1, seed=1)
    report = run_batch(cfg, 20)
    assert report.successes > 0
    no_w = replace(report, w_fraction=0.0, c_n_hat=None)
    monkeypatch.setattr(montecarlo, "run_batch", lambda *args, **kwargs: no_w)
    with pytest.raises(InsufficientDataError, match="W-class"):
        estimate_vacuum_coefficient(cfg, 1000)


def test_fidelity_mixture_examples():
    layout = make_chain_layout(ProtocolConfig(n=3, p_e=0.01))
    w = ideal_w_state(3, (0.0, 0.0, 0.0), layout)
    pure = NoisyStateMixture([(1.0, w)])
    assert fidelity_mixture(pure, w) == pytest.approx(1.0)
    vac = layout.vacuum()
    orthogonal = NoisyStateMixture([(1.0, vac)])
    assert fidelity_mixture(orthogonal, w) == 0.0
    with pytest.raises(PreconditionError):
        NoisyStateMixture([(0.7, w), (0.2, vac)])
    with pytest.raises(PreconditionError):
        fidelity_mixture(pure, create(w, layout.ensembles[0]))


def test_reported_probabilities_lie_in_range():
    cfg = ProtocolConfig(n=3, p_e=0.03, eta=0.2, seed=3)
    report = run_batch(cfg, 500)
    lo, hi = report.confidence["p_c_hat_wilson95"]
    for value in (report.p_c_hat, report.w_fraction, report.vacuum_fraction, lo, hi):
        assert 0.0 <= value <= 1.0
    assert 0.0 <= report.fidelity_mean <= 1.0


def test_epr_batch_reports_high_fidelity():
    cfg = ProtocolConfig(n=2, p_e=0.005, eta=0.0, seed=13)
    report = run_epr_batch(cfg, 2000)
    assert report.successes == 2000
    assert report.fidelity_mean >= 0.99
    assert report.p_c_hat == pytest.approx(2 * cfg.p_e, rel=0.05)


@pytest.mark.parametrize(
    "cfg",
    [
        ProtocolConfig(n=3, p_e=0.01, eta=0.3, seed=6, phases=(0.0, 0.9, -0.4)),
        ProtocolConfig(n=2, p_e=0.03, eta=0.1, seed=7),
        ProtocolConfig(n=3, p_e=0.01, seed=8, max_attempts=30),  # about half exhausted
        ProtocolConfig(n=3, p_e=0.0, seed=9, max_attempts=40),  # never clicks
    ],
    ids=["in-budget", "n2", "exhausted", "pe0"],
)
def test_epr_batch_matches_reference_loop(cfg):
    records = chain_records(cfg, 300, (epr_stage(1, 2),))
    got = [
        (r.index, r.succeeded, r.rounds, r.stage_attempts, r.stage_successes,
         r.fidelity, r.classification)
        for r in records
    ]
    assert got == epr_reference_records(cfg, 300)


def test_one_stage_exhausted_trial_spends_the_budget_on_its_stage():
    cfg = ProtocolConfig(n=3, p_e=0.01, seed=1, max_attempts=5)
    sim = ChainSimulator(cfg, stages=(epr_stage(1, 2),))
    failed = [r for r in (sim.run_trial(np.random.default_rng(t)) for t in range(200))
              if not r.succeeded]
    assert len(failed) > 100
    for r in failed:
        assert r.attempts == 5
        assert tuple(r.stage_attempts) == (5,)
        assert tuple(r.stage_successes) == (0,)


def test_exhausted_trials_fast_path_matches_trace():
    # nearly every trial runs out of its 200 rounds; the fast path must
    # spread them over the stages the way round-by-round simulation does
    cfg = ProtocolConfig(n=3, p_e=0.02, seed=4, max_attempts=200)
    fast = run_batch(cfg, 200)
    fast_records = chain_records(cfg, 200)
    _, slow_records = run_batch_trace_reference(cfg, 200)
    assert fast.successes < 10
    for k in range(len(fast.stage_labels)):
        a = np.array([r.stage_attempts[k] for r in fast_records])
        b = np.array([r.stage_attempts[k] for r in slow_records])
        se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(len(a))
        assert abs(a.mean() - b.mean()) <= 4 * se, fast.stage_labels[k]


@pytest.mark.parametrize("seed", [5, 6])
def test_exhausted_trials_count_the_pass_the_budget_cut(seed):
    # 3000 trials resolve the one stage-0 attempt per trial that a rule
    # ignoring the last, cut-short pass would miss (z of about -4.5)
    cfg = ProtocolConfig(n=3, p_e=0.02, seed=seed, max_attempts=200)
    fast = chain_records(cfg, 3000)
    _, slow = run_batch_trace_reference(cfg, 3000)
    for r in fast:
        if not r.succeeded:
            assert sum(r.stage_attempts) == r.rounds == cfg.max_attempts
    labels = [s.label for s in chain_stages(cfg.n)]
    for name in ("stage_attempts", "stage_successes"):
        for k in range(len(labels)):
            a = np.array([getattr(r, name)[k] for r in fast])
            b = np.array([getattr(r, name)[k] for r in slow])
            se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(len(a))
            assert abs(a.mean() - b.mean()) <= 3 * se, (name, labels[k])


def test_attempts_total_is_the_exact_sum_of_rounds(tmp_path):
    # 8.8e15 rounds: past 2**53, where a float mean no longer holds the sum
    argv = ["w-state", "--n", "6", "--eta", "0.3", "--pe", "0.01", "--seed", "11",
            "--trials", "1000", "--workers", "1"]
    out = tmp_path / "w6.json"
    assert main(argv + ["-o", str(out)]) == 0
    cfg = ProtocolConfig(n=6, p_e=0.01, eta=0.3, seed=11)
    report = run_batch(cfg, 1000)
    exact = sum(r.rounds for r in chain_records(cfg, 1000))
    assert report.rounds_total == exact
    assert json.loads(out.read_text())["timing"]["attempts_total"] == exact
    # hopeless trials of 2**62 rounds each, whose total passes int64, and of
    # 2**64, more passes than one multinomial draw takes
    for budget, trials in ((2**62, 3), (2**64, 2)):
        for stages in ((epr_stage(1, 2),), None):
            cfg = ProtocolConfig(n=4, p_e=0.0, seed=1, max_attempts=budget)
            report = run_batch(cfg, trials, stages=stages)
            assert report.rounds_total == trials * budget
            assert report.mean_attempts_per_stage[0] == budget


def test_budgets_past_int64_change_no_report():
    # a budget of 2**64 keeps per-trial counts as Python ints; trials that
    # fit the default budget draw and report the same
    cfg = ProtocolConfig(n=3, p_e=0.05, eta=0.1, seed=12)
    wide = run_batch(replace(cfg, max_attempts=2**64), 300)
    plain = run_batch(cfg, 300)
    assert wide.to_dict() == plain.to_dict()
    assert chain_records(replace(cfg, max_attempts=2**64), 300) == chain_records(cfg, 300)
    assert chain_columns(replace(cfg, max_attempts=2**64), 300).attempts.dtype == object


@pytest.mark.parametrize(
    "cfg, stages, trials",
    [
        (ProtocolConfig(n=3, p_e=0.05, eta=0.1, seed=21), None, montecarlo._BLOCK + 100),
        (ProtocolConfig(n=3, p_e=0.1, eta=0.3, seed=22), (epr_stage(1, 2),), 300),
        (ProtocolConfig(n=3, p_e=0.02, seed=4, max_attempts=200), None, 200),
        (ProtocolConfig(n=4, p_e=0.0, seed=23, max_attempts=40), None, 20),
        (ProtocolConfig(n=5, p_e=0.05, eta=0.3, n_a=100, finite_size=True, seed=24), None, 300),
    ],
    ids=["w3-past-a-block", "epr", "w3-exhausted", "hopeless", "w5-finite"],
)
def test_run_batch_matches_the_per_trial_reference(cfg, stages, trials):
    # the columnar batch against per-trial final branches, tallies and
    # classifications aggregated record by record: the same records and
    # report bytes
    got = run_batch(cfg, trials, stages=stages)
    want, want_records = run_batch_reference(cfg, trials, stages=stages)
    assert chain_records(cfg, trials, stages) == want_records
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert got.rounds_total == want.rounds_total


def test_teleport_batch_propagates_program_errors(monkeypatch):
    # an exhausted trial is a returned value, so a raised exhaustion is a bug
    tcfg = TeleportConfig(1.0, 0.0, ProtocolConfig(n=3, p_e=0.05, seed=1))
    for error in (ValueError, AttemptsExhaustedError):
        def broken(*args, **kwargs):
            raise error("a bug, not an exhausted budget")

        monkeypatch.setattr(montecarlo, "teleport", broken)
        with pytest.raises(error):
            run_teleport_batch(tcfg, 2)


def test_teleport_batch_propagates_a_localization_error(monkeypatch):
    # a vacuum-faking accept is never localized; a raised precondition is a bug
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise PreconditionError("a bug, not a vacuum-faking accept")

    monkeypatch.setattr(montecarlo, "receiver_localize", broken)
    tcfg = TeleportConfig(1.0, 0.0, ProtocolConfig(n=3, p_e=0.05, seed=1))
    with pytest.raises(PreconditionError):
        run_teleport_batch(tcfg, 2)
    assert len(calls) == 1


def test_teleport_batch_enumerates_each_round_once(monkeypatch):
    tcfg = TeleportConfig(
        0.6, 0.8, ProtocolConfig(n=3, p_e=0.05, eta=0.1, truncation_cap=5, seed=11)
    )
    trial = [None]
    first_seen = {}  # (round, its input) -> trial that enumerated it
    repeats = []

    def record(key):
        if key in first_seen:
            repeats.append((trial[0], first_seen[key]))
        first_seen.setdefault(key, trial[0])

    real_teleport, real_connect, real_teleport_round = (
        montecarlo.teleport, protocol.connect_round, protocol.teleport_round)

    def numbered_teleport(*args):
        trial[0] = 0 if trial[0] is None else trial[0] + 1
        return real_teleport(*args)

    def connect_round(state, layout, i, j, *args):
        record(("connect", layout.ensembles, i, j, state.key()))
        return real_connect(state, layout, i, j, *args)

    def teleport_round(state, layout, cfg):
        record(("teleport", state.key()))
        return real_teleport_round(state, layout, cfg)

    monkeypatch.setattr(montecarlo, "teleport", numbered_teleport)
    monkeypatch.setattr(protocol, "connect_round", connect_round)
    monkeypatch.setattr(protocol, "teleport_round", teleport_round)
    assert run_teleport_batch(tcfg, 3).successes == 3
    assert trial[0] == 2 and first_seen
    assert repeats == []


@pytest.mark.parametrize(
    "cfg, stages",
    [
        (ProtocolConfig(n=3, p_e=0.1, eta=0.1, seed=1), None),
        (ProtocolConfig(n=4, p_e=0.1, eta=0.2, seed=2, max_attempts=20), None),
        (ProtocolConfig(n=3, p_e=0.1, eta=0.3, seed=3), (epr_stage(1, 2),)),
    ],
    ids=["w3", "w4-exhausted", "epr"],
)
def test_chain_table_is_closed_once_built(cfg, stages):
    # a batch served from a cached table adds no node to it, whether the
    # engine samples it or the round-by-round oracle walks its own
    montecarlo._chain_engine.cache_clear()
    stages = chain_stages(cfg.n) if stages is None else stages
    sim = montecarlo._chain_engine(replace(cfg, seed=0), stages)[0]
    shape, built = sim.shape, len(sim.shape.stage)
    run_batch(cfg, 300, stages=stages)
    assert sim.shape is shape and len(shape.stage) == built
    run_batch_trace_reference(cfg, 100, stages=stages)
    assert sim.shape is shape and len(shape.stage) == built
    assert montecarlo._chain_engine.cache_info().misses == 1


def test_chain_engines_are_keyed_by_everything_but_seed_and_phases():
    # the channel phases are a gauge, so batches take their config without them
    montecarlo._chain_engine.cache_clear()
    base = ProtocolConfig(n=3, p_e=0.02, eta=0.1, seed=1)
    run_batch(base, 5)
    run_batch(replace(base, seed=2), 5)
    run_batch(replace(base, phases=(0.0, 0.5, 0.0)), 5)
    info = montecarlo._chain_engine.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    for cfg in (
        replace(base, eta=0.2),
        replace(base, truncation_cap=3),
        replace(base, max_attempts=50),
    ):
        run_batch(cfg, 5)
    info = montecarlo._chain_engine.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 4, 4)


@pytest.mark.parametrize(
    "cfg",
    [
        ProtocolConfig(n=3, p_e=0.02, seed=5),
        ProtocolConfig(n=4, p_e=0.01, eta=0.3, phases=(0.0, -0.0, 1.5, 2), seed=-7,
                       n_a=100, finite_size=True, truncation_cap=3, max_attempts=9,
                       second_order_pump=False, t0=2e-6),
    ],
    ids=["defaults", "every-field"],
)
def test_table_config_is_the_config_without_seed_and_phases(cfg):
    # the engine key is made without re-running the checks, and is the
    # config that replace() makes, field for field and type for type
    seed, phases = cfg.seed, cfg.phases
    got, want = cfg.table_config(), replace(cfg, seed=0, phases=None)
    assert got == want and hash(got) == hash(want)
    assert [(f.name, type(getattr(got, f.name))) for f in fields(got)] == [
        (f.name, type(getattr(want, f.name))) for f in fields(want)
    ]
    assert (cfg.seed, cfg.phases) == (seed, phases)


def test_configs_share_scaffolding_only_with_equal_layout_fields():
    # the layout (registry, modes, vacuum, W state) and the tally tables are
    # made once per (n, N_a, finite-size, cap): shared by configurations that
    # agree on those four, and never by ones that do not
    base = ProtocolConfig(n=4, p_e=0.02, eta=0.1, seed=1)
    sharing = [
        replace(base, p_e=0.03, eta=0.2, seed=2, phases=(0.0, 0.4, 0.8, 1.2)),
        replace(base, second_order_pump=False, max_attempts=50, t0=2e-6),
    ]
    apart = [
        replace(base, n_a=100.0, finite_size=True),
        replace(base, n_a=1000.0, finite_size=True),
        replace(base, n_a=100.0),  # N_a without the finite-size correction
        replace(base, truncation_cap=3),
        replace(base, n=5, phases=None),
    ]
    montecarlo._chain_engine.cache_clear()
    cfgs = [base, *sharing, *apart]
    engines = [montecarlo._chain_engine(c.table_config(), chain_stages(c.n)) for c in cfgs]
    first = engines[0][0]
    for sim, _ in engines[1:3]:
        assert sim.layout is first.layout and sim.initial_state() is first.initial_state()
        assert sim.layout.w_state is first.layout.w_state
        assert sim._failed_later is first._failed_later and sim._last_pass is first._last_pass
    apart_sims = [sim for sim, _ in (engines[0], *engines[3:])]
    assert len({id(sim.layout.registry) for sim in apart_sims}) == len(apart_sims)
    assert len({id(sim.layout.w_state) for sim in apart_sims}) == len(apart_sims)
    for cfg, (sim, _) in zip(cfgs, engines):
        layout = sim.layout
        assert layout.registry.collective == CollectiveModeModel(cfg.n_a, cfg.finite_size)
        assert (len(layout.ensembles), layout.truncation_cap) == (cfg.n, cfg.truncation_cap)
        assert layout.w_state.registry is sim.initial_state().registry is layout.registry
        assert layout.w_state.key() == ideal_w_state(cfg.n, layout=layout).key()
    assert not first._failed_later.flags.writeable and not first._last_pass.flags.writeable


def test_signed_zero_phases_give_the_same_report():
    # (0, -0.0, 0) == (0, 0.0, 0), so the two share an engine: they must give
    # the same report whichever of them built it
    signed, plain = (
        ProtocolConfig(n=3, p_e=0.02, eta=0.1, phases=phases, seed=3)
        for phases in ((0.0, -0.0, 0.0), (0.0, 0.0, 0.0))
    )
    reports = []
    for first, second in ((signed, plain), (plain, signed)):
        montecarlo._chain_engine.cache_clear()
        reports += [json.dumps(run_batch(cfg, 300).to_dict()) for cfg in (first, second)]
        assert montecarlo._chain_engine.cache_info().hits == 1
    assert len(set(reports)) == 1


def test_engine_cache_holds_at_most_eight_configurations():
    montecarlo._chain_engine.cache_clear()
    for k in range(10):
        run_batch(ProtocolConfig(n=3, p_e=0.01 + 0.001 * k, seed=k), 1)
    info = montecarlo._chain_engine.cache_info()
    assert (info.misses, info.currsize) == (10, 8)


def test_pool_workers_start_from_the_parents_table(monkeypatch):
    # built in the parent before the pool starts, so forked workers inherit
    # it, and the patched block size with it
    monkeypatch.setattr(montecarlo, "_BLOCK", 8)
    montecarlo._chain_engine.cache_clear()
    cfg = ProtocolConfig(n=3, p_e=0.02, eta=0.1, seed=4)
    run_batch(cfg, 40, workers=2)
    info = montecarlo._chain_engine.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_teleport_pool_workers_start_from_the_parents_table(monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK", 2)
    montecarlo._chain_engine.cache_clear()
    tcfg = TeleportConfig(0.6, 0.8, ProtocolConfig(n=3, p_e=0.05, eta=0.1, seed=4))
    pooled = run_teleport_batch(tcfg, 4, workers=2)
    info = montecarlo._chain_engine.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert pooled.to_dict() == run_teleport_batch(tcfg, 4).to_dict()


@pytest.mark.parametrize(
    "cpus, blocks, pool", [(8, 1, None), (8, 3, 3), (8, 50, 8), (None, 50, None)]
)
def test_pool_size_is_clamped_to_trials_and_cpus(monkeypatch, cpus, blocks, pool):
    # a forking pool starts all its workers at the first submit, so a huge
    # worker count must not reach it: at most one worker per block of
    # trials (the last one part full here) and per cpu.  The stand-in pool
    # records its size and runs each span inline, and the report is the
    # serial one
    monkeypatch.setattr(montecarlo, "_BLOCK", 4)
    trials = 4 * blocks - 1
    sizes, spans = [], []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            spans.append(args[-2:])
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    cfg = ProtocolConfig(n=3, p_e=0.02, eta=0.1, seed=6)
    pooled = run_batch(cfg, trials, workers=100_000)
    assert sizes == ([] if pool is None else [pool])
    # contiguous spans in trial order, each starting at a block boundary
    assert all(lo % 4 == 0 for lo, _ in spans)
    assert [hi for _, hi in spans] == [lo for lo, _ in spans[1:]] + [trials] * bool(spans)
    assert pooled.to_dict() == run_batch(cfg, trials).to_dict()


def test_one_worker_batches_do_not_ask_for_the_cpu_count(monkeypatch):
    def refuse():
        raise AssertionError("os.cpu_count called by a one-worker batch")

    monkeypatch.setattr(montecarlo.os, "cpu_count", refuse)
    run_batch(ProtocolConfig(n=3, p_e=0.02, eta=0.1, seed=6), 5)


def test_teleport_batches_share_the_w_state_chain_table(monkeypatch):
    # both W states of every teleport trial come from the n=3 chain table of
    # the base configuration, the one w-state batches of it use; a batch
    # builds its own retrieval memo, and adds no node to the table
    real, built = montecarlo.TeleportSimulator, []

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(montecarlo, "TeleportSimulator", recording)
    montecarlo._chain_engine.cache_clear()
    base = ProtocolConfig(n=3, p_e=0.05, eta=0.1, truncation_cap=5, seed=11)
    tcfg = TeleportConfig(0.6, 0.8, base)
    run_batch(replace(base, seed=12, phases=(0.0, 0.3, 0.7)), 5)
    chain = montecarlo._chain_engine(replace(base, seed=0, phases=None), chain_stages(3))[0]
    nodes = len(chain.shape.stage)
    run_teleport_batch(tcfg, 3)
    run_teleport_batch(replace(tcfg, base=replace(base, seed=13, phases=(0.0, 1.0, 2.0))), 3)
    assert len(built) == 2 and built[0] is not built[1]
    assert built[0].chain is built[1].chain is chain
    assert len(chain.shape.stage) == nodes
    assert montecarlo._chain_engine.cache_info().misses == 1


def test_a_batch_whose_shape_is_cached_enumerates_no_round(monkeypatch):
    # one table per shape: a configuration that differs from a cached one
    # only in p_e, eta > 0, seed, phases or budget weighs the cached table,
    # and no connect or merge round is enumerated for it
    calls = []

    def counted(real):
        def enumerate_round(*args):
            calls.append(real.__name__)
            return real(*args)

        return enumerate_round

    for name in ("connect_round", "merge_round"):
        monkeypatch.setattr(protocol, name, counted(getattr(protocol, name)))
    protocol._chain_shape.cache_clear()
    montecarlo._chain_engine.cache_clear()
    base = ProtocolConfig(n=4, p_e=0.02, eta=0.2, seed=1)
    for stages in (None, (epr_stage(1, 2),)):
        calls.clear()
        run_batch(base, 20, stages=stages)
        assert calls  # the cold batch builds its shape
        calls.clear()
        for cfg in (
            replace(base, p_e=0.035, eta=0.1, seed=2, phases=(0.0, 0.3, 0.6, 0.9)),
            replace(base, p_e=0.0, eta=0.45, max_attempts=100),
        ):
            run_batch(cfg, 20, stages=stages)
        assert calls == []
    run_batch(replace(base, eta=0.0), 20)  # no loss: another shape
    assert calls


def test_one_param_scan_blocks_shapes_keep_under_a_megabyte():
    # the shapes hold numbers and terminal states only: the 64 calls of one
    # param-scan block build their shapes, from an empty shape cache, into
    # less than 1 MB of memory kept (their node-by-node tables kept about
    # 4 MB)
    cfgs = [parse_args(argv).config.table_config() for argv in workload_argvs("param-scan", 1, 1)]
    for cfg in cfgs:  # the caches beside the shapes: layouts, leaf tables, loss laws
        ChainSimulator(cfg)
    protocol._chain_shape.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for cfg in cfgs:
            ChainSimulator(cfg)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert protocol._chain_shape.cache_info().currsize > 40
    assert kept <= 1_000_000
