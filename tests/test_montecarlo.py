import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from wclass_sim import montecarlo, protocol
from wclass_sim.cli import main
from wclass_sim.errors import DomainError, InsufficientDataError, PreconditionError
from wclass_sim.fock import create
from wclass_sim.montecarlo import (
    NoisyStateMixture,
    estimate_vacuum_coefficient,
    fidelity_mixture,
    predicted_generation_time,
    rng_for_trial,
    run_batch,
    run_epr_batch,
    run_teleport_batch,
    trial_rngs,
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

from oracle_helpers import (
    chain_stage_probabilities,
    epr_reference_records,
    expected_rounds_with_restart,
    run_batch_trace_reference,
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


def test_run_batch_is_deterministic():
    cfg = ProtocolConfig(n=3, p_e=0.02, eta=0.1, seed=99)
    a = run_batch(cfg, 200)
    b = run_batch(cfg, 200)
    assert a.to_dict() == b.to_dict()
    assert [(r.rounds, r.fidelity) for r in a.records] == [
        (r.rounds, r.fidelity) for r in b.records
    ]
    single_a = run_batch(cfg, 1)
    single_b = run_batch(cfg, 1)
    assert single_a.to_dict() == single_b.to_dict()


def test_run_batch_worker_count_does_not_change_results():
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


def test_stage_attempts_are_geometric():
    # the round-by-round oracle records attempts-to-first-success per stage;
    # the entangling stage is an iid Bernoulli round, so the count is geometric
    cfg = ProtocolConfig(n=3, p_e=0.09, eta=0.0, seed=41)
    report = run_batch_trace_reference(cfg, 1200)
    firsts = np.array(
        [r.first_success_attempts[0] for r in report.records if r.succeeded]
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
    slow = run_batch_trace_reference(cfg, 4000)
    se = math.hypot(
        fast.confidence["mean_time_s_se"], slow.confidence["mean_time_s_se"]
    )
    assert abs(fast.mean_time_s - slow.mean_time_s) < 4 * se
    assert fast.fidelity_mean == pytest.approx(slow.fidelity_mean, abs=0.02)
    sim = ChainSimulator(cfg)
    p_pass, fail = sim.completion(0, sim.initial_state())
    exact = len(sim.stages) + sum((k + 1) * f for k, f in enumerate(fail)) / p_pass
    for report in (fast, slow):
        rounds = np.array([r.rounds for r in report.records], dtype=float)
        se = rounds.std(ddof=1) / math.sqrt(len(rounds))
        assert abs(rounds.mean() - exact) < 4 * se


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
    c_low, mix_low = estimate_vacuum_coefficient(cfgs[0.1], 12_000, layout=layout)
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
    records = run_epr_batch(cfg, 300).records
    got = [
        (r.index, r.succeeded, r.rounds, r.stage_attempts, r.stage_successes,
         r.fidelity, r.classification)
        for r in records
    ]
    assert got == epr_reference_records(cfg, 0, 300)


def test_one_stage_exhausted_trial_spends_the_budget_on_its_stage():
    cfg = ProtocolConfig(n=3, p_e=0.01, seed=1, max_attempts=5)
    sim = ChainSimulator(cfg, stages=(epr_stage(1, 2),))
    failed = [r for r in (sim.run_trial(np.random.default_rng(t)) for t in range(200))
              if not r.succeeded]
    assert len(failed) > 100
    for r in failed:
        assert r.rounds == 5
        assert tuple(r.stage_attempts) == (5,)
        assert tuple(r.stage_successes) == (0,)


def test_exhausted_trials_fast_path_matches_trace():
    # nearly every trial runs out of its 200 rounds; the fast path must
    # spread them over the stages the way round-by-round simulation does
    cfg = ProtocolConfig(n=3, p_e=0.02, seed=4, max_attempts=200)
    fast = run_batch(cfg, 200)
    slow = run_batch_trace_reference(cfg, 200)
    assert fast.successes < 10
    for k in range(len(fast.stage_labels)):
        a = np.array([r.stage_attempts[k] for r in fast.records])
        b = np.array([r.stage_attempts[k] for r in slow.records])
        se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(len(a))
        assert abs(a.mean() - b.mean()) <= 4 * se, fast.stage_labels[k]


@pytest.mark.parametrize("seed", [5, 6])
def test_exhausted_trials_count_the_pass_the_budget_cut(seed):
    # 3000 trials resolve the one stage-0 attempt per trial that a rule
    # ignoring the last, cut-short pass would miss (z of about -4.5)
    cfg = ProtocolConfig(n=3, p_e=0.02, seed=seed, max_attempts=200)
    fast = run_batch(cfg, 3000)
    slow = run_batch_trace_reference(cfg, 3000)
    for r in fast.records:
        if not r.succeeded:
            assert sum(r.stage_attempts) == r.rounds == cfg.max_attempts
    for name in ("stage_attempts", "stage_successes"):
        for k in range(len(fast.stage_labels)):
            a = np.array([getattr(r, name)[k] for r in fast.records])
            b = np.array([getattr(r, name)[k] for r in slow.records])
            se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(len(a))
            assert abs(a.mean() - b.mean()) <= 3 * se, (name, fast.stage_labels[k])


def test_attempts_total_is_the_exact_sum_of_rounds(tmp_path):
    # 8.8e15 rounds: past 2**53, where a float mean no longer holds the sum
    argv = ["w-state", "--n", "6", "--eta", "0.3", "--pe", "0.01", "--seed", "11",
            "--trials", "1000", "--workers", "1"]
    out = tmp_path / "w6.json"
    assert main(argv + ["-o", str(out)]) == 0
    report = run_batch(ProtocolConfig(n=6, p_e=0.01, eta=0.3, seed=11), 1000)
    exact = sum(r.rounds for r in report.records)
    assert report.rounds_total == exact
    assert json.loads(out.read_text())["timing"]["attempts_total"] == exact


def test_teleport_batch_propagates_program_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not an exhausted budget")

    monkeypatch.setattr(montecarlo, "teleport", broken)
    tcfg = TeleportConfig(1.0, 0.0, ProtocolConfig(n=3, p_e=0.05, seed=1))
    with pytest.raises(ValueError):
        run_teleport_batch(tcfg, 2)


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

    real_rngs, real_connect, real_teleport_round = (
        montecarlo.trial_rngs, protocol.connect_round, protocol.teleport_round)

    def numbered_rngs(seed, lo, hi):
        for t, rng in zip(range(lo, hi), real_rngs(seed, lo, hi)):
            trial[0] = t
            yield rng

    def connect_round(state, layout, i, j, *args):
        record(("connect", layout.ensembles, i, j, state.key()))
        return real_connect(state, layout, i, j, *args)

    def teleport_round(state, layout, cfg):
        record(("teleport", state.key()))
        return real_teleport_round(state, layout, cfg)

    monkeypatch.setattr(montecarlo, "trial_rngs", numbered_rngs)
    monkeypatch.setattr(protocol, "connect_round", connect_round)
    monkeypatch.setattr(protocol, "teleport_round", teleport_round)
    assert run_teleport_batch(tcfg, 3).successes == 3
    assert trial[0] == 2 and first_seen
    assert repeats == []


# 0, one and two entropy words, negative seeds taken mod 2**64
DERIVATION_SEEDS = [0, 1, -1, 5, 2**32 - 1, 2**32, 2**63 - 1, -(2**63)]
# from 0, from lo > 0, across a block of the derivation, across the one- to
# two-word spawn key at 2**32, and up to the last index
DERIVATION_WINDOWS = [
    (0, 6), (7, 12), (4093, 4099), (2**32 - 3, 2**32 + 3), (2**64 - 3, 2**64)
]


@pytest.mark.parametrize("seed", DERIVATION_SEEDS)
def test_trial_rngs_match_numpy_derivation(seed):
    for lo, hi in DERIVATION_WINDOWS:
        trials = range(lo, hi)
        for t, rng in zip(trials, trial_rngs(seed, lo, hi), strict=True):
            ref = rng_for_trial(seed, t)
            # a buffered 32-bit half left by the trial before would show here
            assert rng.bit_generator.state == ref.bit_generator.state, (seed, t)
            assert rng.random(8).tolist() == ref.random(8).tolist(), (seed, t)
            # an odd number of 32-bit draws leaves half of a 64-bit word
            halves = [g.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
                      for g in (rng, ref)]
            assert halves[0] == halves[1], (seed, t)
            assert rng.bit_generator.state["has_uint32"] == 1


def test_trial_rngs_reject_indices_beyond_64_bits():
    with pytest.raises(ValueError):
        next(trial_rngs(1, 2**64 - 1, 2**64 + 1))
    with pytest.raises(ValueError):
        next(trial_rngs(1, -1, 2))


# seeds of one and two entropy words, negative seeds taken mod 2**64
OVERFLOW_SEEDS = [0, -1, 2**32, 2**63 - 1, -(2**63)]


@pytest.mark.parametrize("seed", OVERFLOW_SEEDS)
def test_trial_rngs_raise_no_warnings(seed):
    # uint32 arrays wrap silently where numpy scalars warn on overflow; a
    # warning here means the derivation computed on a scalar
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lo, hi in [(0, 5), (2**32 - 2, 2**32 + 2), (2**64 - 2, 2**64)]:
            for rng in trial_rngs(seed, lo, hi):
                rng.random()


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
    # engine samples it or the round-by-round oracle walks it
    montecarlo._chain_engine.cache_clear()
    stages = chain_stages(cfg.n) if stages is None else stages
    sim = montecarlo._chain_engine(replace(cfg, seed=0), stages)[0]
    built = len(sim._nodes)
    run_batch(cfg, 300, stages=stages)
    assert len(sim._nodes) == built
    run_batch_trace_reference(cfg, 100, stages=stages)
    assert len(sim._nodes) == built
    assert montecarlo._chain_engine.cache_info().misses == 1


def test_chain_engines_are_keyed_by_everything_but_the_seed():
    montecarlo._chain_engine.cache_clear()
    base = ProtocolConfig(n=3, p_e=0.02, eta=0.1, seed=1)
    run_batch(base, 5)
    run_batch(replace(base, seed=2), 5)
    info = montecarlo._chain_engine.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    for cfg in (
        replace(base, eta=0.2),
        replace(base, phases=(0.0, 0.5, 0.0)),
        replace(base, truncation_cap=3),
        replace(base, max_attempts=50),
    ):
        run_batch(cfg, 5)
    info = montecarlo._chain_engine.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 5, 5)


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


def test_pool_workers_start_from_the_parents_table():
    # built in the parent before the pool starts, so forked workers inherit it
    montecarlo._chain_engine.cache_clear()
    cfg = ProtocolConfig(n=3, p_e=0.02, eta=0.1, seed=4)
    run_batch(cfg, 40, workers=2)
    info = montecarlo._chain_engine.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_teleport_batches_build_their_own_simulator(monkeypatch):
    real, built = montecarlo.TeleportSimulator, []

    def counting(tcfg):
        built.append(real(tcfg))
        return built[-1]

    monkeypatch.setattr(montecarlo, "TeleportSimulator", counting)
    tcfg = TeleportConfig(
        0.6, 0.8, ProtocolConfig(n=3, p_e=0.05, eta=0.1, truncation_cap=5, seed=11)
    )
    run_teleport_batch(tcfg, 1)
    run_teleport_batch(tcfg, 1)
    assert len(built) == 2 and built[0] is not built[1]
