import cmath
import functools
import math
from dataclasses import replace
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wclass_sim import protocol
from wclass_sim.errors import AttemptsExhaustedError, PreconditionError
from wclass_sim.montecarlo import rng_for_trial
from wclass_sim.fock import (
    PRUNE_THRESHOLD,
    FockState,
    ModeKind,
    ModeRegistry,
    count_excitations,
    debug_serialize,
    fidelity,
    inner_product,
    normalize,
)
from wclass_sim.protocol import (
    ChainSimulator,
    Holder,
    ProtocolConfig,
    StepOutcome,
    TeleportConfig,
    TeleportSimulator,
    build_w_chain,
    chain_stages,
    connect_applied,
    connect_round,
    correct_teleport_clicks,
    epr_stage,
    epr_state,
    exact_double_w_state,
    ideal_w_state,
    localizable,
    make_chain_layout,
    make_teleport_layout,
    merge_round,
    phase_compensate,
    prepare_epr,
    qubit_state,
    receiver_localize,
    teleport,
    teleport_from_states,
    teleport_round,
    teleport_target_state,
    w_prime_state,
    w_state_by_operators,
)

from oracle_helpers import (
    NodeTableReference,
    as_state,
    completion_reference,
    connect_applied_reference,
    connect_round_reference,
    epr_amplitudes,
    epr_state_reference,
    equal_up_to_global_phase,
    exact_double_w_state_reference,
    ideal_w_state_reference,
    key_reference,
    merge_round_reference,
    merged_amplitudes,
    pick_reference,
    receiver_amplitudes,
    same_terminals,
    step2_amplitudes,
    teleport_from_states_reference,
    receiver_targets_reference,
    run_trial_reference,
    sorted_key_reference,
    teleport_round_reference,
    teleport_target_state_reference,
    terminal_law_reference,
    unknown_prepared_reference,
    w_m_amplitudes,
    w_prime_amplitudes,
    w_prime_state_reference,
    w_state_by_operators_reference,
)


def random_phases(n, rng):
    return (0.0,) + tuple(rng.uniform(-math.pi, math.pi, n - 1))


def _phased(state, phases, ensembles):
    """``U_phi |state>``: the channel phases put on a zero-frame state."""
    return phase_compensate(state, [-ph for ph in phases], ensembles)


def test_config_rejects_finite_size_below_two_atoms():
    with pytest.raises(ValueError):
        ProtocolConfig(n=3, p_e=0.01, n_a=1.0, finite_size=True)
    ProtocolConfig(n=3, p_e=0.01, n_a=1.0)  # ideal bosons: n_a unused


@pytest.mark.parametrize(
    "kwargs",
    [
        {"t0": math.nan},
        {"t0": math.inf},
        {"t0": -math.inf},
        {"n_a": math.nan},
        {"n_a": math.nan, "finite_size": True},
        {"phases": (0.0, math.nan, 0.0)},
        {"phases": (0.0, 0.0, math.inf)},
    ],
    ids=["t0-nan", "t0-inf", "t0-minus-inf", "n_a-nan", "n_a-nan-finite-size",
         "phase-nan", "phase-inf"],
)
def test_config_rejects_non_finite_numbers(kwargs):
    with pytest.raises(ValueError):
        ProtocolConfig(n=3, p_e=0.01, **kwargs)


@pytest.mark.parametrize("seed", [2**63, -(2**63) - 1])
def test_config_rejects_seed_beyond_64_bits(seed):
    with pytest.raises(ValueError, match="seed"):
        ProtocolConfig(n=3, p_e=0.01, seed=seed)


def test_config_keeps_seeds_at_the_64_bit_bounds():
    for seed in (-(2**63), 2**63 - 1):
        assert ProtocolConfig(n=3, p_e=0.01, seed=seed).seed == seed


@pytest.mark.parametrize(
    "field, value", [("n", 3), ("truncation_cap", 5), ("max_attempts", 200), ("seed", 7)]
)
def test_config_takes_integer_counts_only(field, value):
    # a float or a bool used to construct, then fail or run deep in a batch
    for bad in (float(value), value + 0.5, True, str(value)):
        with pytest.raises(ValueError, match=field):
            ProtocolConfig(**{"n": 3, "p_e": 0.01, field: bad})
    got = getattr(ProtocolConfig(**{"n": 3, "p_e": 0.01, field: np.int64(value)}), field)
    assert type(got) is int and got == value


@pytest.mark.parametrize(
    "field, good, bads",
    [
        ("p_e", np.int64(0), (True, "0.01", 0.01j, None)),
        ("eta", np.float32(0.25), (False, "0.2", 0.2j, None)),
        ("t0", 2, (True, "1e-6", 1e-6j, None)),
        ("n_a", 1000, (True, "1000", 1000j, 10**400)),
        ("finite_size", True, ("yes", 1, None)),
        ("second_order_pump", False, ("no", 0, None)),
        ("phases", (0, np.float64(0.5), 1), ("000", 0.0, (0.0, True, 0.0), (0.0, 0.5j, 0.0),
                                             (0.0, "1", 0.0))),
    ],
    ids=["p_e", "eta", "t0", "n_a", "finite_size", "second_order_pump", "phases"],
)
def test_config_takes_real_numbers_and_flags_only(field, good, bads):
    # second_order_pump="no" used to run as True, t0=True as a 1 s
    # interaction, and a string or a complex number raised a bare TypeError
    for bad in bads:
        with pytest.raises(ValueError, match=field):
            ProtocolConfig(**{"n": 3, "p_e": 0.01, field: bad})
    cfg = ProtocolConfig(**{"n": 3, "p_e": 0.01, field: good})
    assert getattr(cfg, field) == good
    assert {type(x) for x in (cfg.p_e, cfg.eta, cfg.t0, cfg.n_a, *cfg.phases)} == {float}


@pytest.mark.parametrize("field, value", [("alpha", 1.0), ("beta", 0.0)])
def test_teleport_config_takes_numbers_only(field, value):
    # a string or a bool used to pass through complex()
    base = ProtocolConfig(n=3, p_e=0.01)
    for bad in (str(value), bool(value), None):
        with pytest.raises(ValueError, match=field):
            TeleportConfig(**{"alpha": 1.0, "beta": 0.0, field: bad, "base": base})


def test_config_keeps_infinite_atom_number_as_no_correction():
    assert ProtocolConfig(n=3, p_e=0.01, n_a=math.inf).n_a == math.inf


@pytest.mark.parametrize(
    "alpha, beta",
    [
        (complex(math.nan, 0.0), 0.8),
        (0.6, complex(0.8, math.nan)),
        (complex(math.inf, 0.0), 0.0),
        (1.0, complex(0.0, -math.inf)),
    ],
)
def test_teleport_config_rejects_non_finite_amplitudes(alpha, beta):
    with pytest.raises(PreconditionError, match="finite"):
        TeleportConfig(alpha, beta, ProtocolConfig(n=3, p_e=0.01))


# ---------------------------------------------------------------------------
# operator-algebra path against the literal closed forms
# ---------------------------------------------------------------------------


def test_epr_state_matches_oracle():
    layout = make_chain_layout(ProtocolConfig(n=3, p_e=0.01))
    rng = np.random.default_rng(0)
    for phi in rng.uniform(-math.pi, math.pi, 10):
        got = epr_state(layout, 1, 2, phi)
        want = as_state(layout, epr_amplitudes(3, 1, 2, phi))
        assert equal_up_to_global_phase(got, want, 1e-12)


def test_connect_applied_gives_three_party_state():
    layout = make_chain_layout(ProtocolConfig(n=3, p_e=0.01))
    rng = np.random.default_rng(1)
    for _ in range(10):
        phi12, phi23 = rng.uniform(-math.pi, math.pi, 2)
        got = connect_applied(epr_state(layout, 1, 2, phi12), layout, 2, 3, phi23)
        want = as_state(layout, step2_amplitudes(phi12, phi23))
        assert equal_up_to_global_phase(got, want, 1e-12)


def test_w_prime_matches_oracle_for_random_phases():
    rng = np.random.default_rng(2)
    for n in range(3, 7):
        layout = make_chain_layout(ProtocolConfig(n=n, p_e=0.01))
        for _ in range(5):
            phases = random_phases(n, rng)
            got = w_prime_state(n, phases, layout)
            want = as_state(layout, w_prime_amplitudes(n, phases))
            assert equal_up_to_global_phase(got, want, 1e-10)
            assert inner_product(got, got).real == pytest.approx(4 * n - 6, abs=1e-10)


def test_w_state_by_operators_normalization_and_form():
    # the 1/(2 sqrt(n)) prefactor turns the chain state into the unit W
    rng = np.random.default_rng(3)
    for n in range(3, 7):
        layout = make_chain_layout(ProtocolConfig(n=n, p_e=0.01))
        phases = random_phases(n, rng)
        got = w_state_by_operators(n, phases, layout)
        assert got.norm() == pytest.approx(1.0, abs=1e-10)
        want = as_state(layout, w_m_amplitudes(n, phases))
        assert equal_up_to_global_phase(got, want, 1e-10)


def test_ideal_w_state_examples():
    layout = make_chain_layout(ProtocolConfig(n=3, p_e=0.01))
    w3 = ideal_w_state(3, (0.0, 0.0, 0.0), layout)
    for occ in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:  # the registry is atoms only
        assert w3.amplitude(occ) == pytest.approx(1 / math.sqrt(3))
    assert ideal_w_state(1).norm() == pytest.approx(1.0)
    for n in range(2, 9):
        assert ideal_w_state(n).norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "build, args",
    [
        (ideal_w_state, (3, (0.0, 0.5))),
        (w_prime_state, (4, (0.0, 0.1))),
        (w_state_by_operators, (3, (0.0,))),
    ],
    ids=["ideal_w_state", "w_prime_state", "w_state_by_operators"],
)
def test_builders_reject_short_phase_lists(build, args):
    with pytest.raises(ValueError, match="need one phase per ensemble"):
        build(*args)
    n = args[0]
    longer = (0.0,) * (n + 2)  # phases past the n-th are ignored
    assert dict(build(n, longer).items()) == dict(build(n).items())


def _bits(state):
    return debug_serialize(state), state.truncation_cap


def _phase_sets(n, rng):
    """Zero, random, and signed-zero / +-pi phases for ``n`` parties."""
    special = (0.0, -0.0, math.pi, -math.pi)
    return [(0.0,) * n, random_phases(n, rng), tuple(special[k % 4] for k in range(n))]


@pytest.mark.parametrize("cap", [3, 4])
@pytest.mark.parametrize("finite", [{}, {"n_a": 100.0, "finite_size": True}])
def test_exact_chain_states_match_reference_builders_bitwise(cap, finite):
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        layout = make_chain_layout(
            ProtocolConfig(n=max(n, 2), p_e=0.01, truncation_cap=cap, **finite)
        )
        for phases in _phase_sets(n, rng):
            assert _bits(ideal_w_state(n, phases, layout)) == _bits(
                ideal_w_state_reference(n, phases, layout)
            )
            if n < 3:
                continue
            wp = w_prime_state(n, phases, layout)
            assert _bits(wp) == _bits(w_prime_state_reference(n, phases, layout))
            assert _bits(w_state_by_operators(n, phases, layout)) == _bits(
                w_state_by_operators_reference(n, phases, layout)
            )
            for i, j in ((1, 2), (2, 3), (1, n)):
                phi = phases[j - 1] - phases[i - 1]
                epr = epr_state(layout, i, j, phi)
                assert _bits(epr) == _bits(epr_state_reference(layout, i, j, phi))
                for state in (epr, wp):
                    assert _bits(connect_applied(state, layout, i, j, phi)) == _bits(
                        connect_applied_reference(state, layout, i, j, phi)
                    )


@pytest.mark.parametrize("cap", [4, 5])
@pytest.mark.parametrize(
    "amplitudes", [(0.6, 0.8), (complex(0.3, 0.5), complex(math.sqrt(0.66), 0.0))]
)
def test_exact_teleport_states_match_reference_builders_bitwise(cap, amplitudes):
    rng = np.random.default_rng(9)
    for phases in _phase_sets(3, rng):
        base = ProtocolConfig(n=3, p_e=0.05, truncation_cap=cap, phases=phases)
        tcfg = TeleportConfig(*amplitudes, base)
        layout = make_teleport_layout(tcfg)
        joint = exact_double_w_state(tcfg, layout)
        assert _bits(joint) == _bits(exact_double_w_state_reference(tcfg, layout))
        assert _bits(teleport_target_state(tcfg, layout)) == _bits(
            teleport_target_state_reference(tcfg, layout)
        )
        vac = layout.vacuum()
        for state in (vac, joint):
            assert _bits(qubit_state(tcfg, state, (layout.mode_l, layout.mode_r))) == _bits(
                unknown_prepared_reference(tcfg, layout, state)
            )
        got = (qubit_state(tcfg, vac, layout.carol), qubit_state(tcfg, vac, layout.bob))
        want = receiver_targets_reference(tcfg, layout)
        assert [_bits(s) for s in got] == [_bits(s) for s in want]


# ---------------------------------------------------------------------------
# sampled rounds
# ---------------------------------------------------------------------------


def test_prepare_epr_ideal_limit_and_click_rate():
    cfg = ProtocolConfig(n=3, p_e=0.005, eta=0.0, seed=1)
    layout = make_chain_layout(cfg)
    dist = connect_round(layout.vacuum(), layout, 1, 2, cfg)
    # per-attempt click probability ~ 2 p_e (1 - eta) at first order
    assert dist.p_accept == pytest.approx(2 * cfg.p_e, rel=0.02)
    target = epr_state(layout, 1, 2, 0.0)
    rng = np.random.default_rng(4)
    fids = []
    for _ in range(200):
        out = prepare_epr(cfg, 1, 2, rng)
        assert out.succeeded
        fids.append(fidelity(out.state, target))
    assert np.mean(fids) >= 1.0 - 10 * cfg.p_e


def test_prepare_epr_with_zero_pump_exhausts():
    cfg = ProtocolConfig(n=3, p_e=0.0, eta=0.0, seed=1, max_attempts=50)
    with pytest.raises(AttemptsExhaustedError):
        prepare_epr(cfg, 1, 2, np.random.default_rng(0))


def test_connect_round_click_rate_with_loss():
    cfg = ProtocolConfig(n=3, p_e=0.01, eta=0.4, seed=1)
    layout = make_chain_layout(cfg)
    dist = connect_round(layout.vacuum(), layout, 1, 2, cfg)
    assert dist.p_accept == pytest.approx(2 * cfg.p_e * (1 - cfg.eta), rel=0.03)


def test_connect_step_on_vacuum_reduces_to_epr():
    # the round is in the zero-phase frame; the phases give the phased pair
    cfg = ProtocolConfig(n=3, p_e=0.01, eta=0.0, seed=1, phases=(0.0, 0.2, 1.1))
    layout = make_chain_layout(cfg)
    dist = connect_round(layout.vacuum(), layout, 2, 3, cfg)
    top = max(dist.branches, key=lambda b: b.prob)
    want = as_state(layout, epr_amplitudes(3, 2, 3, cfg.phases[2] - cfg.phases[1]))
    phased = _phased(top.state, cfg.phases, layout.ensembles)
    assert equal_up_to_global_phase(phased, want, 1e-10)


def test_connect_on_pair_reproduces_three_party_state_both_ports():
    cfg = ProtocolConfig(n=3, p_e=0.01, eta=0.0, seed=1, phases=(0.0, -0.8, 0.5))
    layout = make_chain_layout(cfg)
    pair = epr_state(layout, 1, 2, 0.0)  # the zero-phase frame
    dist = connect_round(pair, layout, 2, 3, cfg)
    want = as_state(layout, step2_amplitudes(cfg.phases[1], cfg.phases[2] - cfg.phases[1]))
    # every single-photon click branch (either detector) matches after the
    # feed-forward correction, once the phases are put on
    singles = [b for b in dist.branches if sum(b.detected) == 1]
    assert len(singles) == 2
    for br in singles:
        phased = _phased(br.state, cfg.phases, layout.ensembles)
        assert equal_up_to_global_phase(phased, want, 1e-10)


def test_connect_rejects_two_click_double_pair_events():
    cfg = ProtocolConfig(n=3, p_e=0.05, eta=0.0, seed=1)
    layout = make_chain_layout(cfg)
    dist = connect_round(layout.vacuum(), layout, 1, 2, cfg)
    for br in dist.branches:
        clicked = [c for _, c in br.clicks]
        assert sum(clicked) == 1  # never both detectors
    # bunched double-pair branches are accepted and carry two photons
    assert any(sum(b.detected) == 2 for b in dist.branches)


def test_merge_round_on_three_party_state_gives_chain_intermediate():
    cfg = ProtocolConfig(n=3, p_e=0.01, eta=0.0, seed=1, phases=(0.0, 0.9, -1.2))
    layout = make_chain_layout(cfg)
    state = as_state(layout, step2_amplitudes(cfg.phases[1], cfg.phases[2] - cfg.phases[1]))
    dist = merge_round(state, layout, 2, cfg)
    want = as_state(layout, merged_amplitudes(cfg.phases[1], cfg.phases[2]))
    assert len(dist.branches) == 1
    assert equal_up_to_global_phase(dist.branches[0].state, normalize(want), 1e-10)
    # click probability: P(n_2 >= 1) = 4/5 on the normalized input
    assert dist.p_accept == pytest.approx(0.8, abs=1e-12)


def test_merge_on_pair_consumes_the_excitation():
    for eta in (0.0, 0.35):
        cfg = ProtocolConfig(n=3, p_e=0.01, eta=eta, seed=1)
        layout = make_chain_layout(cfg)
        pair = epr_state(layout, 1, 2, 0.0)
        dist = merge_round(pair, layout, 2, cfg)
        assert dist.p_accept == pytest.approx(0.5 * (1 - eta), abs=1e-12)
        post = dist.branches[0].state
        assert post.amplitude((0,) * layout.registry.n_modes) == pytest.approx(1.0)


def test_merge_on_vacuum_never_clicks():
    cfg = ProtocolConfig(n=3, p_e=0.01, eta=0.0, seed=1)
    layout = make_chain_layout(cfg)
    vac = layout.vacuum()
    dist = merge_round(vac, layout, 2, cfg)
    assert (dist.p_accept, dist.branches, dist.rejected) == (0.0, (), 1.0)
    merge_2 = chain_stages(3)[2:3]
    assert ChainSimulator(cfg, merge_2).completion(0, vac) == (0.0, (1.0,))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_maximizing_stages_reach_the_w_state(n):
    # connect(1,n) then merge(1) on the chain intermediate, as a stage slice
    p_complete = {3: 5 / 134, 4: 7 / 222, 5: 9 / 310}[n]  # at p_e = 0.05, eta = 0
    phases = random_phases(n, np.random.default_rng(11 + n))
    for eta in (0.0, 0.3):
        for double_pair in (True, False):
            cfg = ProtocolConfig(
                n=n, p_e=0.05, eta=eta, phases=phases, second_order_pump=double_pair
            )
            layout = make_chain_layout(cfg)
            wp = normalize(w_prime_state(n, None, layout))  # the zero-phase frame
            sim = NodeTableReference(cfg, chain_stages(n)[-2:])
            pc, fails = sim.completion(0, wp)
            assert (pc, fails) == completion_reference(sim.stages, layout, cfg, wp)
            if eta == 0.0:
                # the genuine herald is exact and the only way through
                assert pc == pytest.approx(p_complete, rel=1e-12, abs=0)
                (w,) = [
                    end.state
                    for br in sim.round_distribution(0, wp).branches
                    for end in sim.round_distribution(1, br.state).branches
                ]
                target = ideal_w_state(n, cfg.phases, layout)
                w = _phased(w, cfg.phases, layout.ensembles)
                assert fidelity(w, target) == pytest.approx(1.0, abs=1e-12)


def test_chain_stage_list_and_small_n_rejected():
    labels = [s.label for s in chain_stages(4)]
    assert labels == [
        "epr(1,2)",
        "connect(2,3)",
        "merge(2)",
        "connect(3,4)",
        "merge(3)",
        "connect(1,4)",
        "merge(1)",
    ]
    with pytest.raises(PreconditionError):
        chain_stages(2)


def test_build_w_chain_ideal_limit():
    cfg = ProtocolConfig(n=3, p_e=0.01, eta=0.0, seed=21)
    layout = make_chain_layout(cfg)
    target = ideal_w_state(3, cfg.phases, layout)
    out = build_w_chain(cfg, np.random.default_rng(21))
    assert out.succeeded
    assert out.state.norm() == pytest.approx(1.0, abs=1e-10)
    assert len(out.stage_attempts) == len(out.stage_successes) == len(chain_stages(3))
    assert sum(out.stage_attempts) == out.attempts
    assert out.stage_successes[-1] == 1
    assert fidelity(out.state, target) > 0.9  # one trajectory, usually exact


def test_build_w_chain_budget_exhaustion():
    cfg = ProtocolConfig(n=3, p_e=0.001, eta=0.0, seed=2, max_attempts=100)
    with pytest.raises(AttemptsExhaustedError) as err:
        build_w_chain(cfg, np.random.default_rng(5))
    assert err.value.stage is not None


def test_genuine_branch_walk_matches_operator_algebra():
    # At eta = 0, following the dominant (single-photon) click branch of
    # every stage must land exactly on the operator-algebra states.
    rng = np.random.default_rng(9)
    for n in (3, 4, 5):
        cfg = ProtocolConfig(
            n=n, p_e=0.004, eta=0.0, seed=1, phases=random_phases(n, rng)
        )
        sim = ChainSimulator(cfg)
        layout = sim.layout
        state = sim.initial_state()
        for idx in range(len(sim.stages)):
            dist = sim.round_distribution(idx, state)
            state = max(dist.branches, key=lambda b: b.prob).state
        # the walk is in the zero-phase frame; the phases give the phased W
        state = _phased(state, cfg.phases, layout.ensembles)
        assert equal_up_to_global_phase(
            state, ideal_w_state(n, cfg.phases, layout), 1e-10
        )
        wp = normalize(w_prime_state(n, cfg.phases, layout))
        pre_max = sim.initial_state()
        for idx in range(len(sim.stages) - 2):
            dist = sim.round_distribution(idx, pre_max)
            pre_max = max(dist.branches, key=lambda b: b.prob).state
        pre_max = _phased(pre_max, cfg.phases, layout.ensembles)
        assert equal_up_to_global_phase(pre_max, wp, 1e-10)


def test_phase_compensation():
    rng = np.random.default_rng(12)
    for n in (3, 5):
        layout = make_chain_layout(ProtocolConfig(n=n, p_e=0.01))
        phases = random_phases(n, rng)
        w = ideal_w_state(n, phases, layout)
        flat = phase_compensate(w, phases, layout.ensembles)
        want = ideal_w_state(n, (0.0,) * n, layout)
        assert equal_up_to_global_phase(flat, want, 1e-10)
        again = phase_compensate(flat, (0.0,) * n, layout.ensembles)
        assert equal_up_to_global_phase(again, flat, 1e-12)


def test_phase_covariance_of_the_sampled_chain():
    # same seed, phases on vs off: compensating the phased step outcome
    # reproduces the zero-phase one (branch topology is phase independent)
    phases = (0.0, 0.7, -1.1)
    cfg_ph = ProtocolConfig(n=3, p_e=0.01, eta=0.2, seed=33, phases=phases)
    cfg_0 = ProtocolConfig(n=3, p_e=0.01, eta=0.2, seed=33)
    layout = make_chain_layout(cfg_0)
    for step in (build_w_chain, lambda cfg, rng: prepare_epr(cfg, 1, 2, rng)):
        for t in range(10):
            r_ph = step(cfg_ph, np.random.default_rng(t))
            r_0 = step(cfg_0, np.random.default_rng(t))
            assert (r_ph.attempts, r_ph.click_log) == (r_0.attempts, r_0.click_log)
            comp = phase_compensate(r_ph.state, phases, layout.ensembles)
            assert equal_up_to_global_phase(comp, r_0.state, 1e-10)


@pytest.mark.parametrize("n", [None, 3, 4, 5])  # None: the one-stage EPR chain
@pytest.mark.parametrize("cap", [3, 4, 5])
def test_channel_phases_leave_the_chain_table_unchanged(n, cap, monkeypatch):
    # the phases are a gauge: a table whose connect rounds put the channel
    # phases on the Stokes light (the reference loop) has the zero-frame
    # engine's shape and odds, and each terminal state is as close to its
    # phase-matched W state
    stages = (epr_stage(1, 2),) if n is None else chain_stages(n)
    m = n or 2
    phases = random_phases(m, np.random.default_rng(100 * m + cap))
    engine = protocol.connect_round
    for eta, p_e, double_pair, finite in product(
        (0.0, 0.3), (0.01, 0.05), (True, False), ({}, {"n_a": 100.0, "finite_size": True})
    ):
        cfg = ProtocolConfig(
            n=m, p_e=p_e, eta=eta, phases=phases, truncation_cap=cap,
            second_order_pump=double_pair, **finite,
        )
        tables = []
        for connect, ph in ((engine, (0.0,) * m), (connect_round_reference, phases)):
            monkeypatch.setattr(protocol, "connect_round", connect)
            sim = NodeTableReference(cfg, stages=stages)
            p_pass, fails = sim.completion(0, sim.initial_state())
            target = ideal_w_state(m, ph, sim.layout)
            terminals = [(br.prob, fidelity(br.state, target)) for br in sim.terminals]
            tables.append((len(sim._nodes), (p_pass, *fails), terminals))
        (nodes_0, odds_0, ends_0), (nodes, odds, ends) = tables
        assert nodes == nodes_0
        assert odds == pytest.approx(odds_0, rel=1e-14, abs=0)
        assert len(ends) == len(ends_0)
        for (prob, fid), (prob_0, fid_0) in zip(ends, ends_0):
            assert prob == pytest.approx(prob_0, rel=1e-14, abs=0)
            assert abs(fid - fid_0) <= 1e-14


# ---------------------------------------------------------------------------
# teleportation
# ---------------------------------------------------------------------------


def test_teleport_config_normalization_enforced():
    base = ProtocolConfig(n=3, p_e=0.01)
    with pytest.raises(PreconditionError):
        TeleportConfig(0.9, 0.6, base)
    with pytest.raises(PreconditionError):
        TeleportConfig(1.0, 0.0, ProtocolConfig(n=4, p_e=0.01))


def test_teleport_alpha_only_restricted_form():
    base = ProtocolConfig(n=3, p_e=0.01, eta=0.0, seed=3)
    tcfg = TeleportConfig(1.0, 0.0, base)
    layout = make_teleport_layout(tcfg)
    joint = exact_double_w_state(tcfg, layout)
    target = teleport_target_state(tcfg, layout)
    # restricted receiver state (s3+ + s2+)/sqrt(2) at zero phases
    assert target.amplitude(tuple(
        1 if m is layout.ensembles[1] else 0 for m in layout.registry.modes
    )) == pytest.approx(1 / math.sqrt(2))
    rng = np.random.default_rng(17)
    seen = 0
    for _ in range(200):
        out = teleport_from_states(tcfg, rng, layout, joint)
        if out.succeeded and out.correct_clicks:
            assert equal_up_to_global_phase(out.state, target, 1e-10)
            seen += 1
    assert seen > 10


def test_teleport_matches_oracle_receiver_state():
    rng = np.random.default_rng(19)
    phases = (0.0, 0.6, -0.9)
    base = ProtocolConfig(n=3, p_e=0.01, eta=0.0, seed=3, phases=phases)
    alpha = complex(0.3, 0.5)
    beta = math.sqrt(1 - abs(alpha) ** 2) * np.exp(1j * 0.4)
    tcfg = TeleportConfig(alpha, complex(beta), base)
    layout = make_teleport_layout(tcfg)
    target = teleport_target_state(tcfg, layout)
    # literal oracle: amplitudes on ensembles 2, 3, 5, 6
    amps = receiver_amplitudes(tcfg.alpha, tcfg.beta, phases[1], phases[2])
    width = layout.registry.n_modes
    terms = {}
    order = [layout.ensembles[1], layout.ensembles[2], layout.ensembles[4], layout.ensembles[5]]
    for occ, amp in amps.items():
        full = [0] * width
        for mode, x in zip(order, occ):
            full[mode.index] = x
        terms[tuple(full)] = amp
    from wclass_sim.fock import FockState

    want = FockState(layout.registry, terms, layout.truncation_cap)
    assert equal_up_to_global_phase(target, want, 1e-12)
    joint = exact_double_w_state(tcfg, layout)
    for _ in range(120):
        out = teleport_from_states(tcfg, rng, layout, joint)
        if out.succeeded and out.correct_clicks:
            assert equal_up_to_global_phase(out.state, want, 1e-10)
            return
    pytest.fail("no correct-click acceptance in 120 rounds")


def test_teleport_outcome_carries_the_channel_phases():
    # same seed, phases on vs off: the pipeline runs in the zero-phase frame
    # and puts each W state's phases on its ensembles (1..3 and 4..6)
    phases = (0.0, 0.6, -0.9)
    tcfg_0, tcfg_ph = (
        TeleportConfig(0.6, 0.8, ProtocolConfig(n=3, p_e=0.05, eta=0.1, truncation_cap=5,
                                                phases=ph))
        for ph in (None, phases)
    )
    sim_0, sim_ph = TeleportSimulator(tcfg_0), TeleportSimulator(tcfg_ph)
    for t in range(10):
        r_0 = teleport(tcfg_0, np.random.default_rng(t), sim_0)
        r_ph = teleport(tcfg_ph, np.random.default_rng(t), sim_ph)
        assert (r_ph.attempts, r_ph.click_log, r_ph.correct_clicks) == (
            r_0.attempts, r_0.click_log, r_0.correct_clicks
        )
        comp = phase_compensate(r_ph.state, phases * 2, sim_ph.layout.ensembles)
        # lift the zero-phase outcome into the phased registry to compare rays
        lifted = comp.replace_terms(dict(r_0.state.items()))
        assert equal_up_to_global_phase(comp, lifted, 1e-10)


def test_teleport_excitation_evenly_split_between_receivers():
    base = ProtocolConfig(n=3, p_e=0.01, eta=0.0, seed=3)
    tcfg = TeleportConfig(1 / math.sqrt(2), 1 / math.sqrt(2), base)
    layout = make_teleport_layout(tcfg)
    target = teleport_target_state(tcfg, layout)
    bob = (layout.ensembles[1], layout.ensembles[4])
    dist = count_excitations(target, bob)
    assert dist[1] == pytest.approx(0.5, abs=1e-12)


def test_receiver_localize_statistics_and_fidelity():
    rng = np.random.default_rng(23)
    base = ProtocolConfig(n=3, p_e=0.01, eta=0.0, seed=3)
    from wclass_sim.fock import create, superpose

    for _ in range(6):  # oracle sweep over a coefficient grid
        a = rng.uniform(0.1, 0.9)
        alpha = complex(a * math.cos(1.0), a * math.sin(1.0))
        beta = complex(math.sqrt(1 - a * a))
        tcfg = TeleportConfig(alpha, beta, base)
        layout = make_teleport_layout(tcfg)
        target = teleport_target_state(tcfg, layout)
        carol = (layout.ensembles[2], layout.ensembles[5])
        p_here = count_excitations(target, carol)[1]
        assert p_here == pytest.approx(0.5, abs=1e-12)  # independent of (a, b)
        vac = layout.vacuum()
        carol_state = normalize(
            superpose([alpha, beta], [create(vac, carol[0]), create(vac, carol[1])])
        )
        bob_state = normalize(
            superpose(
                [alpha, beta],
                [create(vac, layout.ensembles[1]), create(vac, layout.ensembles[4])],
            )
        )
        holders = 0
        for _ in range(60):
            holder, residual = receiver_localize(target, carol, rng)
            if holder is Holder.THIS_RECEIVER:
                holders += 1
                assert fidelity(residual, carol_state) == pytest.approx(1.0, abs=1e-10)
            else:
                assert fidelity(residual, bob_state) == pytest.approx(1.0, abs=1e-10)
        assert 10 < holders < 50


def test_receiver_localize_pure_bob_state():
    base = ProtocolConfig(n=3, p_e=0.01)
    tcfg = TeleportConfig(1.0, 0.0, base)
    layout = make_teleport_layout(tcfg)
    from wclass_sim.fock import create

    bob_only = normalize(create(layout.vacuum(), layout.ensembles[1]))
    carol = (layout.ensembles[2], layout.ensembles[5])
    holder, residual = receiver_localize(bob_only, carol, np.random.default_rng(0))
    assert holder is Holder.OTHER_RECEIVER


def test_receiver_localize_rejects_vacuum_component():
    base = ProtocolConfig(n=3, p_e=0.01)
    tcfg = TeleportConfig(1.0, 0.0, base)
    layout = make_teleport_layout(tcfg)
    from wclass_sim.fock import create, superpose

    bad = normalize(
        superpose(
            [0.8, 0.6],
            [create(layout.vacuum(), layout.ensembles[1]), layout.vacuum()],
        )
    )
    carol = (layout.ensembles[2], layout.ensembles[5])
    with pytest.raises(PreconditionError):
        receiver_localize(bad, carol, np.random.default_rng(0))


def test_receiver_localize_rejects_the_zero_state():
    base = ProtocolConfig(n=3, p_e=0.01)
    layout = make_teleport_layout(TeleportConfig(1.0, 0.0, base))
    zero = layout.vacuum().replace_terms({})
    carol = (layout.ensembles[2], layout.ensembles[5])
    with pytest.raises(PreconditionError):
        receiver_localize(zero, carol, np.random.default_rng(0))


def test_teleport_round_vacuum_fakes_are_flagged():
    # bunched two-photon accepts exist at eta = 0 and are marked incorrect
    base = ProtocolConfig(n=3, p_e=0.01, eta=0.0, seed=3)
    tcfg = TeleportConfig(1.0, 0.0, base)
    layout = make_teleport_layout(tcfg)
    joint = exact_double_w_state(tcfg, layout)
    psi = qubit_state(tcfg, joint, (layout.mode_l, layout.mode_r))
    dist = teleport_round(psi, layout, base)
    kinds = {True: 0.0, False: 0.0}
    from wclass_sim.protocol import correct_teleport_clicks

    for br in dist.branches:
        kinds[correct_teleport_clicks(br)] += br.prob
    assert kinds[True] == pytest.approx(2 / 9, abs=1e-10)
    assert kinds[False] == pytest.approx(1 / 9, abs=1e-10)


def test_rounds_build_no_state_through_the_validating_constructor(monkeypatch):
    # every state a trial reaches derives from the simulators' vacua, which
    # are built (and validated) here, before the constructor is refused
    sim = ChainSimulator(ProtocolConfig(n=4, p_e=0.02, eta=0.2))
    base = ProtocolConfig(n=3, p_e=0.05, eta=0.1, truncation_cap=5)
    tcfg = TeleportConfig(0.6, 0.8, base)
    tsim = TeleportSimulator(tcfg)

    def refuse(self, *args, **kwargs):
        raise AssertionError("FockState.__init__ called inside a round")

    monkeypatch.setattr(FockState, "__init__", refuse)
    assert sim.run_trial(np.random.default_rng(0)).succeeded
    assert teleport(tcfg, np.random.default_rng(1), sim=tsim).succeeded


# the teleport_cap4_exhausted golden config: a budget of 50000 rounds,
# which 14 of its 30 trials spend
TELEPORT_EXHAUSTED = TeleportConfig(
    0.6, 0.8, ProtocolConfig(n=3, p_e=0.05, eta=0.2, seed=3, max_attempts=50_000)
)


def _chain_trials():
    # most of these trials exhaust their 200 rounds
    sim = ChainSimulator(ProtocolConfig(n=3, p_e=0.1, max_attempts=200))
    return [(sim.run_trial(np.random.default_rng(t)), len(chain_stages(3))) for t in range(40)]


def _chain_builds():
    cfg = ProtocolConfig(n=4, p_e=0.05, eta=0.1, phases=(0.0, 0.3, -0.5, 1.1))
    return [(build_w_chain(cfg, np.random.default_rng(t)), len(chain_stages(4))) for t in range(10)]


def _teleport_trials():
    # the teleport_cap4_exhausted golden config, whose trials 0 and 3 exhaust
    tcfg = TELEPORT_EXHAUSTED
    sim = TeleportSimulator(tcfg)
    return [(teleport(tcfg, rng_for_trial(3, t), sim), None) for t in range(6)]


def _teleport_rounds():
    tcfg = TeleportConfig(0.6, 0.8, ProtocolConfig(n=3, p_e=0.01, eta=0.2))
    layout = make_teleport_layout(tcfg)
    joint = exact_double_w_state(tcfg, layout)
    rng = np.random.default_rng(8)
    return [(teleport_from_states(tcfg, rng, layout, joint), None) for _ in range(40)]


@pytest.mark.parametrize(
    "runner, outcomes",
    [
        (_chain_trials, {True, False}),
        (_chain_builds, {True}),
        (_teleport_trials, {True, False}),
        (_teleport_rounds, {True, False}),
    ],
    ids=["run_trial", "build_w_chain", "teleport", "teleport_from_states"],
)
def test_every_runner_returns_one_outcome_record(runner, outcomes):
    # a failed trial has no state and no clicks, whichever runner ran it
    # (a rejected teleport_from_states round used to carry the sender's
    # prepared state); a chain trial counts each stage's attempts in order
    seen = set()
    for out, n_stages in runner():
        assert type(out) is StepOutcome
        seen.add(out.succeeded)
        if not out.succeeded:
            assert out.state is None and out.click_log == ()
        if n_stages is not None:
            assert len(out.stage_attempts) == len(out.stage_successes) == n_stages
            assert sum(out.stage_attempts) == out.attempts
    assert seen == outcomes


def test_teleport_returns_an_exhausted_trial_as_a_value():
    # the teleport_cap4_exhausted golden config: its chain completes a pass
    # with some probability, but about half its trials run out of their
    # 50000 rounds; the first of those on the golden's stream
    tcfg = TELEPORT_EXHAUSTED
    sim = TeleportSimulator(tcfg)
    assert sim.chain.completion(0, sim.chain.initial_state())[0] > 0.0
    rng = rng_for_trial(3, 0)
    trials = (teleport(tcfg, rng, sim) for _ in range(30))
    out = next(out for out in trials if not out.succeeded)
    assert (out.succeeded, out.attempts, out.state, out.click_log, out.correct_clicks) == (
        False, tcfg.base.max_attempts, None, (), None
    )


def test_localizable_is_the_precondition_of_receiver_localize():
    layout = make_teleport_layout(TeleportConfig(1.0, 0.0, ProtocolConfig(n=3, p_e=0.01)))
    from wclass_sim.fock import create, superpose

    vac = layout.vacuum()
    one = create(vac, layout.ensembles[1])
    states = [
        one,
        normalize(superpose([1.0, 1.0], [one, create(vac, layout.ensembles[2])])),
        vac,
        vac.replace_terms({}),
        normalize(superpose([0.8, 0.6], [one, vac])),
        create(one, layout.ensembles[2]),
    ]
    assert [localizable(s) for s in states] == [True, True, False, False, False, False]
    carol = layout.carol
    for state in states[:2]:
        receiver_localize(state, carol, np.random.default_rng(0))
    for state in states[2:]:
        with pytest.raises(PreconditionError):
            receiver_localize(state, carol, np.random.default_rng(0))


def test_teleport_refuses_a_simulator_of_another_config():
    base = ProtocolConfig(n=3, p_e=0.05, eta=0.1, truncation_cap=5)
    tcfg = TeleportConfig(0.6, 0.8, base)
    other = TeleportConfig(0.8, 0.6, base)
    with pytest.raises(ValueError):
        teleport(tcfg, np.random.default_rng(1), sim=TeleportSimulator(other))
    # its chain must be the n=3 W chain of the same config, up to seed and phases
    TeleportSimulator(tcfg, ChainSimulator(replace(base, seed=4, phases=(0.0, 0.1, 0.2))))
    for chain in (
        ChainSimulator(replace(base, eta=0.2)),
        ChainSimulator(replace(base, n=4, phases=None)),
        ChainSimulator(base, stages=chain_stages(3)[:1]),
    ):
        with pytest.raises(ValueError):
            TeleportSimulator(tcfg, chain)


def test_teleport_draws_both_w_states_from_one_chain_table(monkeypatch):
    # each W state is truncated on its own ensembles and prepared from the
    # vacuum: both are trials of the one n=3 chain, whose table no trial grows
    tcfg = TeleportConfig(0.6, 0.8, ProtocolConfig(n=3, p_e=0.05, eta=0.1, truncation_cap=5))
    sim = TeleportSimulator(tcfg)
    nodes = len(sim.chain.shape.stage)
    runs = []
    run_trial = ChainSimulator.run_trial

    def counted(self, rng):
        runs.append(self)
        return run_trial(self, rng)

    monkeypatch.setattr(ChainSimulator, "run_trial", counted)
    rng = np.random.default_rng(5)
    outcomes = [teleport(tcfg, rng, sim) for _ in range(20)]
    assert all(out.succeeded for out in outcomes)
    assert set(map(id, runs)) == {id(sim.chain)} and len(runs) % 2 == 0
    assert len(sim.chain.shape.stage) == nodes > 0


class _Uniform:
    """A stand-in generator whose every uniform draw is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


@pytest.mark.parametrize("cap", [4, 5])
@pytest.mark.parametrize("eta", [0.0, 0.2])
def test_single_excitation_w_pairs_teleport_exactly_to_either_receiver(eta, cap):
    # the paper's claim, over the table: for each pair of one-excitation W
    # terminals, every correct-click branch of its retrieval round leaves the
    # qubit on Carol's pair or on Bob's with probability 1/2 each, exactly
    base = ProtocolConfig(n=3, p_e=0.05, eta=eta, truncation_cap=cap)
    tcfg = TeleportConfig(complex(0.3, 0.5), complex(math.sqrt(0.66), 0.0), base)
    sim = TeleportSimulator(tcfg)
    layout = sim.layout
    terminals = [
        w for w in _terminal_states(sim.chain)
        if all(sum(occ) == 1 for occ, _ in w.items())
    ]
    vac = layout.vacuum()
    targets = {
        Holder.THIS_RECEIVER: qubit_state(tcfg, vac, layout.carol),
        Holder.OTHER_RECEIVER: qubit_state(tcfg, vac, layout.bob),
    }
    checked = 0
    for w in product(terminals, repeat=2):
        for br in sim.round_distribution(*w).branches:
            if not correct_teleport_clicks(br):
                continue
            assert count_excitations(br.state, layout.carol)[1] == pytest.approx(0.5, abs=1e-12)
            # a draw below p_here = 1/2 finds the excitation on Carol's pair
            for u, want in ((0.25, Holder.THIS_RECEIVER), (0.75, Holder.OTHER_RECEIVER)):
                holder, residual = receiver_localize(br.state, layout.carol, _Uniform(u))
                assert holder is want
                assert fidelity(residual, targets[holder]) == pytest.approx(1.0, abs=1e-12)
            checked += 1
    assert checked >= 4


@pytest.mark.parametrize("n", [None, 3, 4, 5, 6])  # None: the one-stage EPR chain
@pytest.mark.parametrize("cap", [3, 4])
@pytest.mark.parametrize("double_pair", [True, False])
@pytest.mark.parametrize("eta", [0.0, 0.3])
def test_completion_table_matches_plain_recursion(n, cap, double_pair, eta):
    # the node-by-node table against the plain recursion, exactly; and the
    # engine's table, its shape built by another (p_e, eta), against it:
    # p_pass, the failure law and the terminal law within rel 1e-14
    stages = (epr_stage(1, 2),) if n is None else chain_stages(n)
    for finite in ({}, {"n_a": 100.0, "finite_size": True}):
        cfg = ProtocolConfig(
            n=n or 2, p_e=0.01, eta=eta, truncation_cap=cap,
            second_order_pump=double_pair, **finite,
        )
        table = NodeTableReference(cfg, stages=stages)
        vac = table.initial_state()
        p_pass, fails = table.completion(0, vac)
        # exact when each (stage, key) is represented by its first state, as
        # in the table; each path's own state moves the last bits only
        assert (p_pass, fails) == completion_reference(
            table.stages, table.layout, cfg, vac, seen={}
        )
        own_pc, own_fails = completion_reference(table.stages, table.layout, cfg, vac)
        assert (p_pass, *fails) == pytest.approx((own_pc, *own_fails), rel=1e-14, abs=0)
        assert abs(p_pass + sum(fails) - 1.0) < 1e-12
        protocol._chain_shape.cache_clear()
        ChainSimulator(replace(cfg, p_e=0.037, eta=eta and 0.61), stages=stages)
        sim = ChainSimulator(cfg, stages=stages)
        assert sim.shape is ChainSimulator(replace(cfg, p_e=0.2e-3), stages=stages).shape
        assert sim.completion(0, vac) == (sim.p_pass, sim._fail)
        assert (sim.p_pass, *sim._fail) == pytest.approx((p_pass, *fails), rel=1e-14, abs=0)
        assert sim._law[0].tolist() == pytest.approx(table._law[0].tolist(), rel=1e-14, abs=0)
        assert same_terminals(sim.terminals, table.terminals)
        assert [br.prob for br in sim.terminals] == [br.prob for br in table.terminals]
        assert sim._ends.tolist() == pytest.approx(table._ends.tolist(), rel=1e-14, abs=0)


def _assert_same_round(dist, ref, frame=lambda state: state):
    # the oracles walk loss and detection one mode at a time, normalizing
    # at every level; the sector law rounds less, so only last bits differ.
    # ``frame`` takes the engine's states to the reference's frame.
    assert [(b.clicks, b.detected, b.lost) for b in dist.branches] == [
        (b.clicks, b.detected, b.lost) for b in ref.branches
    ]
    assert dist.p_accept == pytest.approx(ref.p_accept, rel=1e-14, abs=0)
    assert dist.truncated == pytest.approx(ref.truncated, rel=0, abs=1e-14)
    for got, want in zip(dist.branches, ref.branches):
        assert got.prob == pytest.approx(want.prob, rel=1e-14, abs=0)
        got, want = frame(got.state), want.state
        occs = {occ for occ, _ in got.items()} | {occ for occ, _ in want.items()}
        assert max(abs(got.amplitude(o) - want.amplitude(o)) for o in occs) <= 1e-14


def test_connect_rounds_match_reference_loop(monkeypatch):
    # every connect node of the chain tables, against the four-deep loop;
    # the loop puts the channel phases on the Stokes light, so on
    # U_phi |state> it must give U_phi times the engine's branches
    real = protocol.connect_round
    inputs = []

    def checked(state, layout, i, j, cfg, *args):
        dist = real(state, layout, i, j, cfg, *args)
        phased = functools.partial(_phased, phases=cfg.phases, ensembles=layout.ensembles)
        ref = connect_round_reference(phased(state), layout, i, j, cfg, *args)
        _assert_same_round(dist, ref, phased)
        inputs.append(cfg)
        return dist

    monkeypatch.setattr(protocol, "connect_round", checked)
    grid = [
        dict(n=n, truncation_cap=cap, eta=eta, second_order_pump=double_pair)
        for n in (3, 4, 5, 6)
        for cap in (3, 4)
        for eta in (0.0, 0.3)
        for double_pair in (True, False)
    ]
    grid.append(dict(n=4, eta=0.3, n_a=100.0, finite_size=True))
    grid.append(dict(n=3, truncation_cap=5, eta=0.5, p_e=1e-9))  # paths cut by the floor
    rng = np.random.default_rng(5)
    for n, cap in ((3, 5), (4, 4), (5, 3), (6, 4)):  # the phased reference
        grid.append(dict(n=n, truncation_cap=cap, eta=0.3, phases=random_phases(n, rng)))
    finite = dict(n_a=100.0, finite_size=True)
    grid.append(dict(n=4, eta=0.1, phases=random_phases(4, rng), **finite))
    for kw in grid:
        sim = NodeTableReference(ProtocolConfig(**{"p_e": 0.01, **kw}))
        sim.completion(0, sim.initial_state())
    assert len(set(inputs)) == len(grid)


# the grid of the atoms-only rewrite: every connect round its tables reach
ROUND_GRID = list(product(
    (0.0, 0.1, 0.3),  # eta
    (0.01, 0.05),  # p_e
    (True, False),  # pump order two
    ({}, {"n_a": 100.0, "finite_size": True}),
))


@pytest.mark.parametrize("cap", [3, 4, 5, 6])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_atoms_only_rounds_match_the_photonic_reference(n, cap, monkeypatch):
    # the engine pumps, splits and detects with no photonic mode; the
    # reference builds its Stokes modes on its own registry. Every connect
    # round a table reaches agrees branch for branch, and a table built from
    # the reference's rounds has the engine table's nodes and odds
    real = protocol.connect_round
    rounds = 0

    def checked(state, layout, i, j, cfg, *args):
        nonlocal rounds
        ref = connect_round_reference(state, layout, i, j, cfg, *args)
        _assert_same_round(real(state, layout, i, j, cfg, *args), ref)
        rounds += 1
        return ref

    for eta, p_e, double_pair, finite in ROUND_GRID:
        cfg = ProtocolConfig(
            n=n, p_e=p_e, eta=eta, truncation_cap=cap,
            second_order_pump=double_pair, **finite,
        )
        tables = []
        for connect in (real, checked):
            monkeypatch.setattr(protocol, "connect_round", connect)
            sim = NodeTableReference(cfg)
            p_pass, fails = sim.completion(0, sim.initial_state())
            tables.append((len(sim._nodes), (p_pass, *fails)))
        (nodes, odds), (ref_nodes, ref_odds) = tables
        assert nodes == ref_nodes
        assert odds == pytest.approx(ref_odds, rel=1e-14, abs=0)
    assert rounds > len(ROUND_GRID)


def _round_bits(dist):
    """Every float of a round as its bits, with each branch state's terms in
    their order."""
    return (
        [x.hex() for x in (dist.p_accept, dist.rejected, dist.dropped, dist.truncated)],
        [
            (b.prob.hex(), b.clicks, b.detected, b.lost, b.state.truncation_cap,
             [(occ, a.real.hex(), a.imag.hex()) for occ, a in b.state.items()])
            for b in dist.branches
        ],
    )


@pytest.mark.parametrize("cap", [3, 4, 5, 6])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_merge_rounds_match_the_three_pass_reference(n, cap, monkeypatch):
    # the one-pass merge keeps the float operations of count_excitations,
    # annihilate and normalize, in their order: every merge node of the
    # grid's tables agrees with them bit for bit, term order included
    real = protocol.merge_round
    rounds = 0

    def checked(state, layout, i, cfg, *args):
        nonlocal rounds
        dist = real(state, layout, i, cfg, *args)
        ref = merge_round_reference(state, layout, i, cfg, *args)
        assert _round_bits(dist) == _round_bits(ref)
        rounds += 1
        return dist

    monkeypatch.setattr(protocol, "merge_round", checked)
    for eta, p_e, double_pair, finite in ROUND_GRID:
        cfg = ProtocolConfig(
            n=n, p_e=p_e, eta=eta, truncation_cap=cap,
            second_order_pump=double_pair, **finite,
        )
        sim = NodeTableReference(cfg)
        sim.completion(0, sim.initial_state())
    assert rounds > len(ROUND_GRID)


def _stage_acceptances(sim):
    """``{stage label: acceptance}`` read from ``sim``'s table: the mass of
    the passes that get through a stage over the mass of those that reach
    it."""
    root = sim._node(0, sim.initial_state())
    reach = {id(root): [root, 1.0]}
    out = {}
    for idx, spec in enumerate(sim.stages):
        into = passed = 0.0
        ahead = {}
        for node, mass in reach.values():
            into += mass
            passed += mass * node[0].p_accept
            if idx + 1 < len(sim.stages):
                for br in node[0].branches:
                    child = sim._node(idx + 1, br.state)
                    ahead.setdefault(id(child), [child, 0.0])[1] += mass * br.prob
        out[spec.label] = passed / into
        reach = ahead
    return out


def _leading_order_laws(n, eta, p_e):
    """Each stage's acceptance to leading order in ``p_e`` (ROADMAP item
    11). A connect clicks on one pumped pair, with ``p_e (1 - eta)`` times
    ``2 + <n_i>`` on the normalized chain intermediate (``(2n - 2)/(2n - 3)``
    for the maximizing round, symmetric port only); a merge clicks with the
    Born weight of one or more excitations on its ensemble."""
    c = p_e * (1 - eta)
    laws = {
        "epr(1,2)": 2 * c,
        "connect(2,3)": 5 / 2 * c,
        "connect(3,4)": 13 / 6 * c,
        "connect(4,5)": 21 / 10 * c,
        "merge(2)": 2 / 5 * (1 - eta) + 2 / 5 * (1 - eta**2),
    }
    if n in (4, 5):
        laws[f"connect(1,{n})"] = {4: 6 / 5, 5: 8 / 7}[n] * c
    if eta == 0.0:
        laws.update({"merge(3)": 8 / 13, "merge(4)": 4 / 7})
        if n in (4, 5):
            laws["merge(1)"] = {4: 7 / 12, 5: 9 / 16}[n]
    return laws


@pytest.mark.parametrize("eta", [0.0, 0.3])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_stage_acceptances_follow_their_leading_order_laws(n, eta):
    # zero variance: the exact acceptances of the table against closed
    # forms, table / law - 1 = O(p_e) at three decades of p_e and any cap
    # that holds the one-pair outcomes
    checked = set()
    for cap in (4, 5, 6):
        for p_e in (1e-4, 1e-5, 1e-6):
            sim = NodeTableReference(ProtocolConfig(n=n, p_e=p_e, eta=eta, truncation_cap=cap))
            table = _stage_acceptances(sim)
            for label, law in _leading_order_laws(n, eta, p_e).items():
                if label in table:
                    assert abs(table[label] / law - 1) <= 5 * p_e, (label, cap, p_e)
                    checked.add(label)
    connects = {"epr(1,2)", *(f"connect({i},{i + 1})" for i in range(2, min(n, 5)))}
    merges = {"merge(2)"} | ({f"merge({i})" for i in range(3, min(n, 5))} if eta == 0 else set())
    maximizing = {f"connect(1,{n})"} | ({"merge(1)"} if eta == 0 else set())
    assert checked == connects | merges | (maximizing if n in (4, 5) else set())


def test_a4_growth_splits_into_the_added_pair_and_the_maximizing_pair():
    # zero variance, the attribution of the A4 gap (test_acceptance.py) at
    # its config and cap: the exact growth E[R](n+1)/E[R](n) is
    # p_pass(n)/p_pass(n+1), the stages the chains share before the
    # maximizing pair cancel bit for bit, and what is left is the added pair
    # connect(n,n+1) x merge(n) times the acceptance the maximizing pair
    # connect(1,n) x merge(1) loses
    exact = {}
    for n in range(3, 7):
        sim = NodeTableReference(ProtocolConfig(n=n, p_e=0.01, eta=0.3, truncation_cap=4))
        p_pass, fail = sim.completion(0, sim.initial_state())
        rounds = len(sim.stages) + sum((k + 1) * f for k, f in enumerate(fail)) / p_pass
        exact[n] = rounds, p_pass, _stage_acceptances(sim)
    added, lost = [], []
    for n in range(3, 6):
        (rounds, p_pass, acc), (rounds_next, p_next, acc_next) = exact[n], exact[n + 1]
        assert rounds_next / rounds == pytest.approx(p_pass / p_next, rel=1e-5, abs=0)
        maximizing = acc[f"connect(1,{n})"] * acc["merge(1)"]
        shared = [label for label in acc if label not in (f"connect(1,{n})", "merge(1)")]
        assert [acc_next[label] for label in shared] == [acc[label] for label in shared]
        added.append(1 / (acc_next[f"connect({n},{n + 1})"] * acc_next[f"merge({n})"]))
        lost.append(maximizing / (acc_next[f"connect(1,{n + 1})"] * acc_next["merge(1)"]))
        assert added[-1] * lost[-1] == pytest.approx(p_pass / p_next, rel=1e-12, abs=0)
    assert added == pytest.approx([145.39, 165.34, 175.66], rel=1e-4, abs=0)
    assert lost == pytest.approx([1.2045, 1.0962, 1.0565], rel=1e-4, abs=0)


def test_registries_hold_atomic_modes_only():
    # Stokes and retrieved photons are only ever detected: no registry of a
    # layout holds a mode for them
    base = ProtocolConfig(n=3, p_e=0.01)
    teleport_registry = make_teleport_layout(TeleportConfig(1.0, 0.0, base)).registry
    assert teleport_registry.n_modes == 8
    for n in (2, 3, 6):
        registry = make_chain_layout(ProtocolConfig(n=n, p_e=0.01)).registry
        assert registry.n_modes == n
        for mode in (*registry.modes, *teleport_registry.modes):
            assert mode.kind is ModeKind.ATOMIC


def _reached_rounds(sim, root):
    """``(stage, input state, round)`` of every node of ``sim``'s table
    below the one of ``root``, each once."""
    seen = set()
    todo = [(0, root, sim._node(0, root))]
    while todo:
        idx, state, node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield idx, state, node[0]
        if idx + 1 < len(sim.stages):
            todo += [
                (idx + 1, br.state, sim._node(idx + 1, br.state)) for br in node[0].branches
            ]


def _branch_states(dists):
    return [br.state for dist in dists for br in dist.branches]


def _assert_pruned_and_keyed(states):
    """Each state carries the key its terms give, and no term below the
    prune or with a -0.0 part; and the keys, sets of rows, group the states
    exactly as the sorted rows of the keys before them did."""
    for state in states:
        assert state.key() == key_reference(state)
        for _, a in state.items():
            assert abs(a) >= PRUNE_THRESHOLD
            assert not any(x == 0.0 and math.copysign(1.0, x) < 0 for x in (a.real, a.imag))
    keys = [state.key() for state in states]
    sorted_keys = [sorted_key_reference(state) for state in states]
    # equal keys exactly when equal sorted keys: each set of keys maps one
    # to one onto the other
    assert len(set(keys)) == len(set(sorted_keys)) == len(set(zip(keys, sorted_keys)))
    assert len(set(keys)) < len(keys)  # some states do share a key


@pytest.mark.parametrize("cap", [3, 4, 5, 6])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_branch_states_are_born_pruned_with_their_key(n, cap):
    # a round makes each branch state pruned in one pass, and its key is
    # the one its terms give, for every branch of the grid's tables
    states = []
    for eta, p_e, double_pair, finite in ROUND_GRID:
        cfg = ProtocolConfig(
            n=n, p_e=p_e, eta=eta, truncation_cap=cap,
            second_order_pump=double_pair, **finite,
        )
        sim = NodeTableReference(cfg)
        sim.completion(0, sim.initial_state())
        states += _branch_states(node[0] for node in sim._nodes.values())
    _assert_pruned_and_keyed(states)
    assert len(states) > len(ROUND_GRID)


@pytest.mark.parametrize("cap", [4, 5])
@pytest.mark.parametrize("eta", [0.0, 0.2])
def test_teleport_branch_states_are_born_pruned_with_their_key(eta, cap):
    # the same for the chain table of a teleport trial and its rounds
    base = ProtocolConfig(n=3, p_e=0.05, eta=eta, truncation_cap=cap, phases=(0.0, 0.6, -0.9))
    sim = TeleportSimulator(TeleportConfig(complex(0.3, 0.5), complex(math.sqrt(0.66), 0), base))
    terminals = _terminal_states(sim.chain)
    pairs = list(product(terminals, repeat=2))
    table = NodeTableReference(base.table_config())
    table.completion(0, table.initial_state())
    nodes = list(table._nodes.values())
    dists = [node[0] for node in nodes] + [sim.round_distribution(*w) for w in pairs]
    states = _branch_states(dists)
    _assert_pruned_and_keyed(states)
    assert len(states) > len(nodes) + len(pairs)


def test_merged_branches_keep_the_post_of_their_own_first_leaf():
    # two sectors herald the same state to 12 digits, in different last
    # bits. The (2, 0) sector's post is keyed first, through its no-loss
    # leaf; the one-loss branch first reaches the (1, 1) sector's post, and
    # keeps it when the (2, 0) sector's one-loss leaf merges into it
    reg = ModeRegistry()
    reg.add_atomic("a")
    reg.seal()
    state = FockState.vacuum(reg, 3)
    sectors = {(1, 1): {(1,): 2.0 + 0j}, (2, 0): {(1,): 3.0 + 1e-17j}}
    herald = protocol._Herald(("D1", "D2"), (((True, False), ()),), (0, 1, 2, 3))
    dist = protocol._heralded(state, sectors, herald, 1.0, 0.5)
    no_loss, one_loss = dist.branches
    assert (no_loss.detected, no_loss.lost) == ((2, 0), 0)
    assert (one_loss.detected, one_loss.lost) == ((1, 0), 1)
    assert no_loss.state.key() == one_loss.state.key()
    assert dict(no_loss.state.items()) == {(1,): (3.0 + 1e-17j) / 3.0}
    assert dict(one_loss.state.items()) == {(1,): 1.0 + 0j}
    # shares 4/13 and 9/13; per port C(l + d, l) 0.5^l 0.5^d
    assert one_loss.prob == 4 / 13 * (1.0 * 0.5) * (0.5 * 1.0) + 9 / 13 * (2 * 0.5 * 0.5) * 1.0
    assert no_loss.prob == 9 / 13 * (0.5 * 0.5) * 1.0


def test_conditioned_prunes_what_normalizing_takes_below_the_threshold():
    # a term at the threshold before normalizing falls below it after
    layout = make_chain_layout(ProtocolConfig(n=3, p_e=0.0))
    big, small = (1, 0, 0), (0, 1, 0)
    terms = {big: 1.0 + 0j, small: PRUNE_THRESHOLD + 0j}
    post = protocol._conditioned(layout.vacuum(), terms, 4.0, ())
    assert dict(post.items()) == {big: 0.5 + 0j}
    assert post.key() == key_reference(post)


@settings(max_examples=40, deadline=None)
@given(
    grid=st.sampled_from(ROUND_GRID),
    n=st.integers(3, 6),
    cap=st.integers(3, 6),
    theta=st.floats(0.0, math.pi),
)
def test_reached_rounds_account_for_all_their_mass(grid, n, cap, theta):
    # every connect, merge and teleport round the tables reach: accepted,
    # rejected and dropped mass sum to one, and the cap truncates pumped
    # mass exactly when some term has no room for every pumped pair
    eta, p_e, double_pair, finite = grid
    cfg = ProtocolConfig(
        n=n, p_e=p_e, eta=eta, truncation_cap=cap, second_order_pump=double_pair,
        **finite,
    )
    pairs = 2 * (2 if double_pair else 1)  # pumped on the two ensembles at most
    sim = NodeTableReference(cfg)
    rounds = [
        (sim.stages[idx].kind, state, dist)
        for idx, state, dist in _reached_rounds(sim, sim.initial_state())
    ]
    if n == 3:
        tsim = TeleportSimulator(TeleportConfig(math.cos(theta), math.sin(theta), cfg))
        terminals = _terminal_states(tsim.chain)
        for w in product(terminals, repeat=2):
            rounds.append(("teleport", tsim.joint_state(*w), tsim.round_distribution(*w)))
    for kind, state, dist in rounds:
        assert dist.p_accept + dist.rejected + dist.dropped == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= dist.truncated < 1.0
        room = max(sum(occ) for occ, _ in state.items()) + 2 * pairs <= cap
        if kind != "connect" or room:
            assert dist.truncated == 0.0
        else:
            assert dist.truncated > 0.0


@pytest.mark.parametrize("eta", [0.0, 0.1, 0.3, 0.7])
@pytest.mark.parametrize("p", [1e-3, 0.01, 0.05])
def test_epr_round_from_the_vacuum_matches_its_closed_form(p, eta):
    # one pair (2p of the (1+p)^2 norm) clicks either port after loss; two
    # pairs bunch in one port (Hong-Ou-Mandel) and click unless both are lost
    cfg = ProtocolConfig(n=2, p_e=p, eta=eta, second_order_pump=False, truncation_cap=4)
    layout = make_chain_layout(cfg)
    dist = connect_round(layout.vacuum(), layout, 1, 2, cfg)
    z = (1 + p) ** 2
    p_accept = (2 * p * (1 - eta) + p**2 * (1 - eta**2)) / z
    want = {}
    for one, two in (((1, 0), (2, 0)), ((0, 1), (0, 2))):
        want[one, 0] = p * (1 - eta) / z
        want[two, 0] = p**2 * (1 - eta) ** 2 / 2 / z
        if eta:
            want[one, 1] = p**2 * eta * (1 - eta) / z
    got = {(b.detected, b.lost): b.prob for b in dist.branches}
    assert got == pytest.approx(want, rel=1e-14, abs=0)
    assert dist.p_accept == pytest.approx(p_accept, rel=1e-14, abs=0)
    assert dist.rejected == pytest.approx(1 - p_accept, rel=1e-14, abs=0)
    assert dist.dropped == 0.0


@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_epr_round_drops_double_pairs_below_the_floor(eta):
    # at p = 1e-9 every two-pair outcome is below _PROB_FLOOR = 1e-18, so
    # the whole two-pair mass p^2 / (1+p)^2 is dropped, none of it rejected
    p = 1e-9
    cfg = ProtocolConfig(n=2, p_e=p, eta=eta, second_order_pump=False)
    layout = make_chain_layout(cfg)
    dist = connect_round(layout.vacuum(), layout, 1, 2, cfg)
    z = (1 + p) ** 2
    assert [(b.detected, b.lost) for b in dist.branches] == [((0, 1), 0), ((1, 0), 0)]
    assert dist.p_accept == pytest.approx(2 * p * (1 - eta) / z, rel=1e-14, abs=0)
    assert dist.dropped == pytest.approx(p**2 / z, rel=1e-14, abs=0)


def _random_state(registry, modes, cap, amps):
    """``sum amps[k] |occupation k>`` over a few occupations of ``modes``
    holding at most two excitations."""
    occs = [(), (0,), (1,), (0, 1), (0, 0), (2,)][: len(amps)]
    terms = {}
    for amp, occ in zip(amps, occs):
        full = [0] * registry.n_modes
        for k in occ:
            full[modes[k % len(modes)].index] += 1
        terms[tuple(full)] = terms.get(tuple(full), 0j) + amp
    return FockState(registry, terms, cap)


_AMPS = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
).filter(lambda amps: sum(abs(a) ** 2 for a in amps) > 1e-6)


@settings(max_examples=60, deadline=None)
@given(
    amps=_AMPS,
    p_e=st.one_of(st.just(0.0), st.floats(1e-12, 0.1)),
    eta=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    cap=st.integers(2, 5),
    double_pair=st.booleans(),
    pair=st.sampled_from([(1, 2), (2, 3), (1, 3)]),
    symmetric_port_only=st.booleans(),
)
def test_connect_round_accounts_for_all_its_mass(
    amps, p_e, eta, cap, double_pair, pair, symmetric_port_only
):
    cfg = ProtocolConfig(
        n=3, p_e=p_e, eta=eta, truncation_cap=cap, second_order_pump=double_pair
    )
    layout = make_chain_layout(cfg)
    state = normalize(_random_state(layout.registry, layout.ensembles, cap, amps))
    dist = connect_round(state, layout, *pair, cfg, ("D1", "D2"), symmetric_port_only)
    assert min(dist.p_accept, dist.rejected, dist.dropped) >= 0.0
    assert dist.p_accept + dist.rejected + dist.dropped == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    amps=_AMPS,
    theta=st.floats(0.0, math.pi),
    eta=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    cap=st.integers(3, 5),
)
def test_teleport_round_accounts_for_all_its_mass(amps, theta, eta, cap):
    base = ProtocolConfig(n=3, p_e=0.01, eta=eta, truncation_cap=cap)
    tcfg = TeleportConfig(math.cos(theta), math.sin(theta), base)
    layout = make_teleport_layout(tcfg)
    # the retrieved ensembles 1 and 4 first, so that photons reach the ports
    modes = (layout.ensembles[0], layout.ensembles[3], *layout.ensembles[1:3])
    joint = _random_state(layout.registry, modes, cap, amps)
    psi = qubit_state(tcfg, joint, (layout.mode_l, layout.mode_r))
    dist = teleport_round(psi, layout, base)
    assert min(dist.p_accept, dist.rejected, dist.dropped) >= 0.0
    assert dist.p_accept + dist.rejected + dist.dropped == pytest.approx(1.0, abs=1e-12)


def _terminal_states(sim):
    """The states a completed pass of ``sim`` can end in."""
    return [br.state for br in sim.terminals]


def test_teleport_rounds_match_reference_walk():
    amplitudes = ((0.6, 0.8), (complex(0.3, 0.5), complex(math.sqrt(0.66), 0.0)))
    for eta in (0.0, 1e-9, 0.2):  # 1e-9: lossy paths cut by the floor
        for cap in (4, 5):
            base = ProtocolConfig(
                n=3, p_e=0.05, eta=eta, truncation_cap=cap, phases=(0.0, 0.6, -0.9)
            )
            tcfg = TeleportConfig(*amplitudes[cap - 4], base)
            sim = TeleportSimulator(tcfg)
            terminals = _terminal_states(sim.chain)
            joints = [exact_double_w_state(tcfg, sim.layout)]
            joints += [sim.joint_state(*w) for w in product(terminals, repeat=2)]
            for joint in joints:
                psi = qubit_state(tcfg, joint, (sim.layout.mode_l, sim.layout.mode_r))
                _assert_same_round(
                    teleport_round(psi, sim.layout, base),
                    teleport_round_reference(psi, sim.layout, base),
                )


def test_warm_trials_hash_no_state(monkeypatch):
    # after a warm-up trial no trial keys a state: it draws its final branch
    # from the table's terminal law
    in_budget = ChainSimulator(ProtocolConfig(n=3, p_e=0.05, eta=0.1))
    exhausted = ChainSimulator(ProtocolConfig(n=3, p_e=0.02, max_attempts=200))
    for sim in (in_budget, exhausted):
        sim.run_trial(np.random.default_rng(0))

    def refuse(self):
        raise AssertionError("FockState.key called by a warm trial")

    monkeypatch.setattr(FockState, "key", refuse)
    rng = np.random.default_rng(1)
    assert all(in_budget.run_trial(rng).succeeded for _ in range(300))
    assert sum(exhausted.run_trial(rng).succeeded for _ in range(50)) < 50


def test_exhausted_trace_trials_log_no_clicks():
    # a trial that runs out of rounds reports no clicks, not those of a pass
    # it abandoned
    sim = ChainSimulator(ProtocolConfig(n=3, p_e=0.05, max_attempts=30))
    exhausted = 0
    for seed in range(300):
        res = sim.run_trial(np.random.default_rng(seed))
        if not res.succeeded:
            exhausted += 1
            assert res.click_log == ()
            assert res.attempts == sum(res.stage_attempts) == 30
    assert exhausted > 250


def test_trace_trials_that_cannot_complete_spend_the_budget_at_once():
    # at cap 2 no pass gets through; walked round by round, the default
    # budget of 10**15 rounds would take decades, so it is spent at once
    for n in (3, 4, 5, 6):
        cfg = ProtocolConfig(n=n, p_e=0.1, eta=0.3, truncation_cap=2)
        sim = ChainSimulator(cfg)
        assert sim.completion(0, sim.initial_state())[0] == 0.0
        res = sim.run_trial(np.random.default_rng(n))
        assert not res.succeeded
        assert res.attempts == sum(res.stage_attempts) == cfg.max_attempts == 10**15
        assert sim.terminals == () and sim._ends.size == 0  # an empty terminal law
        with pytest.raises(AttemptsExhaustedError):
            build_w_chain(cfg, np.random.default_rng(n))


def _assert_trials_match_reference(sim, seed):
    """``sim.run_trial`` against the per-trial reference on 200 trials drawn
    in turn from the first block stream of ``seed``: the same result field
    for field, and the same next draw.  Returns the set of outcomes seen."""
    outcomes = set()
    a, b = rng_for_trial(seed, 0), rng_for_trial(seed, 0)
    for _ in range(200):
        got = sim.run_trial(a)
        assert got == run_trial_reference(sim, b)
        assert a.random() == b.random()
        outcomes.add(got.succeeded)
    return outcomes


CHAIN_CASES = [
    (ProtocolConfig(n=3, p_e=0.1, eta=0.3, seed=1), (epr_stage(1, 2),), {True}),
    *(
        (ProtocolConfig(n=n, p_e=0.05, eta=0.1, truncation_cap=cap, seed=n + cap), None, {True})
        for n in (3, 4, 5, 6)
        for cap in (3, 4, 5)
    ),
    # a budget that about one trial in ten completes within, so both
    # outcomes show on any stream
    (ProtocolConfig(n=3, p_e=0.02, seed=4, max_attempts=5000), None, {True, False}),
    (ProtocolConfig(n=4, p_e=0.0, seed=5, max_attempts=40), None, {False}),
]


@pytest.mark.parametrize(
    "cfg, stages, outcomes",
    CHAIN_CASES,
    ids=["epr", *(f"w{n}-cap{cap}" for n in (3, 4, 5, 6) for cap in (3, 4, 5)),
         "w3-exhausted", "hopeless"],
)
def test_run_trial_matches_the_per_trial_reference(cfg, stages, outcomes):
    # the columnar sampler, one trial at a time, against the per-trial draw
    # of the final branch and tally
    sim = ChainSimulator(cfg, stages=stages)
    assert _assert_trials_match_reference(sim, cfg.seed) == outcomes


@pytest.mark.parametrize("n", [None, 3, 4, 5, 6])  # None: the one-stage EPR chain
@pytest.mark.parametrize("cap", [3, 4, 5, 6])
def test_terminal_law_matches_the_sum_over_complete_paths(n, cap):
    # the forward pass over the table against the recursive sum over every
    # complete path: the same final branches in the same order, and running
    # sums that agree within a few ulps, with a total of one (the grid's
    # worst cases read 3.6 and 2.5 units of 2**-52)
    ulps = 8 * 2.0**-52
    stages = (epr_stage(1, 2),) if n is None else None
    for eta in (0.0, 0.3):
        sim = ChainSimulator(
            ProtocolConfig(n=n or 3, p_e=0.02, eta=eta, truncation_cap=cap), stages=stages
        )
        terminals, law = terminal_law_reference(sim)
        assert len(sim.terminals) == len(terminals) > 0
        assert same_terminals(sim.terminals, terminals)
        assert sim._ends.tolist() == pytest.approx(list(accumulate(law)), rel=ulps, abs=0)
        assert abs(sim._ends[-1] - 1.0) <= ulps


# ---------------------------------------------------------------------------
# single-step functions against rounds drawn straight from their enumerators
# ---------------------------------------------------------------------------


def _outcomes_against_reference(step, reference):
    """Run ``step`` and ``reference`` on the same seeds 0..199; they must
    agree on every field and leave their generators in the same place.
    Returns the ``(succeeded, attempts)`` pairs seen."""
    seen = set()
    for seed in range(200):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out, ref = step(rng), reference(ref_rng)
        assert (out.succeeded, out.attempts, out.click_log, out.correct_clicks) == (
            ref.succeeded, ref.attempts, ref.click_log, ref.correct_clicks
        )
        assert (out.state is None) == (ref.state is None)
        assert out.state is None or out.state.key() == ref.state.key()
        assert rng.random() == ref_rng.random()
        seen.add((out.succeeded, out.attempts))
    return seen


def test_teleport_from_states_matches_reference_round():
    base = ProtocolConfig(n=3, p_e=0.01, eta=0.2, phases=(0.0, 0.6, -0.9))
    tcfg = TeleportConfig(complex(0.3, 0.5), complex(math.sqrt(0.66), 0.0), base)
    layout = make_teleport_layout(tcfg)
    joint = exact_double_w_state(tcfg, layout)
    seen = _outcomes_against_reference(
        lambda rng: teleport_from_states(tcfg, rng, layout, joint),
        lambda rng: teleport_from_states_reference(tcfg, rng, layout, joint),
    )
    assert seen == {(True, 1), (False, 1)}


@given(
    weights=st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 1e-300)),
        min_size=1,
        max_size=12,
    ),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
def test_pick_matches_the_running_sum_loop(weights, u):
    branches = list(range(len(weights)))
    cum = list(accumulate(weights))
    total = cum[-1]
    # random points, every running sum exactly, and the total and beyond
    xs = (u, u * total, *cum, total, math.nextafter(total, 2.0), 2.0)
    for x in xs:
        assert protocol.pick(branches, x, cum) == pick_reference(branches, x, weights)
    # the vectorized draw, on the same running sums and points at once
    picked = protocol.choose(np.array(cum), np.array(xs))
    assert picked.tolist() == [pick_reference(branches, x, weights) for x in xs]


def _instrument(dist):
    """``{clicks: E_c}`` of a round: per click record, the operator
    ``sum_b p_b |psi_b><psi_b|`` over the record's accepted branches, as a
    dict of matrix elements."""
    out = {}
    for br in dist.branches:
        rho = out.setdefault(br.clicks, {})
        for o1, a1 in br.state.items():
            for o2, a2 in br.state.items():
                rho[o1, o2] = rho.get((o1, o2), 0j) + br.prob * a1 * a2.conjugate()
    return out


@settings(max_examples=30, deadline=None)
@given(
    eta=st.sampled_from([0.0, 0.1, 0.3]),
    cap=st.integers(3, 5),
    theta=st.sampled_from([0.0, math.pi / 2]),
)
def test_the_teleport_round_is_linear_in_its_input(eta, cap, theta):
    # a round is a quantum instrument: per click record c, E_c(psi) is
    # linear in |psi><psi|, so for the W pair with the qubit on |1_L> (psi1)
    # and on |1_R> (psi2), and psi+- = (psi1 +- e^{i theta} psi2)/sqrt(2),
    # E_c(psi+) + E_c(psi-) = E_c(psi1) + E_c(psi2), within the four rounds'
    # truncated and dropped mass and 1e-15 of float rounding
    base = ProtocolConfig(n=3, p_e=0.02, eta=eta, truncation_cap=cap)
    layout = make_teleport_layout(TeleportConfig(1.0, 0.0, base))
    joint = exact_double_w_state(TeleportConfig(1.0, 0.0, base), layout)
    pair = (layout.mode_l, layout.mode_r)
    psi1 = qubit_state(TeleportConfig(1.0, 0.0, base), joint, pair)
    psi2 = qubit_state(TeleportConfig(0.0, 1.0, base), joint, pair)
    e = cmath.rect(1.0, theta)
    plus = qubit_state(TeleportConfig(1 / math.sqrt(2), e / math.sqrt(2), base), joint, pair)
    minus = qubit_state(TeleportConfig(1 / math.sqrt(2), -e / math.sqrt(2), base), joint, pair)
    dists = [teleport_round(psi, layout, base) for psi in (plus, minus, psi1, psi2)]
    tol = sum(d.truncated + d.dropped for d in dists) + 1e-15
    sides = [_instrument(dists[0]), _instrument(dists[1])], [
        _instrument(dists[2]), _instrument(dists[3])
    ]
    records = {c for side in sides for e_c in side for c in e_c}
    assert records  # the round accepts some click records
    for c in records:
        left, right = ({}, {})
        for total, side in ((left, sides[0]), (right, sides[1])):
            for e_c in side:
                for k, x in e_c.get(c, {}).items():
                    total[k] = total.get(k, 0j) + x
        keys = left.keys() | right.keys()
        assert max(abs(left.get(k, 0j) - right.get(k, 0j)) for k in keys) <= tol, c
