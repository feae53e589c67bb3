import math
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wclass_sim import protocol
from wclass_sim.errors import AttemptsExhaustedError, PreconditionError
from wclass_sim.fock import (
    FockState,
    count_excitations,
    debug_serialize,
    equal_up_to_global_phase,
    fidelity,
    inner_product,
    normalize,
)
from wclass_sim.protocol import (
    ChainSimulator,
    Holder,
    ProtocolConfig,
    TeleportConfig,
    TeleportSimulator,
    build_w_chain,
    chain_stages,
    connect_applied,
    connect_round,
    epr_stage,
    epr_state,
    exact_double_w_state,
    ideal_w_state,
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
    as_state,
    completion_reference,
    connect_applied_reference,
    connect_round_reference,
    epr_amplitudes,
    epr_state_reference,
    exact_double_w_state_reference,
    ideal_w_state_reference,
    merged_amplitudes,
    pick_reference,
    receiver_amplitudes,
    step2_amplitudes,
    teleport_from_states_reference,
    receiver_targets_reference,
    teleport_round_reference,
    teleport_target_state_reference,
    unknown_prepared_reference,
    w_m_amplitudes,
    w_prime_amplitudes,
    w_prime_state_reference,
    w_state_by_operators_reference,
)


def random_phases(n, rng):
    return (0.0,) + tuple(rng.uniform(-math.pi, math.pi, n - 1))


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
    for occ in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        full = occ + (0, 0, 0)
        assert w3.amplitude(full) == pytest.approx(1 / math.sqrt(3))
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
    return debug_serialize(state), state.overflow, state.truncation_cap


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
        out = prepare_epr(cfg, 1, 2, rng, layout)
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
    cfg = ProtocolConfig(n=3, p_e=0.01, eta=0.0, seed=1, phases=(0.0, 0.2, 1.1))
    layout = make_chain_layout(cfg)
    dist = connect_round(layout.vacuum(), layout, 2, 3, cfg)
    top = max(dist.branches, key=lambda b: b.prob)
    want = as_state(layout, epr_amplitudes(3, 2, 3, cfg.phases[2] - cfg.phases[1]))
    assert equal_up_to_global_phase(top.state, want, 1e-10)


def test_connect_on_pair_reproduces_three_party_state_both_ports():
    cfg = ProtocolConfig(n=3, p_e=0.01, eta=0.0, seed=1, phases=(0.0, -0.8, 0.5))
    layout = make_chain_layout(cfg)
    pair = epr_state(layout, 1, 2, cfg.phases[1])
    dist = connect_round(pair, layout, 2, 3, cfg)
    want = as_state(layout, step2_amplitudes(cfg.phases[1], cfg.phases[2] - cfg.phases[1]))
    # every single-photon click branch (either detector) matches after the
    # feed-forward correction
    singles = [b for b in dist.branches if sum(b.detected) == 1]
    assert len(singles) == 2
    for br in singles:
        assert equal_up_to_global_phase(br.state, want, 1e-10)


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
    assert ChainSimulator(cfg, layout, merge_2).completion(0, vac) == (0.0, (1.0,))


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
            wp = normalize(w_prime_state(n, cfg.phases, layout))
            sim = ChainSimulator(cfg, layout, chain_stages(n)[-2:])
            pc, fails = sim.completion(0, wp)
            assert (pc, fails) == completion_reference(sim.stages, layout, cfg, wp)
            if eta == 0.0:
                # the genuine herald is exact and the only way through
                assert pc == pytest.approx(p_complete, rel=1e-12, abs=0)
                (w,) = _terminal_states(sim, [wp])
                target = ideal_w_state(n, cfg.phases, layout)
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
    out = build_w_chain(cfg, np.random.default_rng(21), layout)
    assert out.succeeded
    assert out.state.norm() == pytest.approx(1.0, abs=1e-10)
    assert set(out.stage_attempts) == {s.label for s in chain_stages(3)}
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
        assert equal_up_to_global_phase(
            state, ideal_w_state(n, cfg.phases, layout), 1e-10
        )
        wp = normalize(w_prime_state(n, cfg.phases, layout))
        pre_max = sim.initial_state()
        for idx in range(len(sim.stages) - 2):
            dist = sim.round_distribution(idx, pre_max)
            pre_max = max(dist.branches, key=lambda b: b.prob).state
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
    # same seed, phases on vs off: compensating the phased run reproduces
    # the zero-phase run exactly (branch topology is phase independent)
    phases = (0.0, 0.7, -1.1)
    cfg_ph = ProtocolConfig(n=3, p_e=0.01, eta=0.2, seed=33, phases=phases)
    cfg_0 = ProtocolConfig(n=3, p_e=0.01, eta=0.2, seed=33)
    sim_ph, sim_0 = ChainSimulator(cfg_ph), ChainSimulator(cfg_0)
    for t in range(10):
        r_ph = sim_ph.run_trial(np.random.default_rng(t))
        r_0 = sim_0.run_trial(np.random.default_rng(t))
        assert r_ph.rounds == r_0.rounds
        comp = phase_compensate(r_ph.final_state, phases, sim_ph.layout.ensembles)
        # lift the zero-phase result into the phased registry to compare rays
        lifted = comp.replace_terms(dict(r_0.final_state.items()))
        assert equal_up_to_global_phase(comp, lifted, 1e-10)


def _terminal_links(sim):
    return [
        br for node in sim._nodes.values() for br, child in node.links if child is None
    ]


@pytest.mark.parametrize("n", [None, 3, 4, 5])  # None: the one-stage EPR chain
@pytest.mark.parametrize("cap", [3, 4, 5])
def test_channel_phases_leave_the_chain_table_unchanged(n, cap):
    # the phases are a gauge: the table has the same shape and odds, and
    # each terminal state is as close to its phase-matched W state
    stages = (epr_stage(1, 2),) if n is None else chain_stages(n)
    m = n or 2
    phases = random_phases(m, np.random.default_rng(100 * m + cap))
    for eta, p_e, double_pair, finite in product(
        (0.0, 0.3), (0.01, 0.05), (True, False), ({}, {"n_a": 100.0, "finite_size": True})
    ):
        tables = []
        for ph in ((0.0,) * m, phases):
            cfg = ProtocolConfig(
                n=m, p_e=p_e, eta=eta, phases=ph, truncation_cap=cap,
                second_order_pump=double_pair, **finite,
            )
            sim = ChainSimulator(cfg, stages=stages)
            p_pass, fails = sim.completion(0, sim.initial_state())
            target = ideal_w_state(m, ph, sim.layout)
            terminals = [(br.prob, fidelity(br.state, target)) for br in _terminal_links(sim)]
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
        if out.succeeded and out.info["correct_clicks"]:
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
        if out.succeeded and out.info["correct_clicks"]:
            assert equal_up_to_global_phase(out.state, want, 1e-10)
            return
    pytest.fail("no correct-click acceptance in 120 rounds")


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


def test_teleport_refuses_a_simulator_of_another_config():
    base = ProtocolConfig(n=3, p_e=0.05, eta=0.1, truncation_cap=5)
    tcfg = TeleportConfig(0.6, 0.8, base)
    other = TeleportConfig(0.8, 0.6, base)
    with pytest.raises(ValueError):
        teleport(tcfg, np.random.default_rng(1), sim=TeleportSimulator(other))


@pytest.mark.parametrize("n", [None, 3, 4, 5, 6])  # None: the one-stage EPR chain
@pytest.mark.parametrize("cap", [3, 4])
@pytest.mark.parametrize("double_pair", [True, False])
@pytest.mark.parametrize("eta", [0.0, 0.3])
def test_completion_table_matches_plain_recursion(n, cap, double_pair, eta):
    stages = (epr_stage(1, 2),) if n is None else chain_stages(n)
    for finite in ({}, {"n_a": 100.0, "finite_size": True}):
        cfg = ProtocolConfig(
            n=n or 2, p_e=0.01, eta=eta, truncation_cap=cap,
            second_order_pump=double_pair, **finite,
        )
        sim = ChainSimulator(cfg, stages=stages)
        vac = sim.initial_state()
        p_pass, fails = sim.completion(0, vac)
        # exact when each (stage, key) is represented by its first state, as
        # in the table; each path's own state moves the last bits only
        assert (p_pass, fails) == completion_reference(
            sim.stages, sim.layout, cfg, vac, seen={}
        )
        own_pc, own_fails = completion_reference(sim.stages, sim.layout, cfg, vac)
        assert (p_pass, *fails) == pytest.approx((own_pc, *own_fails), rel=1e-14, abs=0)
        assert abs(p_pass + sum(fails) - 1.0) < 1e-12


def _assert_same_round(dist, ref):
    # the oracles walk loss and detection one mode at a time, normalizing
    # at every level; the sector law rounds less, so only last bits differ
    assert [(b.clicks, b.detected, b.lost) for b in dist.branches] == [
        (b.clicks, b.detected, b.lost) for b in ref.branches
    ]
    assert dist.p_accept == pytest.approx(ref.p_accept, rel=1e-14, abs=0)
    for got, want in zip(dist.branches, ref.branches):
        assert got.prob == pytest.approx(want.prob, rel=1e-14, abs=0)
        occs = {occ for occ, _ in got.state.items()} | {occ for occ, _ in want.state.items()}
        assert max(abs(got.state.amplitude(o) - want.state.amplitude(o)) for o in occs) <= 1e-14


def test_connect_rounds_match_reference_loop(monkeypatch):
    # every connect node of the chain tables, against the four-deep loop
    real = protocol.connect_round
    inputs = []

    def checked(state, layout, i, j, cfg, *args):
        dist = real(state, layout, i, j, cfg, *args)
        _assert_same_round(dist, connect_round_reference(state, layout, i, j, cfg, *args))
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
    for kw in grid:
        sim = ChainSimulator(ProtocolConfig(**{"p_e": 0.01, **kw}))
        sim.completion(0, sim.initial_state())
    assert len(set(inputs)) == len(grid)


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


def _terminal_states(sim, roots):
    """The states a completed pass of ``sim`` can end in, from ``roots``."""
    for state in roots:
        sim.completion(0, state)
    return [br.state for br in _terminal_links(sim)]


def test_teleport_rounds_match_reference_walk():
    amplitudes = ((0.6, 0.8), (complex(0.3, 0.5), complex(math.sqrt(0.66), 0.0)))
    for eta in (0.0, 1e-9, 0.2):  # 1e-9: lossy paths cut by the floor
        for cap in (4, 5):
            base = ProtocolConfig(
                n=3, p_e=0.05, eta=eta, truncation_cap=cap, phases=(0.0, 0.6, -0.9)
            )
            tcfg = TeleportConfig(*amplitudes[cap - 4], base)
            sim = TeleportSimulator(tcfg)
            w123 = _terminal_states(sim.w123, [sim.w123.initial_state()])
            joints = [exact_double_w_state(tcfg, sim.layout)]
            joints += _terminal_states(sim.w456, w123)
            for joint in joints:
                psi = qubit_state(tcfg, joint, (sim.layout.mode_l, sim.layout.mode_r))
                _assert_same_round(
                    teleport_round(psi, sim.layout, base),
                    teleport_round_reference(psi, sim.layout, base),
                )


def test_warm_trials_hash_no_state(monkeypatch):
    # after a warm-up trial every pass is a walk along the node table's links
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
            assert res.rounds == sum(res.stage_attempts) == 30
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
        assert res.rounds == sum(res.stage_attempts) == cfg.max_attempts == 10**15
        with pytest.raises(AttemptsExhaustedError):
            build_w_chain(cfg, np.random.default_rng(n))


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
        assert (out.succeeded, out.attempts, out.click_log, out.info) == (
            ref.succeeded, ref.attempts, ref.click_log, ref.info
        )
        assert out.state.key() == ref.state.key()
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
    for x in (u, u * total, *cum, total, math.nextafter(total, 2.0), 2.0):
        assert protocol.pick(branches, x, cum) == pick_reference(branches, x, weights)
