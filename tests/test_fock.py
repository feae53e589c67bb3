import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wclass_sim.errors import ModeError, NormalizationError, RegistryError
from wclass_sim.fock import (
    PRUNE_THRESHOLD,
    CollectiveModeModel,
    FockState,
    ModeKind,
    ModeRegistry,
    annihilate,
    count_excitations,
    create,
    debug_serialize,
    equal_up_to_global_phase,
    fidelity,
    inner_product,
    normalize,
    superpose,
)
from wclass_sim.optics import (
    BeamSplitterSpec,
    apply_beam_splitter,
    apply_phase,
    detection_outcomes,
    loss_outcomes,
)
from wclass_sim.protocol import ProtocolConfig, make_chain_layout, w_prime_state

from oracle_helpers import as_state, receiver_amplitudes, w_m_amplitudes


def small_registry(n_atomic=2, collective=None):
    reg = ModeRegistry(collective)
    for i in range(n_atomic):
        reg.add_atomic(f"a{i}")
    reg.add_photonic("ph")
    return reg.seal()


def test_registry_seals_and_checks_modes():
    reg = ModeRegistry()
    m = reg.add_atomic("a")
    reg.seal()
    with pytest.raises(ModeError):
        reg.add_atomic("late")
    other = ModeRegistry()
    alien = other.add_atomic("x")
    other.seal()
    with pytest.raises(ModeError):
        reg.check_mode(alien)
    assert reg.check_mode(m) is m
    assert m.kind is ModeKind.ATOMIC


def test_create_single_and_double_excitation():
    reg = small_registry()
    m = reg.modes[0]
    vac = FockState.vacuum(reg)
    one = create(vac, m)
    assert one.amplitude((1, 0, 0)) == pytest.approx(1.0)
    two = create(one, m)
    assert two.amplitude((2, 0, 0)) == pytest.approx(math.sqrt(2))


def test_bosonic_identity_a_adag_adag():
    # a a+ a+ |0> = 2 a+ |0>
    reg = small_registry()
    m = reg.modes[0]
    state = annihilate(create(create(FockState.vacuum(reg), m), m), m)
    assert abs(state.amplitude((1, 0, 0)) - 2.0) < 1e-12
    assert state.n_terms == 1


def test_finite_size_scaling_matches_collective_mode():
    # with N_a atoms: a a+ a+ |0> = 2 (N_a - 1)/N_a a+ |0>
    n_a = 1000.0
    reg = small_registry(collective=CollectiveModeModel(n_a, True))
    m = reg.modes[0]
    state = annihilate(create(create(FockState.vacuum(reg), m), m), m)
    assert abs(state.amplitude((1, 0, 0)) - 2.0 * (n_a - 1) / n_a) < 1e-12
    # photonic modes stay ideal bosons
    ph = reg.modes[2]
    state = annihilate(create(create(FockState.vacuum(reg), ph), ph), ph)
    assert abs(state.amplitude((0, 0, 1)) - 2.0) < 1e-12


def test_annihilate_vacuum_gives_zero_state():
    reg = small_registry()
    m = reg.modes[0]
    assert annihilate(FockState.vacuum(reg), m).is_zero()


def test_annihilate_single_excitation():
    reg = small_registry()
    m = reg.modes[0]
    state = annihilate(create(FockState.vacuum(reg), m), m)
    assert abs(state.amplitude((0, 0, 0)) - 1.0) < 1e-12


def test_inner_product_basics():
    reg = small_registry()
    vac = FockState.vacuum(reg)
    one = create(vac, reg.modes[0])
    assert inner_product(vac, vac) == pytest.approx(1.0)
    assert inner_product(one, vac) == 0
    other = small_registry()
    with pytest.raises(RegistryError):
        inner_product(vac, FockState.vacuum(other))


def test_w_prime_norm_squared_is_4n_minus_6():
    for n in range(3, 9):
        layout = make_chain_layout(ProtocolConfig(n=n, p_e=0.01))
        rng = np.random.default_rng(n)
        phases = (0.0,) + tuple(rng.uniform(-math.pi, math.pi, n - 1))
        wp = w_prime_state(n, phases, layout)
        assert inner_product(wp, wp).real == pytest.approx(4 * n - 6, abs=1e-10)


def test_normalize_examples():
    reg = small_registry()
    m = reg.modes[0]
    two = superpose([2.0], [create(FockState.vacuum(reg), m)])
    assert abs(normalize(two).amplitude((1, 0, 0)) - 1.0) < 1e-12
    layout = make_chain_layout(ProtocolConfig(n=3, p_e=0.01))
    wp = normalize(w_prime_state(3, (0.0, 0.0, 0.0), layout))
    # (1/sqrt 6)(s1+ + 2 s2+ + s3+)|vac>
    assert wp.amplitude((1, 0, 0, 0, 0, 0)) == pytest.approx(1 / math.sqrt(6))
    assert wp.amplitude((0, 1, 0, 0, 0, 0)) == pytest.approx(2 / math.sqrt(6))
    zero = superpose([0.0], [FockState.vacuum(reg)])
    with pytest.raises(NormalizationError):
        normalize(zero)


def test_superpose_builds_epr_and_w3():
    layout = make_chain_layout(ProtocolConfig(n=3, p_e=0.01))
    vac = layout.vacuum()
    ones = [create(vac, m) for m in layout.ensembles]
    epr = superpose([1 / math.sqrt(2)] * 2, ones[:2])
    assert epr.norm() == pytest.approx(1.0)
    assert epr.amplitude((1, 0, 0, 0, 0, 0)) == pytest.approx(1 / math.sqrt(2))
    w3 = superpose([1 / math.sqrt(3)] * 3, ones)
    oracle = as_state(layout, w_m_amplitudes(3, (0, 0, 0)))
    assert equal_up_to_global_phase(w3, oracle, 1e-12)


def test_count_excitations_on_w3_and_vacuum():
    layout = make_chain_layout(ProtocolConfig(n=3, p_e=0.01))
    w3 = as_state(layout, w_m_amplitudes(3, (0, 0, 0)))
    dist = count_excitations(w3, layout.ensembles)
    assert dist == pytest.approx({1: 1.0})
    vac_dist = count_excitations(layout.vacuum(), layout.ensembles)
    assert vac_dist == pytest.approx({0: 1.0})
    with pytest.raises(NormalizationError):
        count_excitations(superpose([0.0], [layout.vacuum()]), layout.ensembles)


def test_count_excitations_on_receiver_state():
    # Carol's pair carries the excitation with probability 1/2: expand the
    # receiver state and add the squared magnitudes on parties (3, 6).
    layout = make_chain_layout(ProtocolConfig(n=4, p_e=0.01))
    amps = receiver_amplitudes(0.6 + 0.0j, 0.8j, 0.3, -0.7)
    state = as_state(layout, amps, parties=(1, 2, 3, 4))  # stand-ins for 2,3,5,6
    carol = (layout.ensembles[1], layout.ensembles[3])  # parties 3 and 6
    dist = count_excitations(state, carol)
    assert dist[1] == pytest.approx(0.5, abs=1e-12)
    assert dist[0] == pytest.approx(0.5, abs=1e-12)


def random_state(reg, rng, n_terms=4, cap=4):
    terms = {}
    width = reg.n_modes
    for _ in range(n_terms):
        occ = tuple(int(x) for x in rng.integers(0, 2, width))
        if sum(occ) > cap:
            continue
        terms[occ] = complex(rng.normal(), rng.normal())
    if not terms:
        terms[(0,) * width] = 1.0
    return FockState(reg, terms, cap)


def test_commutation_relation_on_random_states():
    reg = small_registry(n_atomic=3)
    rng = np.random.default_rng(42)
    for _ in range(50):
        psi = random_state(reg, rng)
        m = reg.modes[int(rng.integers(0, reg.n_modes))]
        lhs = annihilate(create(psi, m), m)
        rhs = create(annihilate(psi, m), m)
        # [a, a+] = 1 on every kept term; terms at the cap boundary are
        # dropped by create, so compare on the interior only.
        for occ, amp in psi.items():
            if sum(occ) + 1 > psi.truncation_cap:
                continue
            diff = lhs.amplitude(occ) - rhs.amplitude(occ)
            assert abs(diff - amp) < 1e-12


def test_inner_product_conjugate_symmetry():
    reg = small_registry(n_atomic=3)
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = random_state(reg, rng)
        b = random_state(reg, rng)
        assert inner_product(a, b) == pytest.approx(
            inner_product(b, a).conjugate(), abs=1e-12
        )


def test_count_distribution_sums_to_one():
    reg = small_registry(n_atomic=3)
    rng = np.random.default_rng(3)
    for _ in range(25):
        psi = random_state(reg, rng)
        dist = count_excitations(psi, reg.modes[:2])
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_pruning_norm_bound():
    # dropping sub-threshold amplitudes moves the norm by at most
    # threshold * term count
    reg = small_registry()
    kept = {(1, 0, 0): 0.6, (0, 1, 0): 0.8}
    tiny = {(0, 0, 1): PRUNE_THRESHOLD / 3}
    full_norm = math.sqrt(sum(abs(a) ** 2 for a in {**kept, **tiny}.values()))
    state = FockState(reg, {**kept, **tiny})
    assert state.n_terms == 2
    assert abs(state.norm() - full_norm) <= PRUNE_THRESHOLD * 3


def test_truncation_sets_overflow_flag():
    reg = small_registry()
    m = reg.modes[0]
    state = FockState.vacuum(reg, truncation_cap=2)
    state = create(create(state, m), m)
    assert not state.overflow
    clipped = create(state, m)
    assert clipped.overflow and clipped.is_zero()


def test_unregistered_mode_raises():
    reg = small_registry()
    stranger = ModeRegistry()
    alien = stranger.add_atomic("z")
    stranger.seal()
    with pytest.raises(ModeError):
        create(FockState.vacuum(reg), alien)


def test_debug_serialization_golden():
    reg = small_registry()
    vac = FockState.vacuum(reg)
    state = superpose(
        [0.5, -0.5j], [create(vac, reg.modes[0]), create(vac, reg.modes[2])]
    )
    assert debug_serialize(state) == "0 -0.5 : 0 0 1\n0.5 0 : 1 0 0"


def test_equal_up_to_global_phase():
    reg = small_registry()
    vac = FockState.vacuum(reg)
    one = create(vac, reg.modes[0])
    phase = superpose([complex(math.cos(1.3), math.sin(1.3))], [one])
    assert equal_up_to_global_phase(one, phase, 1e-12)
    assert not equal_up_to_global_phase(one, vac, 1e-12)


def _unsealed_registry():
    reg = ModeRegistry()
    reg.add_atomic("a")
    return reg


@pytest.mark.parametrize(
    "registry, terms, cap, error",
    [
        (_unsealed_registry(), {(1,): 1.0}, 4, RegistryError),
        (small_registry(), {(1, 0, 0): 1.0}, 0, ValueError),
        (small_registry(), {(1, 0): 1.0}, 4, ValueError),
        (small_registry(), {(1, -1, 1): 1.0}, 4, ValueError),
        (small_registry(), {(2, 1, 1): 1.0}, 3, ValueError),
    ],
    ids=["unsealed", "cap-below-1", "wrong-length", "negative", "above-cap"],
)
def test_public_constructor_rejects_invalid_input(registry, terms, cap, error):
    with pytest.raises(error):
        FockState(registry, terms, cap)


# -- operators build valid states without the constructor's checks ----------

PROP_CAP = 4


def _prop_registry():
    # n_a = 3 makes the finite-size creation factor vanish at n = 3, below the cap
    reg = ModeRegistry(CollectiveModeModel(3.0, True))
    reg.add_atomic("a0")
    reg.add_atomic("a1")
    reg.add_photonic("p0")
    reg.add_photonic("p1")
    return reg.seal()


PROP_REG = _prop_registry()
PHOTONIC = PROP_REG.modes[2:]

occupations = st.lists(st.sampled_from(range(4)), max_size=PROP_CAP).map(
    lambda idx: tuple(idx.count(m) for m in range(4))
)
amplitudes = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
states = st.dictionaries(occupations, amplitudes, min_size=1, max_size=6).map(
    lambda terms: FockState(PROP_REG, terms, PROP_CAP)
)


def _bits(state):
    return sorted((occ, repr(amp)) for occ, amp in state.items())


@settings(max_examples=150, deadline=None)
@given(
    state=states,
    other=states,
    mode=st.sampled_from(PROP_REG.modes),
    port=st.sampled_from(PHOTONIC),
    phi=st.floats(-7.0, 7.0),
    coeffs=st.tuples(amplitudes, amplitudes),
    eta=st.floats(0.0, 1.0),
)
def test_operator_results_pass_the_public_constructor_unchanged(
    state, other, mode, port, phi, coeffs, eta
):
    assume(not state.is_zero())
    results = [
        create(state, mode),
        annihilate(state, mode),
        normalize(state),
        superpose(list(coeffs), [state, other]),
        apply_beam_splitter(state, BeamSplitterSpec(*PHOTONIC)),
        apply_phase(state, mode, phi),
        *(b.state for b in loss_outcomes(state, port, eta)),
        *(b.state for b in detection_outcomes(state, port)),
    ]
    for result in results:
        rebuilt = FockState(
            result.registry, dict(result.items()), result.truncation_cap, result.overflow
        )
        assert _bits(rebuilt) == _bits(result)
        assert rebuilt.overflow == result.overflow


def test_fidelity_stays_within_the_unit_interval():
    # |<w|w>|^2 / |w|^4 rounds above 1 for some W states (n = 3: 1 + 4e-16);
    # a fidelity is a probability, so it is clamped
    above = 0
    for n in range(2, 9):
        layout = make_chain_layout(ProtocolConfig(n=n, p_e=0.0))
        w = as_state(layout, w_m_amplitudes(n, (0.0,) * n))
        occ, a = next(iter(w.items()))
        nudged = w.replace_terms(
            {**dict(w.items()), occ: complex(math.nextafter(a.real, 2.0), a.imag)}
        )
        above += abs(inner_product(w, w)) ** 2 / w.norm() ** 4 > 1.0
        for other in (w, nudged):
            for f in (fidelity(w, other), fidelity(other, w)):
                assert 0.0 <= f <= 1.0
                assert f == pytest.approx(1.0, abs=1e-15)
    assert above > 0
