import ast
import math
from pathlib import Path

import numpy as np
import pytest

import wclass_sim
from wclass_sim.errors import ModeKindError, NormalizationError, ProtocolSequencingError
from wclass_sim.fock import (
    FockState,
    ModeRegistry,
    create,
    normalize,
    superpose,
)
from wclass_sim.optics import (
    BeamSplitterSpec,
    PumpSpec,
    apply_beam_splitter,
    apply_phase,
    detection_outcomes,
    loss_outcomes,
    pump_excite,
    repump_convert,
)

from oracle_helpers import (
    bs_output_amplitudes,
    binomial_pmf,
    equal_up_to_global_phase,
    squeezer_amplitude,
)


@pytest.fixture
def optics_registry():
    reg = ModeRegistry()
    reg.add_atomic("ens")
    reg.add_photonic("a")
    reg.add_photonic("b")
    return reg.seal()


def photon_pair_state(reg, na, nb):
    state = FockState.vacuum(reg, truncation_cap=6)
    a, b = reg.modes[1], reg.modes[2]
    for _ in range(na):
        state = create(state, a)
    for _ in range(nb):
        state = create(state, b)
    return normalize(state)


def test_beam_splitter_single_photon(optics_registry):
    reg = optics_registry
    bs = BeamSplitterSpec(reg.modes[1], reg.modes[2])
    out = apply_beam_splitter(photon_pair_state(reg, 1, 0), bs)
    assert out.amplitude((0, 1, 0)) == pytest.approx(1 / math.sqrt(2))
    assert out.amplitude((0, 0, 1)) == pytest.approx(1 / math.sqrt(2))


def test_beam_splitter_vacuum_invariance(optics_registry):
    reg = optics_registry
    bs = BeamSplitterSpec(reg.modes[1], reg.modes[2])
    vac = FockState.vacuum(reg)
    assert apply_beam_splitter(vac, bs).amplitude((0, 0, 0)) == pytest.approx(1.0)


def test_beam_splitter_hong_ou_mandel(optics_registry):
    reg = optics_registry
    bs = BeamSplitterSpec(reg.modes[1], reg.modes[2])
    out = apply_beam_splitter(photon_pair_state(reg, 1, 1), bs)
    assert out.amplitude((0, 2, 0)) == pytest.approx(1 / math.sqrt(2))
    assert out.amplitude((0, 0, 2)) == pytest.approx(-1 / math.sqrt(2))
    assert abs(out.amplitude((0, 1, 1))) < 1e-12


@pytest.mark.parametrize("na,nb", [(0, 1), (2, 0), (2, 1), (1, 2), (2, 2), (3, 1)])
def test_beam_splitter_matches_polynomial_oracle(optics_registry, na, nb):
    reg = optics_registry
    bs = BeamSplitterSpec(reg.modes[1], reg.modes[2])
    out = apply_beam_splitter(photon_pair_state(reg, na, nb), bs)
    for (p, q), amp in bs_output_amplitudes(na, nb).items():
        assert out.amplitude((0, p, q)) == pytest.approx(amp, abs=1e-12)
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_beam_splitter_is_an_involution(optics_registry):
    # [[1,1],[1,-1]]/sqrt(2) squares to the identity.
    reg = optics_registry
    bs = BeamSplitterSpec(reg.modes[1], reg.modes[2])
    rng = np.random.default_rng(5)
    for _ in range(20):
        terms = {}
        for _ in range(4):
            occ = (0, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
            terms[occ] = complex(rng.normal(), rng.normal())
        psi = normalize(FockState(reg, terms, 6))
        back = apply_beam_splitter(apply_beam_splitter(psi, bs), bs)
        assert equal_up_to_global_phase(back, psi, 1e-10)


def test_beam_splitter_rejects_atomic_modes(optics_registry):
    reg = optics_registry
    with pytest.raises(ModeKindError):
        BeamSplitterSpec(reg.modes[0], reg.modes[1])


def test_apply_phase_examples(optics_registry):
    reg = optics_registry
    one = photon_pair_state(reg, 1, 0)
    assert apply_phase(one, reg.modes[1], 0.0) is one
    flipped = apply_phase(one, reg.modes[1], math.pi)
    assert flipped.amplitude((0, 1, 0)) == pytest.approx(-1.0)
    rng = np.random.default_rng(1)
    psi = photon_pair_state(reg, 2, 1)
    for phi in rng.uniform(-3, 3, 5):
        roundtrip = apply_phase(apply_phase(psi, reg.modes[1], phi), reg.modes[1], -phi)
        assert equal_up_to_global_phase(roundtrip, psi, 1e-12)


def test_pump_first_order_amplitude(optics_registry):
    # a channel phase on the Stokes light, applied after the (phaseless) pump
    reg = optics_registry
    phi = 0.7
    pump = PumpSpec(reg.modes[0], reg.modes[1], 0.01)
    pumped = apply_phase(pump_excite(FockState.vacuum(reg), pump), reg.modes[1], phi)
    expect = math.sqrt(0.01) * complex(math.cos(phi), math.sin(phi))
    assert pumped.amplitude((1, 1, 0)) == pytest.approx(expect, abs=1e-12)


def test_pump_double_pair_matches_squeezer_series(optics_registry):
    # Oracle: second-order expansion of exp(lam S+A+) puts lam^2 on |2,2>.
    reg = optics_registry
    phi = -0.4
    p_e = 0.02
    pump = PumpSpec(reg.modes[0], reg.modes[1], p_e)
    pumped = apply_phase(pump_excite(FockState.vacuum(reg), pump), reg.modes[1], phi)
    assert pumped.amplitude((2, 2, 0)) == pytest.approx(
        squeezer_amplitude(p_e, phi, 2), abs=1e-12
    )
    assert pumped.amplitude((1, 1, 0)) == pytest.approx(
        squeezer_amplitude(p_e, phi, 1), abs=1e-12
    )


def test_pump_zero_photon_projection_returns_input(optics_registry):
    reg = optics_registry
    pumped = pump_excite(FockState.vacuum(reg), PumpSpec(reg.modes[0], reg.modes[1], 0.05))
    vac_sector = {
        occ: amp for occ, amp in pumped.items() if occ[1] == 0 and occ[0] == 0
    }
    assert vac_sector == {(0, 0, 0): 1.0 + 0j}


def test_pump_occupied_stokes_is_sequencing_error(optics_registry):
    reg = optics_registry
    occupied = photon_pair_state(reg, 1, 0)
    with pytest.raises(ProtocolSequencingError):
        pump_excite(occupied, PumpSpec(reg.modes[0], reg.modes[1], 0.01))


def test_pump_warns_outside_weak_regime(optics_registry):
    reg = optics_registry
    with pytest.warns(UserWarning) as caught:
        PumpSpec(reg.modes[0], reg.modes[1], 0.2)
    # reported at the caller, not inside the dataclass-generated __init__
    assert [w.filename for w in caught] == [__file__]


def test_repump_convert_examples(optics_registry):
    reg = optics_registry
    ens, phot = reg.modes[0], reg.modes[1]
    vac = FockState.vacuum(reg)
    one = create(vac, ens)
    moved = repump_convert(one, ens, phot)
    assert moved.amplitude((0, 1, 0)) == pytest.approx(1.0)
    # empty ensemble terms pass through unchanged
    psi = superpose([0.6, 0.8], [one, create(vac, reg.modes[2])])
    moved = repump_convert(psi, ens, phot)
    assert moved.amplitude((0, 0, 1)) == pytest.approx(0.8)
    assert moved.norm() == pytest.approx(psi.norm(), abs=1e-12)
    with pytest.raises(ProtocolSequencingError):
        repump_convert(moved, ens, phot)


def test_repump_preserves_per_term_excitation(optics_registry):
    reg = optics_registry
    ens, phot = reg.modes[0], reg.modes[1]
    state = create(create(FockState.vacuum(reg), ens), ens)
    moved = repump_convert(state, ens, phot)
    assert moved.amplitude((0, 2, 0)) == pytest.approx(math.sqrt(2))


def one_plus_two_photons(reg):
    """(|1> + |2>)/sqrt(2) on photonic mode ``a``."""
    a = reg.modes[1]
    vac = FockState.vacuum(reg)
    return normalize(
        superpose([1.0, 1.0], [create(vac, a), normalize(create(create(vac, a), a))])
    )


def test_loss_eta_zero_is_identity(optics_registry):
    reg = optics_registry
    psi = photon_pair_state(reg, 2, 0)
    [branch] = loss_outcomes(psi, reg.modes[1], 0.0)
    assert (branch.prob, branch.lost) == (1.0, 0) and branch.state is psi


def test_loss_eta_one_empties_the_mode(optics_registry):
    reg = optics_registry
    [branch] = loss_outcomes(photon_pair_state(reg, 1, 0), reg.modes[1], 1.0)
    assert (branch.prob, branch.lost) == (1.0, 1)
    assert dict(branch.state.items()) == {(0, 0, 0): 1.0 + 0j}


@pytest.mark.parametrize("eta", [math.nan, -0.5, 1.5])
def test_loss_rejects_eta_outside_unit_interval(optics_registry, eta):
    reg = optics_registry
    with pytest.raises(ValueError, match="eta must lie in"):
        loss_outcomes(photon_pair_state(reg, 1, 0), reg.modes[1], eta)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_loss_branches_match_binomial_oracle(optics_registry, k):
    # |k> loses j photons with probability C(k, j) eta^j (1-eta)^(k-j), into |k-j>.
    reg = optics_registry
    eta = 0.3
    branches = loss_outcomes(photon_pair_state(reg, k, 0), reg.modes[1], eta)
    assert [b.lost for b in branches] == list(range(k + 1))
    for b in branches:
        assert b.prob == pytest.approx(binomial_pmf(k, b.lost, eta), abs=1e-12)
        assert set(dict(b.state.items())) == {(0, k - b.lost, 0)}


def test_loss_branches_are_coherent_within_fixed_loss_count(optics_registry):
    # |1> + |2> with one photon lost keeps the |0>,|1> superposition.
    reg = optics_registry
    a = reg.modes[1]
    psi = one_plus_two_photons(reg)
    branches = {b.lost: b for b in loss_outcomes(psi, a, 0.4)}
    one_lost = branches[1]
    amps = dict(one_lost.state.items())
    assert set(amps) == {(0, 0, 0), (0, 1, 0)}


def test_detect_on_single_photon_and_vacuum(optics_registry):
    reg = optics_registry
    [branch] = detection_outcomes(photon_pair_state(reg, 1, 0), reg.modes[1])
    assert (branch.prob, branch.photons) == (1.0, 1)
    assert dict(branch.state.items()) == {(0, 0, 0): 1.0 + 0j}
    [branch] = detection_outcomes(FockState.vacuum(reg), reg.modes[1])
    assert (branch.prob, branch.photons) == (1.0, 0)


def test_detect_confuses_one_and_two_photons(optics_registry):
    # (|1> + |2>)/sqrt(2): every outcome clicks; k is 1 or 2 evenly.
    reg = optics_registry
    branches = detection_outcomes(one_plus_two_photons(reg), reg.modes[1])
    assert [b.photons for b in branches] == [1, 2]
    for b in branches:
        assert b.prob == pytest.approx(0.5, abs=1e-12)


def test_detect_zero_state_is_normalization_error(optics_registry):
    reg = optics_registry
    zero = superpose([0.0], [FockState.vacuum(reg)])
    with pytest.raises(NormalizationError):
        detection_outcomes(zero, reg.modes[1])
    with pytest.raises(NormalizationError):
        loss_outcomes(zero, reg.modes[1], 0.3)


def test_click_probability_after_loss(optics_registry):
    reg = optics_registry
    a = reg.modes[1]
    eta = 0.25
    p_click = sum(
        lb.prob * db.prob
        for lb in loss_outcomes(photon_pair_state(reg, 1, 0), a, eta)
        for db in detection_outcomes(normalize(lb.state), a)
        if db.photons >= 1
    )
    assert p_click == pytest.approx(1 - eta, abs=1e-12)


@pytest.mark.parametrize("module", ["fock", "optics"])
def test_state_layers_take_no_random_stream(module):
    # randomness lives in protocol and montecarlo; fock and optics are exact
    path = Path(wclass_sim.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    takes_rng = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "rng" in {a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                      *node.args.kwonlyargs)}
    ]
    assert ("numpy" in modules, takes_rng) == (False, [])
