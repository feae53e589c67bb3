"""Linear-optical elements, Raman pump/repump events, loss, and detection.

Every element is a pure function on :class:`~wclass_sim.fock.FockState`;
none takes a random stream.  Loss and detection are exact outcome
enumerators (:func:`loss_outcomes`, :func:`detection_outcomes`), whose
branches the protocol engine conditions on and samples.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Dict, List

from .errors import (
    ModeKindError,
    NormalizationError,
    ProtocolSequencingError,
)
from .fock import FockState, Mode, ModeKind, Occupation, create, superpose
from .fock import normalize  # unused here; bench/spans.py wraps this binding


@dataclass(frozen=True)
class BeamSplitterSpec:
    """A 50/50 beam splitter on two photonic modes.

    Convention is the real Hadamard-like matrix ``[[1, 1], [1, -1]]/sqrt(2)``:
    ``a+ -> (a+ + b+)/sqrt(2)``, ``b+ -> (a+ - b+)/sqrt(2)``.
    """

    mode_a: Mode
    mode_b: Mode

    def __post_init__(self) -> None:
        if self.mode_a is self.mode_b:
            raise ModeKindError("beam splitter needs two distinct modes")
        for m in (self.mode_a, self.mode_b):
            if m.kind is not ModeKind.PHOTONIC:
                raise ModeKindError(f"beam splitter mode {m.name} is not photonic")


@dataclass(frozen=True)
class PumpSpec:
    """One weak Raman pump pulse on one ensemble.

    ``emission_prob`` is the per-pulse pair-emission probability and
    ``channel_phase`` the phase picked up in the optical channel of this
    ensemble's Stokes light.
    """

    ensemble: Mode
    stokes: Mode
    emission_prob: float
    channel_phase: float = 0.0

    def __post_init__(self) -> None:
        if self.ensemble.kind is not ModeKind.ATOMIC:
            raise ModeKindError("pump ensemble must be an atomic mode")
        if self.stokes.kind is not ModeKind.PHOTONIC:
            raise ModeKindError("pump stokes channel must be a photonic mode")
        if not 0.0 <= self.emission_prob < 1.0:
            raise ValueError("emission_prob must lie in [0, 1)")
        if self.emission_prob > 0.1:
            warnings.warn(
                f"emission_prob={self.emission_prob} is outside the weak-pump "
                "regime; the truncated expansion loses accuracy",
                stacklevel=2,
            )


def apply_beam_splitter(state: FockState, bs: BeamSplitterSpec) -> FockState:
    """Apply the 50/50 splitter unitary to all terms.  Norm preserving."""
    ia = state.registry.check_mode(bs.mode_a).index
    ib = state.registry.check_mode(bs.mode_b).index
    out: Dict[Occupation, complex] = {}
    for occ, amp in state.items():
        na, nb = occ[ia], occ[ib]
        tot = na + nb
        if tot == 0:
            out[occ] = out.get(occ, 0j) + amp
            continue
        # Expand (a+ + b+)^na (a+ - b+)^nb / sqrt(2^tot na! nb!) term by term.
        base = amp / math.sqrt(2.0**tot * math.factorial(na) * math.factorial(nb))
        for p in range(tot + 1):
            q = tot - p
            coef = 0.0
            for j in range(max(0, p - nb), min(na, p) + 1):
                k = p - j
                coef += math.comb(na, j) * math.comb(nb, k) * (-1.0) ** (nb - k)
            if coef == 0.0:
                continue
            coef *= math.sqrt(math.factorial(p) * math.factorial(q))
            new = list(occ)
            new[ia], new[ib] = p, q
            new_t = tuple(new)
            out[new_t] = out.get(new_t, 0j) + base * coef
    return state.replace_terms(out)


def apply_phase(state: FockState, m: Mode, phi: float) -> FockState:
    """Phase shifter: each term gains ``exp(i * phi * n_m)``."""
    idx = state.registry.check_mode(m).index
    if phi == 0.0:
        return state
    out = {
        occ: amp * cmath.rect(1.0, phi * occ[idx])
        for occ, amp in state.items()
    }
    return state.replace_terms(out)


def pump_excite(
    state: FockState, p: PumpSpec, second_order: bool = True
) -> FockState:
    """Weak-pump squeezing expansion on (ensemble, stokes).

    Applies ``1 + lam S+A+ + (lam^2 / 2)(S+A+)^2`` with
    ``lam = sqrt(p_e) exp(i phi)``; the second-order (double-pair) term is
    kept when ``second_order`` is set and the truncation cap permits.
    Renormalization is deferred to the conditioning step.
    """
    for occ, _ in state.items():
        if occ[p.stokes.index] != 0:
            raise ProtocolSequencingError(
                f"stokes mode {p.stokes.name} is occupied; pump applied out of order"
            )
    lam = math.sqrt(p.emission_prob) * cmath.rect(1.0, p.channel_phase)
    if lam == 0:
        return state
    pair = create(create(state, p.ensemble), p.stokes)
    parts = [state, pair]
    coeffs: List[complex] = [1.0, lam]
    if second_order:
        double = create(create(pair, p.ensemble), p.stokes)
        parts.append(double)
        coeffs.append(lam * lam / 2.0)
    return superpose(coeffs, parts)


def repump_convert(state: FockState, ensemble: Mode, anti_stokes: Mode) -> FockState:
    """Deterministic retrieval: move every excitation of ``ensemble`` to
    ``anti_stokes``, amplitudes unchanged.

    Realizes the anti-Raman transition driven by the repumping pulse; per
    term ``(n_ens, 0) -> (0, n_ens)``.
    """
    ie = state.registry.check_mode(ensemble).index
    ia = state.registry.check_mode(anti_stokes).index
    if anti_stokes.kind is not ModeKind.PHOTONIC:
        raise ModeKindError("anti-stokes mode must be photonic")
    for occ, _ in state.items():
        if occ[ia] != 0:
            raise ProtocolSequencingError(
                f"anti-stokes mode {anti_stokes.name} is occupied"
            )
    out: Dict[Occupation, complex] = {}
    for occ, amp in state.items():
        n = occ[ie]
        new = list(occ)
        new[ie], new[ia] = 0, n
        out[tuple(new)] = amp
    return state.replace_terms(out)


@dataclass(frozen=True)
class LossBranch:
    prob: float
    lost: int
    state: FockState


def loss_outcomes(state: FockState, m: Mode, eta: float) -> List[LossBranch]:
    """Quantum-jump branches of a transmission-(1-eta) loss channel on ``m``.

    The environment records only the number ``j`` of lost photons, so the
    branch states stay coherent across photon-number sectors:
    ``|k> -> sqrt(C(k, j) eta^j (1-eta)^(k-j)) |k-j>``.
    Branch probabilities are relative to the normalized input.  ``eta``
    must lie in [0, 1]; ``eta = 1`` is the total-loss channel.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    idx = state.registry.check_mode(m).index
    total = state.norm_squared()
    if total <= 0.0:
        raise NormalizationError("loss channel applied to the zero state")
    kmax = max(occ[idx] for occ, _ in state.items())
    if eta == 0.0 or kmax == 0:
        return [LossBranch(1.0, 0, state)]
    branches: List[LossBranch] = []
    for j in range(kmax + 1):
        terms: Dict[Occupation, complex] = {}
        for occ, amp in state.items():
            k = occ[idx]
            if k < j:
                continue
            w = math.comb(k, j) * eta**j * (1.0 - eta) ** (k - j)
            new = occ[:idx] + (k - j,) + occ[idx + 1 :]
            terms[new] = terms.get(new, 0j) + amp * math.sqrt(w)
        branch = state.replace_terms(terms)
        p = branch.norm_squared() / total
        if p > 0.0:
            branches.append(LossBranch(p, j, branch))
    return branches


@dataclass(frozen=True)
class DetectionBranch:
    prob: float
    photons: int
    state: FockState


def detection_outcomes(state: FockState, m: Mode) -> List[DetectionBranch]:
    """Born-rule branches of absorbing photon-number detection on ``m``.

    Outcome ``k`` projects onto the ``n_m = k`` sector and resets the mode to
    empty (all photons absorbed by the detector).
    """
    idx = state.registry.check_mode(m).index
    total = state.norm_squared()
    if total <= 0.0:
        raise NormalizationError("detector saw the zero state")
    sectors: Dict[int, Dict[Occupation, complex]] = {}
    for occ, amp in state.items():
        k = occ[idx]
        new = occ[:idx] + (0,) + occ[idx + 1 :]
        sectors.setdefault(k, {})[new] = amp
    branches = []
    for k in sorted(sectors):
        branch = state.replace_terms(sectors[k])
        branches.append(DetectionBranch(branch.norm_squared() / total, k, branch))
    return branches
