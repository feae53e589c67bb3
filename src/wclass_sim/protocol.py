"""Preparation steps and teleportation as repeat-until-success machines.

Two code paths cover every protocol state:

* **Operator algebra** (``epr_state``, ``w_prime_state``,
  ``w_state_by_operators``, ``ideal_w_state``, ``teleport_target_state``,
  ``qubit_state``, ``exact_double_w_state``): exact, noise-free
  construction by literal application of the creation/annihilation
  products, with the chain intermediate kept unnormalized (its squared norm
  is ``4n - 6``).  Every creation step is one builder, ``_excite``: a
  spread ``sum_k c_k m_k+`` of creation operators applied to a state.

* **Sampled engine** (:class:`ChainSimulator`): Monte Carlo trajectories
  over pump, beam splitter, loss, and detection, conditioned on single
  clicks.  Each reached (stage, state) is enumerated exactly, once, into a
  table of nodes linked stage to stage, so trials reduce to categorical
  draws along those links plus geometric / multinomial fast-forwarding of
  the repeat-until-success loop; simulated attempt counts stay exact while
  wall time stays flat.  Trace trials walk the same links round by round,
  one conditioned draw per round.
  Connect and teleport rounds are enumerated by one pass over the
  photon-number sectors of their ports (loss before an absorbing detector
  only reweights each sector), with one ``_PROB_FLOOR`` cut and one merge
  of equal branches; the repump round has a closed form.

Conditioning conventions (all fixed here, once):

* A connect round accepts exactly one click.  A click on the antisymmetric
  beam-splitter port heralds the ``s_i+ - e^{i phi} s_j+`` combination; when
  the newly pumped ensemble ``j`` is fresh this is repaired by a known
  feed-forward pi shift on ``j``, so either detector yields the same state.
  In the final (maximizing) connect both ensembles are already occupied and
  the antisymmetric click cancels the ``s_1+ s_n+`` cross term outright, so
  that round accepts the symmetric port only.

* A repump (merge) round registers one excitation: the click probability is
  the Born weight of at least one retrieved photon surviving loss, and the
  conditioned state is the annihilation ``s_i`` applied once, which is what
  turns double occupation into ``2 s_i+`` and keeps the residual excitation
  in the ensemble.

* The teleport round retrieves the sender's four ensembles and accepts
  exactly one click behind each beam splitter, with per-pattern feed-forward
  phase fixes.  Non-number-resolving detectors cannot reject bunched
  two-photon events, so a small vacuum-faking branch survives; each outcome
  records whether the clicks were backed by exactly one photon per pair.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, product
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import AttemptsExhaustedError, PreconditionError
from .fock import (
    DEFAULT_TRUNCATION_CAP,
    CollectiveModeModel,
    FockState,
    Mode,
    ModeRegistry,
    annihilate,
    count_excitations,
    create,
    normalize,
    superpose,
)
from .optics import (
    BeamSplitterSpec,
    PumpSpec,
    apply_beam_splitter,
    apply_phase,
    loss_weights,
    pump_excite,
    repump_convert,
)
# unused here; bench/spans.py wraps these bindings
from .fock import fidelity
from .optics import detection_outcomes, loss_outcomes


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of one chain-preparation experiment.

    ``phases[i]`` is the channel phase of ensemble ``i+1`` relative to
    ensemble 1 (so ``phases[0]`` must be zero); ``t0`` is the duration of one
    light-atom interaction attempt.
    """

    n: int
    p_e: float
    eta: float = 0.0
    phases: Tuple[float, ...] | None = None
    n_a: float = math.inf
    finite_size: bool = False
    t0: float = 1e-6
    truncation_cap: int = DEFAULT_TRUNCATION_CAP
    max_attempts: int = 10**15
    seed: int = 0
    second_order_pump: bool = True

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least two ensembles")
        if not 0.0 <= self.p_e < 1.0:
            raise ValueError("p_e must lie in [0, 1)")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must lie in [0, 1)")
        phases = self.phases
        if phases is None:
            phases = (0.0,) * self.n
        phases = tuple(float(x) for x in phases)
        if len(phases) != self.n:
            raise ValueError(f"need one phase per ensemble ({self.n})")
        if phases[0] != 0.0:
            raise ValueError("the reference phase phi_11 must be zero")
        if not all(map(math.isfinite, phases)):
            raise ValueError("phases must be finite")
        object.__setattr__(self, "phases", phases)
        if not 0.0 < self.t0 < math.inf:
            raise ValueError("t0 must be positive and finite")
        if math.isnan(self.n_a):
            raise ValueError("n_a must be a number (inf: no finite-size correction)")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not -(2**63) <= self.seed < 2**63:  # rng_for_trial keeps 64 bits
            raise ValueError("seed must lie in [-2**63, 2**63)")
        if self.truncation_cap < 2:
            raise ValueError("truncation_cap below 2 cannot hold the protocol")
        CollectiveModeModel(self.n_a, self.finite_size)  # raises if n_a is too small


@dataclass(frozen=True)
class TeleportConfig:
    """Teleportation of ``alpha s_L+ + beta s_R+`` over two 3-party W states."""

    alpha: complex
    beta: complex
    base: ProtocolConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        if not (cmath.isfinite(self.alpha) and cmath.isfinite(self.beta)):
            raise PreconditionError("alpha and beta must be finite")
        if abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0) > 1e-12:
            raise PreconditionError("|alpha|^2 + |beta|^2 must equal 1")
        if self.base.n != 3:
            raise PreconditionError("teleportation uses two 3-party W states")


@dataclass
class StepOutcome:
    """Result of a chain build or of one teleport round."""

    succeeded: bool
    attempts: int
    state: FockState
    click_log: Tuple[Tuple[str, bool], ...]
    stage_attempts: Dict[str, int] | None = None
    info: dict | None = None


class Holder(enum.Enum):
    THIS_RECEIVER = "this-receiver"
    OTHER_RECEIVER = "other-receiver"


# ---------------------------------------------------------------------------
# registries / layouts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainLayout:
    """Mode bookkeeping for an ``n``-ensemble chain inside some registry."""

    registry: ModeRegistry
    ensembles: Tuple[Mode, ...]  # party i (1-based) -> ensembles[i - 1]
    stokes: Tuple[Mode, ...]
    phases: Tuple[float, ...]
    truncation_cap: int

    def ensemble(self, party: int) -> Mode:
        return self.ensembles[party - 1]

    def stokes_of(self, party: int) -> Mode:
        return self.stokes[party - 1]

    def phase(self, party: int) -> float:
        return self.phases[party - 1]

    def vacuum(self) -> FockState:
        return FockState.vacuum(self.registry, self.truncation_cap)


def make_chain_layout(cfg: ProtocolConfig) -> ChainLayout:
    """Standard registry: one atomic + one Stokes mode per ensemble."""
    reg = ModeRegistry(CollectiveModeModel(cfg.n_a, cfg.finite_size))
    ens = tuple(reg.add_atomic(f"ens{i}") for i in range(1, cfg.n + 1))
    stokes = tuple(reg.add_photonic(f"st{i}") for i in range(1, cfg.n + 1))
    reg.seal()
    return ChainLayout(reg, ens, stokes, cfg.phases, cfg.truncation_cap)


@dataclass(frozen=True)
class TeleportLayout:
    """Registry for the three-party teleportation: sender pair L/R plus the
    six W-chain ensembles, each with a retrieval photon mode."""

    registry: ModeRegistry
    mode_l: Mode
    mode_r: Mode
    ensembles: Tuple[Mode, ...]  # ensembles 1..6
    phot_l: Mode
    phot_r: Mode
    phot: Tuple[Mode, ...]  # retrieval/stokes mode per ensemble 1..6
    phases: Tuple[float, ...]  # phi_11..phi_13 (chain phases, shared)
    truncation_cap: int

    def chain_layout(self, first_party: int) -> ChainLayout:
        k = first_party - 1
        return ChainLayout(
            self.registry,
            self.ensembles[k : k + 3],
            self.phot[k : k + 3],
            self.phases,
            self.truncation_cap,
        )

    @property
    def carol(self) -> Tuple[Mode, Mode]:
        """The receiver pair localized on: ensembles 3 and 6."""
        return self.ensembles[2], self.ensembles[5]

    @property
    def bob(self) -> Tuple[Mode, Mode]:
        """The other receiver pair: ensembles 2 and 5."""
        return self.ensembles[1], self.ensembles[4]

    def vacuum(self) -> FockState:
        return FockState.vacuum(self.registry, self.truncation_cap)


def make_teleport_layout(tcfg: TeleportConfig) -> TeleportLayout:
    cfg = tcfg.base
    reg = ModeRegistry(CollectiveModeModel(cfg.n_a, cfg.finite_size))
    mode_l = reg.add_atomic("ensL")
    mode_r = reg.add_atomic("ensR")
    ens = tuple(reg.add_atomic(f"ens{i}") for i in range(1, 7))
    phot_l = reg.add_photonic("aL")
    phot_r = reg.add_photonic("aR")
    phot = tuple(reg.add_photonic(f"a{i}") for i in range(1, 7))
    reg.seal()
    return TeleportLayout(
        reg, mode_l, mode_r, ens, phot_l, phot_r, phot, cfg.phases, cfg.truncation_cap
    )


# ---------------------------------------------------------------------------
# exact operator-algebra constructions
# ---------------------------------------------------------------------------


def _excite(
    state: FockState, modes: Sequence[Mode], coeffs: Sequence[complex]
) -> FockState:
    """``sum_k coeffs[k] m_k+ |state>`` over ``modes``: every exact state
    below is one or more of these excitations."""
    return superpose(coeffs, [create(state, m) for m in modes])


def _phases_for(n: int, phases: Sequence[float] | None) -> Sequence[float]:
    """``phases`` (n zeros by default), which must hold one per ensemble."""
    if phases is None:
        return (0.0,) * n
    if len(phases) < n:
        raise ValueError(f"need one phase per ensemble ({n})")
    return phases


def ideal_w_state(
    n: int, phases: Sequence[float] | None = None, layout: ChainLayout | None = None
) -> FockState:
    """``(1/sqrt(n)) sum_i e^{i phi_1i} s_i+ |vac>``, exactly."""
    if n < 1:
        raise ValueError("n must be positive")
    phases = _phases_for(n, phases)
    if layout is None:
        layout = make_chain_layout(ProtocolConfig(n=max(n, 2), p_e=0.0))
    coeffs = [cmath.rect(1.0, ph) / math.sqrt(n) for ph in phases[:n]]
    return _excite(layout.vacuum(), layout.ensembles[:n], coeffs)


def epr_state(layout: ChainLayout, i: int, j: int, phase_ij: float) -> FockState:
    """Two-ensemble entangled state ``(s_i+ + e^{i phi} s_j+)/sqrt(2)|vac>``."""
    return connect_applied(layout.vacuum(), layout, i, j, phase_ij)


def connect_applied(
    state: FockState, layout: ChainLayout, i: int, j: int, rel_phase: float
) -> FockState:
    """Apply the heralded connect operator ``(s_i+ + e^{i phi} s_j+)/sqrt(2)``."""
    e = cmath.rect(1.0, rel_phase)
    modes = (layout.ensemble(i), layout.ensemble(j))
    return _excite(state, modes, [1.0 / math.sqrt(2), e / math.sqrt(2)])


def w_prime_state(
    n: int, phases: Sequence[float] | None = None, layout: ChainLayout | None = None
) -> FockState:
    """Unnormalized chain intermediate built by the literal operator product.

    ``prod_{i=2}^{n-1} s_i (s_i+ + e^{i phi_{i,i+1}} s_{i+1}+)`` applied to
    the two-party entangled pair; equals
    ``s_1+ + 2 sum_{i=2}^{n-1} e^{i phi_1i} s_i+ + e^{i phi_1n} s_n+`` on the
    vacuum, squared norm ``4n - 6``.
    """
    if n < 3:
        raise ValueError("the chain intermediate needs n >= 3")
    phases = _phases_for(n, phases)
    if layout is None:
        layout = make_chain_layout(ProtocolConfig(n=n, p_e=0.0))
    e12 = cmath.rect(1.0, phases[1])
    state = _excite(layout.vacuum(), layout.ensembles[:2], [1.0, e12])
    for i in range(2, n):
        e = cmath.rect(1.0, phases[i] - phases[i - 1])
        state = _excite(state, (layout.ensemble(i), layout.ensemble(i + 1)), [1.0, e])
        state = annihilate(state, layout.ensemble(i))
    return state


def w_state_by_operators(
    n: int, phases: Sequence[float] | None = None, layout: ChainLayout | None = None
) -> FockState:
    """Maximized W state via ``(1/(2 sqrt(n))) s_1 (s_1+ + e^{i phi_1n} s_n+)``
    acting on the chain intermediate."""
    phases = _phases_for(n, phases)
    if layout is None:
        layout = make_chain_layout(ProtocolConfig(n=n, p_e=0.0))
    wp = w_prime_state(n, phases, layout)
    e = cmath.rect(1.0, phases[n - 1])
    state = _excite(wp, (layout.ensemble(1), layout.ensemble(n)), [1.0, e])
    state = annihilate(state, layout.ensemble(1))
    return superpose([1.0 / (2.0 * math.sqrt(n))], [state])


def phase_compensate(
    state: FockState, phases: Sequence[float], ensembles: Sequence[Mode]
) -> FockState:
    """Undo the channel phases: apply ``-phases[k]`` on ``ensembles[k]``.

    With the phases measured, this turns the prepared state into the
    all-positive-coefficient W form (up to a global phase).
    """
    for mode, ph in zip(ensembles, phases):
        state = apply_phase(state, mode, -ph)
    return state


def qubit_state(
    tcfg: TeleportConfig, state: FockState, pair: Tuple[Mode, Mode]
) -> FockState:
    """Normalized ``(alpha a+ + beta b+)|state>`` on ``pair = (a, b)``: the
    unknown qubit on the sender's pair, or its ideal copy on a receiver's."""
    return normalize(_excite(state, pair, [tcfg.alpha, tcfg.beta]))


def teleport_target_state(tcfg: TeleportConfig, layout: TeleportLayout) -> FockState:
    """Normalized receiver state
    ``[e^{i phi_13}(a s_3+ + b s_6+) + e^{i phi_12}(a s_2+ + b s_5+)]/sqrt(2)``."""
    e12 = cmath.rect(1.0, layout.phases[1])
    e13 = cmath.rect(1.0, layout.phases[2])
    a, b = tcfg.alpha, tcfg.beta
    coeffs = [e13 * a, e13 * b, e12 * a, e12 * b]
    return normalize(_excite(layout.vacuum(), layout.carol + layout.bob, coeffs))


# ---------------------------------------------------------------------------
# round enumeration (shared by sampling and the trajectory tree)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundBranch:
    prob: float  # joint probability of this accepted outcome
    state: FockState  # normalized conditioned state, corrections applied
    clicks: Tuple[Tuple[str, bool], ...]
    detected: Tuple[int, ...]  # photons absorbed per detector
    lost: int  # photons lost to the channel this round


@dataclass(frozen=True)
class RoundDistribution:
    p_accept: float
    branches: Tuple[RoundBranch, ...]
    # the rest of the round's mass: outcomes the herald rejects, and
    # outcomes below ``_PROB_FLOOR``; with ``p_accept`` they sum to one
    rejected: float = field(default=0.0, compare=False)
    dropped: float = field(default=0.0, compare=False)
    # running sums of the branch probabilities, for :func:`pick`
    cum: List[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cum", list(accumulate(b.prob for b in self.branches)))


_PROB_FLOOR = 1e-18


def _heralded(
    psi: FockState,
    ops: Sequence[Tuple[Mode, bool]],
    detector_ids: Sequence[str],
    eta: float,
    herald: Callable[[Tuple[bool, ...]], Tuple[Mode, ...] | None],
) -> RoundDistribution:
    """Enumerate one heralded round of the normalized ``psi``.

    ``ops`` names, for each port, a transmission-``1 - eta`` loss channel
    ``(mode, True)`` and, after it, an absorbing detection ``(mode, False)``,
    which ``detector_ids`` name in order.  Loss before an absorbing detector
    only reweights each photon-number sector of the ports, so losing ``l``
    and detecting ``d`` photons per port happens in the sector ``l + d``
    alone, with probability ``prod C(l + d, l) eta^l (1 - eta)^d`` times
    the sector's share of ``psi`` (:func:`~wclass_sim.optics.loss_weights`),
    and leaves that sector, normalized, with the ports emptied.

    An outcome below ``_PROB_FLOOR`` is dropped; since no outcome is more
    likely than any prefix of it along ``ops``, this is the cut a walk one
    op at a time would make.  ``herald(clicks)`` returns the modes that get
    a pi feed-forward, or None to reject, and only accepted sectors are
    built.  Branches come in the lexicographic order of the outcomes along
    ``ops``, and those equal in state key, clicks, detected and lost
    photons are merged onto the first.
    """
    ports = [mode.index for mode, lossy in ops if not lossy]
    slot = {index: k for k, index in enumerate(ports)}
    # where each op's count sits in ``lost + detected``
    order = [slot[mode.index] + (0 if lossy else len(ports)) for mode, lossy in ops]
    sectors: Dict[Tuple[int, ...], List[Tuple[tuple, complex]]] = {}
    norm2: Dict[Tuple[int, ...], float] = {}
    for occ, amp in psi.items():
        n = tuple(map(occ.__getitem__, ports))
        sectors.setdefault(n, []).append((occ, amp))
        norm2[n] = norm2.get(n, 0.0) + abs(amp) ** 2
    total = psi.norm_squared()
    leaves = []
    rejected = dropped = 0.0
    for n, n2 in norm2.items():
        share = n2 / total
        weights = [loss_weights(k, eta) for k in n]
        for lost in product(*[range(k + 1) for k in n]):  # photons lost per port
            p = share
            for w, l in zip(weights, lost):
                p *= w[l]
            if p < _PROB_FLOOR:
                dropped += p
                continue
            det = tuple(map(operator.sub, n, lost))
            clicks = tuple([d > 0 for d in det])  # one photon or more clicks
            flips = herald(clicks)
            if flips is None:
                rejected += p
                continue
            outcome = lost + det
            along_ops = tuple([outcome[k] for k in order])
            leaves.append((along_ops, n, sum(lost), det, clicks, flips, p))
    leaves.sort(key=operator.itemgetter(0))

    built: Dict[tuple, FockState] = {}
    merged: Dict[tuple, RoundBranch] = {}
    for _, n, n_lost, det, clicks, flips, p in leaves:
        post = built.get((n, flips))
        if post is None:
            nrm = math.sqrt(norm2[n])
            terms = {}
            for occ, a in sectors[n]:
                emptied = list(occ)
                for i in ports:
                    emptied[i] = 0
                terms[tuple(emptied)] = a / nrm
            post = psi.replace_terms(terms)
            for mode in flips:
                post = apply_phase(post, mode, math.pi)
            built[n, flips] = post
        named = tuple(zip(detector_ids, clicks))
        key = (post.key(), named, det, n_lost)
        old = merged.get(key)
        if old is not None:
            p, post = old.prob + p, old.state
        merged[key] = RoundBranch(p, post, named, det, n_lost)
    branches = tuple(merged.values())
    return RoundDistribution(sum(b.prob for b in branches), branches, rejected, dropped)


def connect_round(
    state: FockState,
    layout: ChainLayout,
    i: int,
    j: int,
    cfg: ProtocolConfig,
    detector_ids: Tuple[str, str] = ("D1", "D2"),
    symmetric_port_only: bool = False,
) -> RoundDistribution:
    """Enumerate one pump-interfere-detect round on parties ``i`` and ``j``.

    Accepts exactly one click.  A click on the antisymmetric port is folded
    back onto the symmetric outcome by a pi feed-forward on ensemble ``j``
    unless ``symmetric_port_only`` rejects it (the maximizing round).
    """
    if cfg.p_e <= 0.0:
        return RoundDistribution(0.0, (), rejected=1.0)  # no pair, no click
    st_i, st_j = layout.stokes_of(i), layout.stokes_of(j)
    psi = pump_excite(
        state,
        PumpSpec(layout.ensemble(i), st_i, cfg.p_e, layout.phase(i)),
        cfg.second_order_pump,
    )
    psi = pump_excite(
        psi,
        PumpSpec(layout.ensemble(j), st_j, cfg.p_e, layout.phase(j)),
        cfg.second_order_pump,
    )
    psi = normalize(apply_beam_splitter(psi, BeamSplitterSpec(st_i, st_j)))
    fix_j = (layout.ensemble(j),)

    def herald(clicks: Tuple[bool, ...]) -> Tuple[Mode, ...] | None:
        c1, c2 = clicks
        if c1 == c2 or (c2 and symmetric_port_only):
            return None  # zero or two clicks, or the rejected port
        return fix_j if c2 else ()

    ops = ((st_i, True), (st_j, True), (st_i, False), (st_j, False))
    return _heralded(psi, ops, detector_ids, cfg.eta, herald)


def merge_round(
    state: FockState,
    layout: ChainLayout,
    i: int,
    cfg: ProtocolConfig,
    detector_id: str = "D3",
) -> RoundDistribution:
    """Enumerate one repump-readout round on party ``i``.

    Registering one excitation applies ``s_i`` once; the click probability is
    the Born weight of at least one retrieved photon reaching the detector,
    ``sum_k P(n_i = k) (1 - eta^k)``.
    """
    mode = layout.ensemble(i)
    dist = count_excitations(state, [mode])
    p_click = sum(p * (1.0 - cfg.eta**k) for k, p in dist.items() if k >= 1)
    if p_click <= 0.0:
        return RoundDistribution(0.0, (), rejected=1.0)
    post = normalize(annihilate(state, mode))
    branch = RoundBranch(p_click, post, ((detector_id, True),), (1,), 0)
    return RoundDistribution(p_click, (branch,), rejected=1.0 - p_click)


def teleport_round(
    state: FockState, layout: TeleportLayout, cfg: ProtocolConfig
) -> RoundDistribution:
    """Enumerate the synchronous four-ensemble retrieval of the teleport step.

    Accepts exactly one click behind each beam splitter (one in D1/D2, one in
    D3/D4).  Feed-forward: a D2 click flips the sign of the component carried
    by ensembles 5 and 6, a D4 click the one carried by 2 and 3.  ``detected``
    records the true photon numbers so callers can tell bunched two-photon
    accepts from correct single-photon ones.
    """
    psi = repump_convert(state, layout.mode_l, layout.phot_l)
    psi = repump_convert(psi, layout.ensembles[0], layout.phot[0])
    psi = repump_convert(psi, layout.mode_r, layout.phot_r)
    psi = repump_convert(psi, layout.ensembles[3], layout.phot[3])
    psi = apply_beam_splitter(psi, BeamSplitterSpec(layout.phot_l, layout.phot[0]))
    psi = apply_beam_splitter(psi, BeamSplitterSpec(layout.phot_r, layout.phot[3]))
    psi = normalize(psi)
    ports = (layout.phot_l, layout.phot[0], layout.phot_r, layout.phot[3])
    ens = layout.ensembles

    def herald(clicks: Tuple[bool, ...]) -> Tuple[Mode, ...] | None:
        if sum(clicks[:2]) != 1 or sum(clicks[2:]) != 1:
            return None
        flips = ()
        if clicks[1]:  # D2: photon came through the ensemble-1 port
            flips += (ens[4], ens[5])
        if clicks[3]:  # D4: photon came through the ensemble-4 port
            flips += (ens[1], ens[2])
        return flips

    ops = tuple((port, lossy) for port in ports for lossy in (True, False))
    return _heralded(psi, ops, ("D1", "D2", "D3", "D4"), cfg.eta, herald)


def correct_teleport_clicks(branch: RoundBranch) -> bool:
    """Whether the accepted clicks were backed by one photon per pair."""
    return (
        sum(branch.detected[:2]) == 1
        and sum(branch.detected[2:]) == 1
        and branch.lost == 0
    )


# ---------------------------------------------------------------------------
# chain simulator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageSpec:
    label: str
    kind: str  # "connect" or "merge"
    i: int
    j: int | None
    detectors: Tuple[str, ...]
    symmetric_port_only: bool = False


def epr_stage(i: int, j: int) -> StageSpec:
    """The entangling round on two fresh ensembles; alone it is a chain
    whose product is the EPR pair."""
    return StageSpec(f"epr({i},{j})", "connect", i, j, ("D1", "D2"))


def chain_stages(n: int) -> Tuple[StageSpec, ...]:
    """EPR, then connect/merge pairs, then the maximizing pair."""
    if n < 3:
        raise PreconditionError("the W chain needs n >= 3 ensembles")
    stages = [epr_stage(1, 2)]
    for i in range(2, n):
        stages.append(StageSpec(f"connect({i},{i + 1})", "connect", i, i + 1, ("D1", "D2")))
        stages.append(StageSpec(f"merge({i})", "merge", i, None, ("D3",)))
    stages.append(
        StageSpec(f"connect(1,{n})", "connect", 1, n, ("D4", "D5"), True)
    )
    stages.append(StageSpec("merge(1)", "merge", 1, None, ("D6",)))
    return tuple(stages)


@dataclass
class ChainTrialResult:
    succeeded: bool
    rounds: int
    stage_attempts: Tuple[int, ...]
    stage_successes: Tuple[int, ...]
    final_state: FockState | None
    click_log: Tuple[Tuple[str, bool], ...]
    first_success_attempts: Tuple[int, ...] | None = None


def _tally(counts: List[int], through: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Per-stage ``(attempts, successes)`` of ``counts[k]`` passes failed at
    stage ``k``, plus one pass that got through the first ``through`` stages
    (all of them for a completed pass, fewer for one cut by the budget)."""
    ended = list(counts)
    if through:
        ended[through - 1] += 1  # the last pass, as if it ended there
    reached = list(accumulate(reversed(ended)))[::-1]  # passes ended at k or later
    return tuple(reached), tuple(map(operator.sub, reached, counts))


def pick(branches: Sequence, u: float, cum: Sequence[float]):
    """Categorical draw: the first branch at which ``cum``, the running sums
    of the branch weights (``itertools.accumulate``), exceeds ``u``, or the
    last branch when rounding leaves ``u`` beyond the total."""
    k = bisect_right(cum, u)
    return branches[k] if k < len(branches) else branches[-1]


def _spend_budget(
    rng: np.random.Generator, root: _Node, budget: int
) -> Tuple[List[int], int]:
    """Failed passes from ``root``, with failure stages drawn from its law,
    until their rounds reach ``budget``: ``(passes failed at each stage,
    stages got through by a last pass that the budget cut short)``.

    A pass failing at stage ``k`` costs ``k + 1 <= max_cost`` rounds, so a
    block of ``left // max_cost`` passes always fits in the ``left`` rounds
    still to spend and can be drawn at once; the last few are drawn singly.
    """
    cond, max_cost, cum = root.law
    counts = [0] * len(cond)
    left = budget
    while left >= max_cost:
        block = rng.multinomial(left // max_cost, cond).tolist()
        for k, c in enumerate(block):
            counts[k] += c
            left -= (k + 1) * c
    stages = range(len(cond))
    while left > 0:
        k = pick(stages, rng.random(), cum)
        if k >= left:
            return counts, left
        counts[k] += 1
        left -= k + 1
    return counts, 0


def _draw(rng: np.random.Generator, dist: RoundDistribution, options: Sequence = ()):
    """One conditioned round of ``dist``: ``u = rng.random()`` fails it when
    ``u >= p_accept`` (None), and otherwise picks, by the branch
    probabilities and the same ``u``, the accepted branch or its entry of
    ``options`` (one per branch, in branch order)."""
    u = rng.random()
    if u >= dist.p_accept:
        return None
    return pick(options or dist.branches, u, dist.cum)


@dataclass(eq=False, slots=True)
class _Node:
    """One reached ``(stage, state)`` of a pass: its round, the node each
    branch leads to (``None`` past the last stage), and the exact odds of
    the rest of the pass from here."""

    dist: RoundDistribution
    links: Tuple[Tuple[RoundBranch, _Node | None], ...]
    cum: List[float]  # running sums of branch prob x P(pass then completes)
    p_complete: float  # cum[-1], or 0
    fail: Tuple[float, ...]  # P(pass fails at stage k)
    # stage-0 nodes only: (failure-stage law of a failed pass, its largest
    # cost, its running sums); a pass failing at stage k costs k + 1 rounds
    law: Tuple[np.ndarray, int, List[float]] | None = None


class ChainSimulator:
    """Repeat-until-success runner of a stage list, by default the
    ``n``-party W chain (:func:`chain_stages`).

    Any failed conditioning restarts the whole list from its first stage, so
    a trial is a sequence of independent passes.  Each reached ``(stage,
    state)`` is enumerated once into a node of one table, linked to the
    nodes its branches lead to; a pass is a walk along those links, so a
    trial from the vacuum computes no state key.  The default fast path
    samples the number of passes geometrically, allots the failed passes to
    their failure stages multinomially, and walks one success-weighted pass
    for the final state.  ``trace=True`` instead walks the passes round by
    round, one conditioned draw per round, until one completes or the budget
    runs out (slower, used for distributional checks).
    """

    def __init__(
        self,
        cfg: ProtocolConfig,
        layout: ChainLayout | None = None,
        stages: Sequence[StageSpec] | None = None,
    ):
        self.cfg = cfg
        self.layout = layout or make_chain_layout(cfg)
        self.stages = chain_stages(cfg.n) if stages is None else tuple(stages)
        self._vacuum = self.layout.vacuum()
        self._nodes: Dict[tuple, _Node] = {}

    # -- exact per-round machinery ----------------------------------------

    def initial_state(self) -> FockState:
        return self._vacuum

    def round_distribution(self, stage_idx: int, state: FockState) -> RoundDistribution:
        return self._node(stage_idx, state).dist

    def completion(self, stage_idx: int, state: FockState) -> Tuple[float, Tuple[float, ...]]:
        """``(P(pass completes from here), P(pass fails at stage k))``."""
        node = self._node(stage_idx, state)
        return node.p_complete, node.fail

    def _node(self, idx: int, state: FockState) -> _Node:
        """The node of ``(idx, state)``, built on first reach together with
        every node it links to."""
        key = (idx, state.key())
        if key in self._nodes:
            return self._nodes[key]
        spec = self.stages[idx]
        if spec.kind == "connect":
            dist = connect_round(
                state,
                self.layout,
                spec.i,
                spec.j,
                self.cfg,
                spec.detectors,
                spec.symmetric_port_only,
            )
        else:
            dist = merge_round(state, self.layout, spec.i, self.cfg, spec.detectors[0])
        last = idx + 1 == len(self.stages)
        links = tuple(
            (br, None if last else self._node(idx + 1, br.state)) for br in dist.branches
        )
        fail = [0.0] * len(self.stages)
        fail[idx] = 1.0 - dist.p_accept
        p_complete = 0.0
        cum = []
        for br, child in links:
            pc, fv = (1.0, ()) if child is None else (child.p_complete, child.fail)
            p_complete += br.prob * pc
            cum.append(p_complete)
            for k, x in enumerate(fv):
                fail[k] += br.prob * x
        node = self._nodes[key] = _Node(dist, links, cum, p_complete, tuple(fail))
        if idx == 0:  # a root: a pass may start here
            q = (1.0 - p_complete) or 1.0  # a pass that never fails: any law will do
            cond = np.clip(np.asarray(fail) / q, 0.0, None)
            cond[-1] = max(0.0, 1.0 - cond[:-1].sum())
            law_cum = list(accumulate(cond.tolist()))
            node.law = (cond, int(np.flatnonzero(cond)[-1]) + 1, law_cum)
        return node

    @functools.cached_property
    def _vacuum_root(self) -> _Node:
        return self._node(0, self._vacuum)

    # -- trial sampling ----------------------------------------------------

    def run_trial(
        self,
        rng: np.random.Generator,
        initial_state: FockState | None = None,
        trace: bool = False,
    ) -> ChainTrialResult:
        """One trial within ``max_attempts`` rounds.

        A trial that exhausts its budget spends it on failed passes drawn
        from the failure law until their rounds reach the budget; a last pass
        cut short by the budget counts the stages it got through.  So
        ``rounds`` equals the budget, the stage attempts sum to it, and a
        one-stage chain records ``(budget,)`` attempts and no success.
        """
        root = self._vacuum_root if initial_state is None else self._node(0, initial_state)
        p_pass, cond = root.p_complete, root.law[0]
        if trace and p_pass > 0.0:  # else every pass fails: spend the budget at once
            return self._run_trial_trace(rng, root)
        n_stages = len(self.stages)
        budget = self.cfg.max_attempts
        if p_pass > 0.0:
            fails = 0 if p_pass >= 1.0 else int(rng.geometric(p_pass)) - 1
            counts = [0] * n_stages
            if n_stages == 1:
                counts = [fails]  # what multinomial returns, without its cost
            elif fails > 0:
                counts = rng.multinomial(fails, cond).tolist()
            # a pass failed at stage k cost k + 1 rounds, the completed one n_stages
            rounds = sum(map(operator.mul, counts, range(1, n_stages + 1))) + n_stages
            if rounds <= budget:
                node, log = root, []
                for u in rng.random(n_stages).tolist():  # one per stage of the walk
                    br, node = pick(node.links, u * node.p_complete, node.cum)
                    log.extend(br.clicks)
                return ChainTrialResult(
                    True, rounds, *_tally(counts, n_stages), br.state, tuple(log)
                )
        counts, through = _spend_budget(rng, root, budget)
        return ChainTrialResult(False, budget, *_tally(counts, through), None, ())

    def _run_trial_trace(
        self, rng: np.random.Generator, root: _Node
    ) -> ChainTrialResult:
        """Rounds from ``root``, each one conditioned draw, until a pass
        completes or the budget runs out; a failed round restarts the pass
        at ``root``."""
        n_stages = len(self.stages)
        attempts = [0] * n_stages
        successes = [0] * n_stages
        first = [0] * n_stages
        budget = self.cfg.max_attempts
        node, k, log = root, 0, []
        for rounds in range(1, budget + 1):
            attempts[k] += 1
            link = _draw(rng, node.dist, node.links)
            if link is None:
                node, k, log = root, 0, []
                continue
            successes[k] += 1
            first[k] = first[k] or attempts[k]
            br, node = link
            log.extend(br.clicks)
            k += 1
            if node is None:
                return ChainTrialResult(
                    True, rounds, tuple(attempts), tuple(successes), br.state,
                    tuple(log), tuple(first),
                )
        return ChainTrialResult(
            False, budget, tuple(attempts), tuple(successes), None, ()
        )


# ---------------------------------------------------------------------------
# public protocol steps
# ---------------------------------------------------------------------------


def prepare_epr(
    cfg: ProtocolConfig,
    i: int,
    j: int,
    rng: np.random.Generator,
    layout: ChainLayout | None = None,
) -> StepOutcome:
    """Entangle ensembles ``i`` and ``j`` from the ground state.

    Pumps both, interferes the Stokes light, and conditions on exactly one
    click; failed attempts reset to the ground state and repeat, up to
    ``max_attempts``: the one-stage chain ``(epr_stage(i, j),)``.
    """
    return build_w_chain(cfg, rng, layout, stages=(epr_stage(i, j),))


def build_w_chain(
    cfg: ProtocolConfig,
    rng: np.random.Generator,
    layout: ChainLayout | None = None,
    trace: bool = False,
    stages: Sequence[StageSpec] | None = None,
) -> StepOutcome:
    """Build the ``n``-party W state (or run another stage list), restarting
    from the first stage on any failure."""
    sim = ChainSimulator(cfg, layout, stages)
    result = sim.run_trial(rng, trace=trace)
    stage_attempts = {
        spec.label: a for spec, a in zip(sim.stages, result.stage_attempts)
    }
    if not result.succeeded:
        worst = max(stage_attempts, key=stage_attempts.get)
        raise AttemptsExhaustedError(
            f"chain build exhausted {cfg.max_attempts} attempts "
            f"(most spent at {worst})",
            stage=worst,
            attempts=cfg.max_attempts,
        )
    return StepOutcome(
        True,
        result.rounds,
        result.final_state,
        result.click_log,
        stage_attempts=stage_attempts,
    )


# ---------------------------------------------------------------------------
# teleportation
# ---------------------------------------------------------------------------


def exact_double_w_state(tcfg: TeleportConfig, layout: TeleportLayout) -> FockState:
    """Operator-algebra ``|W>_123 x |W>_456`` on the teleport registry."""
    w123 = w_state_by_operators(3, tcfg.base.phases, layout.chain_layout(1))
    coeffs = [cmath.rect(1.0, ph) / math.sqrt(3) for ph in tcfg.base.phases]
    return _excite(w123, layout.ensembles[3:], coeffs)


def _retrieve(
    rng: np.random.Generator, dist: RoundDistribution, rounds: int
) -> StepOutcome | None:
    """One teleport round drawn from ``dist``: the accepted outcome, after
    ``rounds`` rounds in all, or None when the clicks are rejected."""
    br = _draw(rng, dist)
    if br is None:
        return None
    info = {"correct_clicks": correct_teleport_clicks(br)}
    return StepOutcome(True, rounds, br.state, br.clicks, info=info)


def teleport_from_states(
    tcfg: TeleportConfig,
    rng: np.random.Generator,
    layout: TeleportLayout,
    joint_w_state: FockState,
) -> StepOutcome:
    """One teleport round given already-prepared W states (single attempt)."""
    psi = qubit_state(tcfg, joint_w_state, (layout.mode_l, layout.mode_r))
    out = _retrieve(rng, teleport_round(psi, layout, tcfg.base), 1)
    return StepOutcome(False, 1, psi, ()) if out is None else out


class TeleportSimulator:
    """The two W-chain simulators and the retrieval round of
    :func:`teleport`, with their memo tables; share one across the trials of
    a batch so that each reached state is enumerated once."""

    def __init__(self, tcfg: TeleportConfig):
        self.tcfg = tcfg
        self.layout = make_teleport_layout(tcfg)
        self.w123 = ChainSimulator(tcfg.base, self.layout.chain_layout(1))
        self.w456 = ChainSimulator(tcfg.base, self.layout.chain_layout(4))
        self._rounds: Dict[tuple, RoundDistribution] = {}

    def round_distribution(self, joint: FockState) -> RoundDistribution:
        """The teleport round on the W pair ``joint`` once the unknown state
        is prepared on the sender's pair."""
        key = joint.key()
        dist = self._rounds.get(key)
        if dist is None:
            psi = qubit_state(self.tcfg, joint, (self.layout.mode_l, self.layout.mode_r))
            dist = self._rounds[key] = teleport_round(psi, self.layout, self.tcfg.base)
        return dist

    def run_trial(self, rng: np.random.Generator) -> StepOutcome:
        """Full pipeline: build both W states, retrieve, condition on two
        clicks.

        A failed conditioning round discards everything and re-prepares both
        W states, as the protocol prescribes; the attempt count accumulates
        across restarts.
        """
        budget = self.tcfg.base.max_attempts
        rounds = 0
        while True:
            r1 = self.w123.run_trial(rng)
            rounds += r1.rounds
            if not r1.succeeded or rounds >= budget:
                raise AttemptsExhaustedError(
                    "W preparation exhausted the attempt budget",
                    stage="w123",
                    attempts=min(rounds, budget),
                )
            r2 = self.w456.run_trial(rng, initial_state=r1.final_state)
            rounds += r2.rounds
            if not r2.succeeded or rounds >= budget:
                raise AttemptsExhaustedError(
                    "W preparation exhausted the attempt budget",
                    stage="w456",
                    attempts=min(rounds, budget),
                )
            rounds += 1
            out = _retrieve(rng, self.round_distribution(r2.final_state), rounds)
            if out is not None:
                return out
            if rounds >= budget:
                raise AttemptsExhaustedError(
                    "teleport conditioning exhausted the attempt budget",
                    stage="teleport",
                    attempts=budget,
                )


def teleport(
    tcfg: TeleportConfig,
    rng: np.random.Generator,
    sim: TeleportSimulator | None = None,
) -> StepOutcome:
    """One trial of :meth:`TeleportSimulator.run_trial`.  ``sim`` must be
    built from this very ``tcfg`` (a fresh one by default); pass one to every
    trial of a batch."""
    if sim is None:
        sim = TeleportSimulator(tcfg)
    elif sim.tcfg is not tcfg:
        raise ValueError("the teleport simulator was built from another config")
    return sim.run_trial(rng)


def receiver_localize(
    state: FockState,
    receiver_modes: Iterable[Mode],
    rng: np.random.Generator,
) -> Tuple[Holder, FockState]:
    """Projective measurement of the excitation number on one receiver's pair.

    Outcome 1 means this receiver holds the transmitted qubit and the
    residual is their pair's state; outcome 0 hands it to the other receiver.
    Inputs must carry exactly one excitation in total (vacuum components are
    flagged as a precondition violation).
    """
    modes = list(receiver_modes)
    if state.is_zero() or any(sum(occ) != 1 for occ, _ in state.items()):
        raise PreconditionError(
            "localization needs a single shared excitation; the input is zero "
            "or has a vacuum or multi-excitation component"
        )
    idx = [state.registry.check_mode(m).index for m in modes]
    total = state.norm_squared()
    p_here = (
        sum(
            abs(a) ** 2
            for occ, a in state.items()
            if sum(occ[i] for i in idx) == 1
        )
        / total
    )
    here = rng.random() < p_here
    keep = {
        occ: a
        for occ, a in state.items()
        if (sum(occ[i] for i in idx) == 1) == here
    }
    residual = normalize(state.replace_terms(keep))
    return (Holder.THIS_RECEIVER if here else Holder.OTHER_RECEIVER, residual)
