"""Preparation steps and teleportation as repeat-until-success machines.

Two code paths cover every protocol state:

* **Operator algebra** (``epr_state``, ``w_prime_state``,
  ``w_state_by_operators``, ``ideal_w_state``, ``teleport_target_state``,
  ``qubit_state``, ``exact_double_w_state``): exact, noise-free
  construction by literal application of the creation/annihilation
  products, with the chain intermediate kept unnormalized (its squared norm
  is ``4n - 6``).  Every creation step is one builder, ``_excite``: a
  spread ``sum_k c_k m_k+`` of creation operators applied to a state;
  only ``ideal_w_state`` writes its ``n`` terms directly.

* **Sampled engine** (:class:`ChainSimulator`): Monte Carlo trajectories
  of heralded rounds, conditioned on single clicks, in the zero-phase
  frame.  Each reached (stage, state) is enumerated exactly, once, into a
  table of nodes linked stage to stage, so a trial reduces to geometric /
  multinomial fast-forwarding of the repeat-until-success loop plus one
  categorical draw of the branch its completed pass ends on, from the
  table's terminal law; simulated attempt counts stay exact while wall time
  stays flat.  Teleportation prepares its two W states as two
  trials of the n=3 chain, each truncated on its own ensembles, and
  retrieves from their product (:class:`TeleportSimulator`).
  Rounds are enumerated on the atoms alone, one pass per round.  Stokes
  and retrieved photons are only ever detected, so no registry holds a mode
  for them: a connect round maps the pumped pairs, and a teleport round the
  retrieved excitations, through the splitters to the photon-number sectors
  of the ports, each sector carrying the atomic state it heralds; a connect
  round sums its sectors from pump factors kept per configuration.  Loss
  before an absorbing detector only reweights each sector, so a sector's
  outcomes come from a leaf table kept per (port photon numbers, eta,
  herald rule): each leaf holds its loss factors, detections, clicks, the
  herald's verdict and its feed-forward.  One pass over the leaves makes
  the ``_PROB_FLOOR`` cut and the merge of equal branches, and each accepted
  sector becomes one state, normalized with its pi feed-forward applied in
  the same pass.  A repump round takes its click probability and its
  annihilated, normalized state in one pass over the terms.

The channel phases ``phi_1i`` are a gauge: each Stokes photon is born with
an excitation of its own ensemble, so a phase on its light is
``U_phi = prod_i exp(i phi_1i n_i)`` on the atoms, which every later step
commutes with up to a global phase.  The engine runs at zero phase; only the
exact constructors and the step outcomes (:func:`build_w_chain`,
:func:`teleport`) apply the phases.

Conditioning conventions (all fixed here, once):

* A connect round accepts exactly one click.  A click on the antisymmetric
  beam-splitter port heralds the ``s_i+ - s_j+`` combination (in the
  zero-phase frame); when the newly pumped ensemble ``j`` is fresh this is
  repaired by a known feed-forward pi shift on ``j``, so either detector
  yields the same state.
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
import numbers
import operator
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate, product
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import AttemptsExhaustedError, NormalizationError, PreconditionError
from .fock import (
    DEFAULT_TRUNCATION_CAP,
    PRUNE_THRESHOLD,
    CollectiveModeModel,
    FockState,
    Mode,
    ModeRegistry,
    Occupation,
    annihilate,
    create,
    left_sum,
    normalize,
    superpose,
)
from .optics import _splitter_expansion, apply_phase, loss_weights
# unused here; bench/spans.py wraps these bindings
from .fock import count_excitations, fidelity
from .optics import (
    apply_beam_splitter,
    detection_outcomes,
    loss_outcomes,
    pump_excite,
    repump_convert,
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _real(name: str, value) -> float:
    """``value`` as a float: a real number in the float range, not a bool.
    ``float`` is checked first, since the ``numbers.Real`` check is slow."""
    try:
        if not isinstance(value, bool) and isinstance(value, (float, numbers.Real)):
            return float(value)
    except OverflowError:  # an int past the float range
        pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of one chain-preparation experiment.

    ``phases[i]`` is the channel phase of ensemble ``i+1`` relative to
    ensemble 1 (so ``phases[0]`` must be zero): a gauge that the sampled
    engine never reads (see the module docstring).  ``t0`` is the duration
    of one light-atom interaction attempt.
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
        for name in ("n", "truncation_cap", "max_attempts", "seed"):
            value = getattr(self, name)  # an int or an int-like such as np.int64
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        for name in ("p_e", "eta", "t0", "n_a"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        for name in ("finite_size", "second_order_pump"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be True or False, got {value!r}")
        if self.n < 2:
            raise ValueError("need at least two ensembles")
        if not 0.0 <= self.p_e < 1.0:
            raise ValueError("p_e must lie in [0, 1)")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must lie in [0, 1)")
        phases = self.phases
        if phases is None:
            phases = (0.0,) * self.n
        if isinstance(phases, str) or not hasattr(phases, "__iter__"):
            raise ValueError(f"phases must be a sequence of numbers, got {phases!r}")
        phases = tuple([_real("phases", x) for x in phases])
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

    def table_config(self) -> ProtocolConfig:
        """``replace(self, seed=0, phases=None)``: this configuration without
        the fields no chain table reads, which keys and builds the tables.
        Copied without re-running the checks above, which seed 0 and zero
        phases pass as this configuration did."""
        out = object.__new__(ProtocolConfig)
        out.__dict__.update(self.__dict__, seed=0, phases=(0.0,) * self.n)
        return out


@dataclass(frozen=True)
class TeleportConfig:
    """Teleportation of ``alpha s_L+ + beta s_R+`` over two 3-party W states."""

    alpha: complex
    beta: complex
    base: ProtocolConfig

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Complex):
                raise ValueError(f"{name} must be a number, got {value!r}")
            object.__setattr__(self, name, complex(value))
        if not (cmath.isfinite(self.alpha) and cmath.isfinite(self.beta)):
            raise PreconditionError("alpha and beta must be finite")
        if abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0) > 1e-12:
            raise PreconditionError("|alpha|^2 + |beta|^2 must equal 1")
        if self.base.n != 3:
            raise PreconditionError("teleportation uses two 3-party W states")


@dataclass
class StepOutcome:
    """A trial's outcome, from every runner.  A failed trial has no state
    and no clicks; a completed one has the clicks of the round that
    completed it.  A chain trial counts each stage's attempts, which sum to
    ``attempts``, and its successes, in stage order.  ``correct_clicks`` says
    whether an accepted teleport round's clicks were backed by one photon
    per pair (None for anything else)."""

    succeeded: bool
    attempts: int
    state: FockState | None
    click_log: Tuple[Tuple[str, bool], ...]
    stage_attempts: Tuple[int, ...] = ()
    stage_successes: Tuple[int, ...] = ()
    correct_clicks: bool | None = None


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
    truncation_cap: int

    def ensemble(self, party: int) -> Mode:
        return self.ensembles[party - 1]

    def vacuum(self) -> FockState:
        """The vacuum of this registry and cap, made once: a layout and
        its states are immutable."""
        return self._vacuum

    @functools.cached_property
    def _vacuum(self) -> FockState:
        return FockState.vacuum(self.registry, self.truncation_cap)

    @functools.cached_property
    def w_state(self) -> FockState:
        """The zero-phase W state over every ensemble, made once."""
        return ideal_w_state(len(self.ensembles), layout=self)


def _atomic_registry(
    n_a: float, finite_size: bool, names: Sequence[str]
) -> Tuple[ModeRegistry, Tuple[Mode, ...]]:
    """A sealed registry of one atomic mode per name, in that order, which
    fixes the order of every state's terms and so the report bytes.  Stokes
    and retrieved light is only ever detected, so no round needs a mode for
    it."""
    reg = ModeRegistry(CollectiveModeModel(n_a, finite_size))
    modes = tuple([reg.add_atomic(name) for name in names])
    reg.seal()
    return reg, modes


def make_chain_layout(cfg: ProtocolConfig) -> ChainLayout:
    """Standard registry: one atomic mode per ensemble.  Made once per
    process for each (n, N_a, finite-size, cap), the fields it reads, and
    shared: a sealed registry and a layout never change."""
    return _chain_layout(cfg.n, cfg.n_a, cfg.finite_size, cfg.truncation_cap)


@functools.lru_cache(maxsize=64)
def _chain_layout(n: int, n_a: float, finite_size: bool, cap: int) -> ChainLayout:
    reg, ens = _atomic_registry(n_a, finite_size, [f"ens{i}" for i in range(1, n + 1)])
    return ChainLayout(reg, ens, cap)


@dataclass(frozen=True)
class TeleportLayout(ChainLayout):
    """Registry for the three-party teleportation: the six W-chain
    ensembles 1..6 as ``ensembles``, plus the sender pair L/R."""

    mode_l: Mode
    mode_r: Mode

    @property
    def carol(self) -> Tuple[Mode, Mode]:
        """The receiver pair localized on: ensembles 3 and 6."""
        return self.ensembles[2], self.ensembles[5]

    @property
    def bob(self) -> Tuple[Mode, Mode]:
        """The other receiver pair: ensembles 2 and 5."""
        return self.ensembles[1], self.ensembles[4]


def make_teleport_layout(tcfg: TeleportConfig) -> TeleportLayout:
    """Modes L, R, then ensembles 1..6, under a cap of ``2 cap + 1``: both
    W states, each truncated on its own chain, and the qubit."""
    names = ["ensL", "ensR", *(f"ens{i}" for i in range(1, 7))]
    base = tcfg.base
    reg, (mode_l, mode_r, *ens) = _atomic_registry(base.n_a, base.finite_size, names)
    return TeleportLayout(reg, tuple(ens), 2 * base.truncation_cap + 1, mode_l, mode_r)


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
    terms = {}
    for m, ph in zip(layout.ensembles[:n], phases[:n], strict=True):
        occ = [0] * layout.registry.n_modes
        occ[m.index] = 1
        terms[tuple(occ)] = cmath.rect(1.0, ph) / math.sqrt(n)
    return FockState._from_terms(layout.registry, terms, layout.truncation_cap)


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
    e12 = cmath.rect(1.0, tcfg.base.phases[1])
    e13 = cmath.rect(1.0, tcfg.base.phases[2])
    a, b = tcfg.alpha, tcfg.beta
    coeffs = [e13 * a, e13 * b, e12 * a, e12 * b]
    return normalize(_excite(layout.vacuum(), layout.carol + layout.bob, coeffs))


# ---------------------------------------------------------------------------
# round enumeration (shared by sampling and the trajectory tree)
# ---------------------------------------------------------------------------


class RoundBranch(NamedTuple):
    """One accepted outcome of a round.  Rounds and their branches are
    immutable tuples: tables share them, and a tuple is made at a fraction
    of a frozen dataclass's cost."""

    prob: float  # joint probability of this accepted outcome
    state: FockState  # normalized conditioned state, corrections applied
    clicks: Tuple[Tuple[str, bool], ...]
    detected: Tuple[int, ...]  # photons absorbed per detector
    lost: int  # photons lost to the channel this round


class RoundDistribution(NamedTuple):
    """The accepted branches of a round and where the rest of its mass
    went."""

    p_accept: float
    branches: Tuple[RoundBranch, ...]
    # the rest of the round's mass: outcomes the herald rejects, and
    # outcomes below ``_PROB_FLOOR``; with ``p_accept`` they sum to one
    rejected: float = 0.0
    dropped: float = 0.0
    # the pumped norm the truncation cap dropped over the pumped norm
    # before the cap (connect rounds; zero for the others)
    truncated: float = 0.0


_PROB_FLOOR = 1e-18

Sectors = Dict[Tuple[int, ...], Dict[Occupation, complex]]


class _Table(dict):
    """A dict that makes each missing entry, ``make(key)``, on first use."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


@functools.lru_cache(maxsize=None)
def _pair_blocks(most: int) -> Tuple[Tuple[int, int], ...]:
    """The pair blocks ``(m_i, m_j)`` of a connect round, ``m <= most``
    pairs per ensemble, in lexicographic order."""
    return tuple([(mi, mj) for mi in range(most + 1) for mj in range(most + 1)])


@functools.lru_cache(maxsize=64)
def _pump_factors(collective: CollectiveModeModel, p_e: float, most: int) -> _Table:
    """``(n_i, n_j, pairs) -> (f_mi g_mj per pair block, the same for the
    blocks of more than ``pairs`` pairs)``, blocks in the order of
    :func:`_pair_blocks`: the amplitude of ``m_i`` and ``m_j`` pairs pumped
    on two atomic modes that hold ``n_i`` and ``n_j`` excitations, of which
    a term with room for ``pairs`` pairs keeps the first blocks and cuts the
    second.  ``f_m = lam^m / sqrt(m!) r_m``, ``lam = sqrt(p_e)``, with
    ``r_m`` the rungs in ``(s+)^m |n> = r_m |n + m>`` of
    :func:`~wclass_sim.fock.create`, finite-size factor included."""
    lam = math.sqrt(p_e)
    amp = [lam**m / math.sqrt(math.factorial(m)) for m in range(most + 1)]
    blocks = _pair_blocks(most)

    def one_mode(n: int) -> List[float]:
        rungs = [1.0]
        for k in range(n, n + most):
            rungs.append(rungs[-1] * (math.sqrt(k + 1) * collective.create_scale(k)))
        return [x * r for x, r in zip(amp, rungs)]

    def factors(key: Tuple[int, int, int]) -> Tuple[tuple, tuple]:
        ni, nj, pairs = key
        fi, fj = one_mode(ni), one_mode(nj)
        fg = tuple([fi[mi] * fj[mj] for mi, mj in blocks])
        return fg, tuple([x for x, (mi, mj) in zip(fg, blocks) if mi + mj > pairs])

    return _Table(factors)


@dataclass(frozen=True)
class _Herald:
    """The herald rule of a round: each accepted click pattern (one flag per
    detector of ``detectors``) with the registry indices of the modes its
    pi feed-forward flips, in the order they are flipped; every other
    pattern is rejected.  ``order`` says where each outcome step's count
    sits in ``lost + detected``: branches come in the lexicographic order of
    their outcomes along the steps."""

    detectors: Tuple[str, ...]
    accept: Tuple[Tuple[Tuple[bool, ...], Tuple[int, ...]], ...]
    order: Tuple[int, ...]


@functools.lru_cache(maxsize=256)
def _leaf_table(herald: _Herald, eta: float) -> _Table:
    """``ports -> leaves`` of ``herald`` behind transmission-``1 - eta``
    channels: the outcomes of a sector that holds ``ports`` photons on the
    detected ports, one leaf per split of each port's photons into lost and
    detected, in the lexicographic order of the photons lost.  A leaf is
    ``(loss factor per port, flips or None when rejected, position along
    the steps, photons detected per port, named clicks, photons lost)``."""
    accept = dict(herald.accept)

    def leaves(ports: Tuple[int, ...]) -> tuple:
        weights = [loss_weights(k, eta) for k in ports]
        out = []
        # photons lost per port; with no loss, only none has any weight
        for lost in product(*[range(k + 1 if eta else 1) for k in ports]):
            det = tuple(map(operator.sub, ports, lost))
            clicks = tuple([d > 0 for d in det])  # one photon or more clicks
            outcome = lost + det
            out.append((
                tuple(map(operator.getitem, weights, lost)),
                accept.get(clicks),
                tuple([outcome[k] for k in herald.order]),
                det,
                tuple(zip(herald.detectors, clicks)),
                sum(lost),
            ))
        return tuple(out)

    return _Table(leaves)


#: ``n -> cmath.rect(1.0, math.pi * n)``: the factor a pi phase shift puts
#: on ``n`` excitations, as :func:`~wclass_sim.optics.apply_phase` makes it
_PI_SHIFTS = _Table(lambda n: cmath.rect(1.0, math.pi * n))


def _conditioned(
    state: FockState, terms: Dict[Occupation, complex], n2: float, flips: Tuple[int, ...]
) -> FockState:
    """The sector ``terms`` of squared norm ``n2``, normalized, with a pi
    feed-forward on each mode of ``flips``: :func:`~wclass_sim.fock.normalize`
    and then :func:`~wclass_sim.optics.apply_phase` per flipped mode, with
    their factors and prunes, in one pass.  Every branch state of a round is
    made here.  It is keyed (:meth:`~wclass_sim.fock.FockState.key`, one
    rounding pass and one hash) when first looked up: :func:`_heralded`
    keys each of its states once to merge branches, and a table keys the
    states it reaches, so a chain's final states are never keyed."""
    nrm = math.sqrt(n2)
    out = {}
    for occ, a in terms.items():
        a = 0j + a / nrm
        if abs(a) < PRUNE_THRESHOLD:
            continue
        for k in flips:
            a = 0j + a * _PI_SHIFTS[occ[k]]
            if abs(a) < PRUNE_THRESHOLD:
                break
        else:
            out[occ] = a
    return FockState._from_terms(state.registry, out, state.truncation_cap, pruned=True)


def _heralded(
    state: FockState,
    sectors: Sectors,
    herald: _Herald,
    eta: float,
    cut: float = 0.0,
) -> RoundDistribution:
    """Enumerate one heralded round from its port sectors.

    ``sectors`` maps the photon numbers on the detected ports to the atomic
    terms left with them, unnormalized; each port passes a
    transmission-``1 - eta`` loss channel and then an absorbing detector,
    named by ``herald.detectors`` in order.  Loss before an absorbing
    detector only reweights each sector, so losing ``l`` and detecting ``d``
    photons per port happens in the sector ``l + d`` alone, with probability
    the sector's share of the total norm times ``C(l + d, l) eta^l
    (1 - eta)^d`` per port (:func:`~wclass_sim.optics.loss_weights`); these
    outcomes, with their clicks and the herald's verdict, are the sector's
    leaves (:func:`_leaf_table`), made once per (ports, eta, herald).  An
    accepted outcome leaves its sector, normalized and with the herald's
    feed-forward, as a state of ``state``'s registry and cap; each sector is
    built once per feed-forward.  ``cut`` is the norm the truncation cap
    dropped before the sectors were formed; the round reports
    ``cut / (cut + total)`` as ``truncated``, the cap's only record.

    An outcome below ``_PROB_FLOOR`` is dropped; since no outcome is more
    likely than any prefix of it along the ports' loss and detection steps,
    this is the cut a walk one step at a time would make.  Branches come in
    the order along the steps (``herald.order``), and those equal in state
    key, clicks, detected and lost photons are merged onto the first, which
    keeps its own state.  Each built state is keyed once: it gets the index
    of its key among the round's, and the merge compares indices.
    """
    parts = {}  # ports -> (squared norm, terms), of the sectors left nonzero
    total = 0.0  # their squared norms, folded left
    for n, terms in sectors.items():
        kept = {}
        n2 = 0
        for occ, a in terms.items():
            w = abs(a)
            if w >= PRUNE_THRESHOLD:  # what a state of the split light would prune
                kept[occ] = a
                n2 += w**2
        if kept:
            parts[n] = (n2, kept)
            total += n2
    if total <= 0.0:
        raise NormalizationError("a heralded round of the zero state")
    table = _leaf_table(herald, eta)
    leaves = []
    rejected = dropped = 0.0
    for n, (n2, _) in parts.items():
        share = n2 / total
        for factors, flips, along, det, named, lost in table[n]:
            p = share
            for w in factors:
                p *= w
            if p < _PROB_FLOOR:
                dropped += p
            elif flips is None:
                rejected += p
            else:
                leaves.append((along, n, flips, det, named, lost, p))
    leaves.sort(key=operator.itemgetter(0))

    built: Dict[tuple, Tuple[FockState, int]] = {}  # (ports, flips) -> (post, its index)
    index: Dict[tuple, int] = {}  # state key -> index, keyed once per post
    merged: Dict[tuple, list] = {}
    for _, n, flips, det, named, lost, p in leaves:
        got = built.get((n, flips))
        if got is None:
            n2, terms = parts[n]
            post = _conditioned(state, terms, n2, flips)
            got = built[n, flips] = (post, index.setdefault(post.key(), len(index)))
        post, i = got
        old = merged.get((i, named, det, lost))
        if old is None:  # a merged branch keeps the post of its first leaf
            merged[i, named, det, lost] = [p, post, named, det, lost]
        else:
            old[0] += p
    branches = tuple([RoundBranch(*b) for b in merged.values()])
    p_accept = 0.0  # the branches' probabilities, folded left
    for b in branches:
        p_accept += b.prob
    return RoundDistribution(p_accept, branches, rejected, dropped, cut / (cut + total))


def connect_round(
    state: FockState,
    layout: ChainLayout,
    i: int,
    j: int,
    cfg: ProtocolConfig,
    detector_ids: Tuple[str, str] = ("D1", "D2"),
    symmetric_port_only: bool = False,
) -> RoundDistribution:
    """Enumerate one pump-interfere-detect round on parties ``i`` and ``j``,
    in the zero-phase frame (``cfg.phases`` is not read).

    Each ensemble emits ``m`` pairs (up to two with
    ``cfg.second_order_pump``) with amplitude ``lam^m / sqrt(m!)``,
    ``lam = sqrt(p_e)``.  The Stokes photons are only detected, so the
    splitter takes the ``(m_i, m_j)`` photons to port sectors ``(n_1, n_2)``
    (:func:`~wclass_sim.optics._splitter_expansion`), and each sector
    heralds ``sum c (s_i+)^m_i (s_j+)^m_j |state>`` on the atoms, term by
    term, from the pump factors of the configuration (:func:`_pump_factors`).
    Until they are detected the photons count against the cap: a term is
    kept while its atoms plus twice its pairs fit, and ``truncated``, the
    pumped norm dropped over the pumped norm before the cap, is the only
    record of the dropped ones.  The sectors are summed pair block by pair
    block, in lexicographic order, and term by term within a block.

    Accepts exactly one click.  A click on the antisymmetric port is folded
    back onto the symmetric outcome by a pi feed-forward on ensemble ``j``
    unless ``symmetric_port_only`` rejects it (the maximizing round).
    """
    if cfg.p_e <= 0.0:
        return RoundDistribution(0.0, (), rejected=1.0)  # no pair, no click
    if cfg.p_e > 0.1:
        warnings.warn(
            f"emission_prob={cfg.p_e} is outside the weak-pump regime; "
            "the truncated expansion loses accuracy",
            stacklevel=2,
        )
    most = 2 if cfg.second_order_pump else 1  # pairs per ensemble
    pump = _pump_factors(state.registry.collective, cfg.p_e, most)
    blocks = _pair_blocks(most)
    ii, ij = layout.ensemble(i).index, layout.ensemble(j).index
    cap = state.truncation_cap
    rows = []  # (occupation, amplitude, pump factor per block, pairs it has room for)
    cut = 0.0
    room = -1  # the most pairs any term has room for
    for occ, a in state.items():
        pairs = (cap - sum(occ)) // 2  # each pair takes two quanta
        fg, over = pump[occ[ii], occ[ij], pairs]
        for x in over:
            cut += abs(a * x) ** 2
        rows.append((occ, a, fg, pairs))
        room = max(room, pairs)
    sectors: Sectors = {}
    for b, (mi, mj) in enumerate(blocks):
        if mi + mj > room:
            continue
        scale, outs = _splitter_expansion(mi, mj)
        ports = [(sectors.setdefault((p, q), {}), c) for p, q, c in outs]
        for occ, a, fg, pairs in rows:
            if pairs < mi + mj:
                continue
            new = list(occ)
            new[ii] += mi
            new[ij] += mj
            new = tuple(new)
            base = a * fg[b] / scale
            for sec, c in ports:
                sec[new] = sec.get(new, 0j) + base * c
    herald = _connect_herald(tuple(detector_ids), ij, symmetric_port_only)
    return _heralded(state, sectors, herald, cfg.eta, cut)


@functools.lru_cache(maxsize=256)
def _connect_herald(
    detector_ids: Tuple[str, str], ij: int, symmetric_port_only: bool
) -> _Herald:
    """The herald of a connect round (see :func:`connect_round`), made once
    per detector pair, fixed mode and port rule."""
    accept = [((True, False), ())]
    if not symmetric_port_only:  # the antisymmetric port, fixed on j
        accept.append(((False, True), (ij,)))
    # loss on both ports, then detection on both
    return _Herald(detector_ids, tuple(accept), (0, 1, 2, 3))


@functools.lru_cache(maxsize=64)
def _down_rungs(collective: CollectiveModeModel) -> _Table:
    """``k -> sqrt(k) * collective.annihilate_scale(k)``: the factor
    :func:`~wclass_sim.fock.annihilate` puts on a term with ``k``
    excitations on an atomic mode."""
    return _Table(lambda k: math.sqrt(k) * collective.annihilate_scale(k))


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
    ``sum_k P(n_i = k) (1 - eta^k)``.  One pass over the terms takes their
    Born weights and the annihilated terms; the arithmetic is that of
    :func:`~wclass_sim.fock.count_excitations`,
    :func:`~wclass_sim.fock.annihilate` and
    :func:`~wclass_sim.fock.normalize` (in :func:`_conditioned`), in their
    order.
    """
    idx = state.registry.check_mode(layout.ensemble(i)).index
    rungs = _down_rungs(state.registry.collective)
    total = 0
    weights = []  # (n_i, Born weight) per term
    kept = {}  # the annihilated terms past the prune
    n2 = 0
    for occ, a in state.items():
        w = abs(a) ** 2
        total += w
        k = occ[idx]
        weights.append((k, w))
        if k:
            a = 0j + a * rungs[k]
            if abs(a) >= PRUNE_THRESHOLD:
                kept[occ[:idx] + (k - 1,) + occ[idx + 1 :]] = a
                n2 += abs(a) ** 2
    if total <= 0.0:
        raise NormalizationError("cannot measure an empty state")
    dist: Dict[int, float] = {}
    for k, w in weights:
        dist[k] = dist.get(k, 0.0) + w / total
    p_click = 0.0  # a left fold, as every sum that feeds a report
    for k, p in dist.items():
        if k >= 1:
            p_click += p * (1.0 - cfg.eta**k)
    if p_click <= 0.0:
        return RoundDistribution(0.0, (), rejected=1.0)
    if n2 <= 0.0:
        raise NormalizationError("cannot normalize the zero state")
    post = _conditioned(state, kept, n2, ())
    branch = RoundBranch(p_click, post, ((detector_id, True),), (1,), 0)
    return RoundDistribution(p_click, (branch,), rejected=1.0 - p_click)


def teleport_round(
    state: FockState, layout: TeleportLayout, cfg: ProtocolConfig
) -> RoundDistribution:
    """Enumerate the synchronous four-ensemble retrieval of the teleport step.

    Retrieval maps every excitation of ensembles L, 1, R and 4 to a photon,
    and the splitters (L, 1) and (R, 4) take those photons to the ports of
    D1, D2 and D3, D4; the photons are only detected, so each port sector
    heralds the atoms the retrieval leaves.  Accepts exactly one click
    behind each beam splitter (one in D1/D2, one in D3/D4).  Feed-forward: a
    D2 click flips the sign of the component carried by ensembles 5 and 6,
    a D4 click the one carried by 2 and 3.  ``detected`` records the true
    photon numbers so callers can tell bunched two-photon accepts from
    correct single-photon ones.
    """
    ens = [m.index for m in layout.ensembles]
    retrieved = [layout.mode_l.index, ens[0], layout.mode_r.index, ens[3]]
    sectors: Sectors = {}
    for occ, a in state.items():
        n_l, n_1, n_r, n_4 = map(occ.__getitem__, retrieved)
        rest = list(occ)
        for k in retrieved:
            rest[k] = 0
        rest = tuple(rest)
        scale, left = _splitter_expansion(n_l, n_1)
        scale_right, right = _splitter_expansion(n_r, n_4)
        for p, q, c in left:
            base = a / scale * c / scale_right
            for r, s, d in right:
                sec = sectors.setdefault((p, q, r, s), {})
                sec[rest] = sec.get(rest, 0j) + base * d
    d2 = (ens[4], ens[5])  # D2: the photon came through the ensemble-1 port
    d4 = (ens[1], ens[2])  # D4: the photon came through the ensemble-4 port
    accept = (
        ((True, False, True, False), ()),
        ((True, False, False, True), d4),
        ((False, True, True, False), d2),
        ((False, True, False, True), d2 + d4),
    )
    # loss then detection on each port in turn
    herald = _Herald(("D1", "D2", "D3", "D4"), accept, (0, 4, 1, 5, 2, 6, 3, 7))
    return _heralded(state, sectors, herald, cfg.eta)


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


@functools.lru_cache(maxsize=64)
def chain_stages(n: int) -> Tuple[StageSpec, ...]:
    """EPR, then connect/merge pairs, then the maximizing pair (made once
    per ``n``)."""
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
class ChainSample:
    """Columns of a block of chain trials, in trial order.

    ``attempts`` and ``successes`` hold a row of per-stage counts per trial:
    int64, or Python ints when the budget passes int64.  ``terminal`` holds
    the index in :attr:`ChainSimulator.terminals` of the branch each trial's
    pass ended on, and ``extra`` a row per trial of the uniforms it drew
    after the one that chose it; both mean something for succeeded trials
    only.
    """

    succeeded: np.ndarray
    attempts: np.ndarray
    successes: np.ndarray
    terminal: np.ndarray
    extra: np.ndarray


def pick(branches: Sequence, u: float, cum: Sequence[float]):
    """Categorical draw: the first branch at which ``cum``, the running sums
    of the branch weights (``itertools.accumulate``), exceeds ``u``, or the
    last branch when rounding leaves ``u`` beyond the total."""
    k = bisect_right(cum, u)
    return branches[k] if k < len(branches) else branches[-1]


def choose(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`pick` for many draws at once: for each ``u``, the index of the
    first of the running sums ``cum`` that exceeds it, or the last index
    when rounding leaves ``u`` beyond the total."""
    return np.minimum(cum.searchsorted(u, side="right"), len(cum) - 1)


def _spend_budget(rng: np.random.Generator, law: tuple, budget: int) -> Tuple[List[int], int]:
    """Failed passes, with failure stages drawn from ``law`` (a chain's
    ``_law``), until their rounds reach ``budget``: ``(passes failed at each
    stage, stages got through by a last pass that the budget cut short)``.

    A pass failing at stage ``k`` costs ``k + 1 <= max_cost`` rounds, so a
    block of ``left // max_cost`` passes (at most ``2**63 - 1``, the most
    ``multinomial`` takes) always fits in the ``left`` rounds still to spend
    and can be drawn at once; the last few are drawn singly.
    """
    cond, max_cost, cum = law
    counts = [0] * len(cond)
    left = budget
    while left >= max_cost:
        block = rng.multinomial(min(left // max_cost, 2**63 - 1), cond).tolist()
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


@functools.lru_cache(maxsize=64)
def _tally_tables(n_stages: int) -> Tuple[np.ndarray, np.ndarray]:
    """The tally's tables of an ``n_stages`` chain, made once per stage
    count and read-only: ``(counts @ failed_later)[k]`` sums the passes
    failed at stage k or later, and ``last_pass[h]`` marks the stages that a
    last pass getting through h stages attempted."""
    failed_later = np.tri(n_stages, dtype=np.int64)
    last_pass = np.tri(n_stages + 1, n_stages, -1, dtype=np.int64)
    failed_later.flags.writeable = last_pass.flags.writeable = False
    return failed_later, last_pass


@dataclass(eq=False, slots=True)
class _Node:
    """One reached ``(stage, state)`` of a pass: its round and the exact
    odds of the rest of the pass from here.  The node a branch leads to is
    the table's ``(stage + 1, branch state)``."""

    dist: RoundDistribution
    p_complete: float  # sum of branch prob x P(pass then completes)
    fail: Tuple[float, ...]  # P(pass fails at stage k)


class ChainSimulator:
    """Repeat-until-success runner of a stage list, by default the
    ``n``-party W chain (:func:`chain_stages`).

    Any failed conditioning restarts the whole list from its first stage, so
    a trial is a sequence of independent passes.  Each reached ``(stage,
    state)`` is enumerated once into a node of one table, linked to the
    nodes its branches lead to.  Every pass starts from the vacuum, so the
    table is built, closed, with its root, and with it the law of a failed
    pass and the terminal law: P(a completed pass ends on each last-stage
    branch).  What a completed trial reports depends only on the branch it
    ended on, so no trial computes a state key.  States are in the
    zero-phase frame.

    Trials are sampled in two phases (:meth:`sample`).  Phase one takes the
    trials' draws from one generator, trial after trial: the number of
    passes geometrically, the failed passes' stages multinomially, then one
    uniform for the final branch.  Phase two works on the block's columns:
    it draws every completed trial's final branch from the terminal law at
    once (:func:`choose`) and tallies each stage's attempts and successes.
    """

    def __init__(self, cfg: ProtocolConfig, stages: Sequence[StageSpec] | None = None):
        self.cfg = cfg
        self.layout = make_chain_layout(cfg)
        self.stages = chain_stages(cfg.n) if stages is None else tuple(stages)
        self._vacuum = self.layout.vacuum()
        self._nodes: Dict[tuple, _Node] = {}
        self._failed_later, self._last_pass = _tally_tables(len(self.stages))

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
        node = self._nodes.get(key)
        if node is not None:
            return node
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
        nxt = idx + 1
        later = [0.0] * (len(self.stages) - nxt)  # P(fail at each later stage)
        p_complete = 0.0
        for br in dist.branches:  # each child is built, with its own, in turn
            p = br.prob
            if later:
                child = self._node(nxt, br.state)
                p_complete += p * child.p_complete
                # a child fails at no stage before its own
                later = [f + p * x for f, x in zip(later, child.fail[nxt:])]
            else:  # past the last stage: the pass completes
                p_complete += p
        fail = (0.0,) * idx + (1.0 - dist.p_accept, *later)
        # stored after its children: each node comes after every node it leads to
        node = self._nodes[key] = _Node(dist, p_complete, fail)
        return node

    @functools.cached_property
    def _vacuum_root(self) -> _Node:
        """The node where every pass starts, built with every node a pass
        can reach, and with it, once: the law of a failed pass (``_law``:
        P(it failed at stage k), its largest cost in rounds, k + 1 at stage
        k, and running sums) and the terminal law (:meth:`_terminal_law`)."""
        root = self._node(0, self._vacuum)
        q = (1.0 - root.p_complete) or 1.0  # a pass that never fails: any law will do
        cond = np.maximum(np.array(root.fail) / q, 0.0)
        cond[-1] = max(0.0, 1.0 - cond[:-1].sum())
        self._law = (cond, int(np.flatnonzero(cond)[-1]) + 1, list(accumulate(cond.tolist())))
        self._terminals, self._ends = self._terminal_law(root)
        return root

    @property
    def terminals(self) -> Tuple[RoundBranch, ...]:
        """The last stage's branches that a completed pass can end on
        (:meth:`_terminal_law`)."""
        self._vacuum_root
        return self._terminals

    def _terminal_law(self, root: _Node) -> Tuple[Tuple[RoundBranch, ...], np.ndarray]:
        """``(terminals, running sums)``: the last stage's branches that a
        completed pass can end on, in the order their nodes were built, and
        the running sums of P(a completed pass ends on each); empty when no
        pass completes.

        One pass over the nodes from the root down (the reverse of the order
        they were built in, which puts each node after every node that leads
        to it) hands each node's reach, P(a completed pass goes through it),
        on to its children: a child gains reach x branch prob x its own
        ``p_complete`` / the node's ``p_complete``."""
        last = len(self.stages) - 1
        reach = {root: 1.0}
        ends = []  # (a last-stage node, its reach over its p_complete)
        for (idx, _), node in reversed(self._nodes.items()):
            r = reach.get(node, 0.0)
            if r == 0.0 or node.p_complete == 0.0:
                continue
            scale = r / node.p_complete
            if idx == last:
                ends.append((node, scale))
                continue
            for br in node.dist.branches:
                child = self._node(idx + 1, br.state)
                reach[child] = reach.get(child, 0.0) + scale * br.prob * child.p_complete
        terminals = tuple([br for node, _ in reversed(ends) for br in node.dist.branches])
        weights = [scale * br.prob for node, scale in reversed(ends) for br in node.dist.branches]
        return terminals, np.array(list(accumulate(weights)), dtype=float)

    # -- trial sampling ----------------------------------------------------

    def _draw(
        self, rng: np.random.Generator, trials: int, width: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Phase one: the trials' draws from ``rng``, trial by trial.  A
        trial draws its passes (geometric; none when a pass always
        completes), then its failed passes' stages (multinomial; none for a
        one-stage chain or no failure), then, when its rounds fit the
        budget, ``width`` uniforms: one for its final branch, then any the
        caller asked for.  A trial that overruns the budget spends it
        instead (:func:`_spend_budget`).

        Returns ``(failed passes per stage, stages the last pass got
        through, uniforms)`` as arrays of ``trials`` rows; a trial got through
        every stage exactly when it completed, and an exhausted trial's
        uniforms are zeros.
        """
        n_stages = len(self.stages)
        budget = self.cfg.max_attempts
        p_pass, cond = self._vacuum_root.p_complete, self._law[0]
        # no count of a trial exceeds its rounds, which do not exceed the budget
        counts = np.zeros((trials, n_stages), np.int64 if budget < 2**63 else object)
        through = np.full(trials, n_stages)
        uniforms = np.zeros((trials, width))
        costs = range(1, n_stages + 1)  # a pass failed at stage k cost k + 1 rounds
        for t in range(trials):
            if p_pass > 0.0:
                fails = 0 if p_pass >= 1.0 else int(rng.geometric(p_pass)) - 1
                if fails and n_stages == 1:
                    counts[t, 0] = fails  # what multinomial returns, without its cost
                elif fails:
                    counts[t] = rng.multinomial(fails, cond)
                # the rounds are at most (fails + 1) n_stages; count them
                # exactly only when that bound passes the budget
                if (fails + 1) * n_stages <= budget or (
                    sum(map(operator.mul, counts[t].tolist(), costs)) + n_stages <= budget
                ):
                    rng.random(out=uniforms[t])
                    continue
            counts[t], through[t] = _spend_budget(rng, self._law, budget)
        return counts, through, uniforms

    def sample(self, rng: np.random.Generator, trials: int, extra: int = 0) -> ChainSample:
        """``trials`` trials within ``max_attempts`` rounds each, drawing
        from ``rng`` one after another; each completed trial draws ``extra``
        more uniforms after the one that picks its final branch from the
        terminal law.

        A trial that exhausts its budget spends it on failed passes drawn
        from the failure law until their rounds reach the budget; a last pass
        cut short by the budget counts the stages it got through.  So its
        rounds equal the budget, its stage attempts sum to it, and a
        one-stage chain records ``(budget,)`` attempts and no success.
        """
        n_stages = len(self.stages)
        counts, through, uniforms = self._draw(rng, trials, 1 + extra)
        # phase two: the final branches (an exhausted trial's, drawn on a
        # zero, is never read), then the tally: a stage is attempted by every
        # pass that failed there or later, and by the last pass when it got
        # that far
        terminal = choose(self._ends, uniforms[:, 0])
        attempts = counts @ self._failed_later + self._last_pass[through]
        return ChainSample(
            through == n_stages, attempts, attempts - counts, terminal, uniforms[:, 1:]
        )

    def run_trial(self, rng: np.random.Generator) -> StepOutcome:
        """One trial of :meth:`sample`."""
        s = self.sample(rng, 1)
        attempts = tuple(s.attempts[0].tolist())
        successes = tuple(s.successes[0].tolist())
        if not s.succeeded[0]:
            return StepOutcome(False, sum(attempts), None, (), attempts, successes)
        end = self.terminals[s.terminal[0]]
        return StepOutcome(True, sum(attempts), end.state, end.clicks, attempts, successes)


# ---------------------------------------------------------------------------
# public protocol steps
# ---------------------------------------------------------------------------


def prepare_epr(cfg: ProtocolConfig, i: int, j: int, rng: np.random.Generator) -> StepOutcome:
    """Entangle ensembles ``i`` and ``j`` from the ground state.

    Pumps both, interferes the Stokes light, and conditions on exactly one
    click; failed attempts reset to the ground state and repeat, up to
    ``max_attempts``: the one-stage chain ``(epr_stage(i, j),)``.
    """
    return build_w_chain(cfg, rng, stages=(epr_stage(i, j),))


def build_w_chain(
    cfg: ProtocolConfig, rng: np.random.Generator, stages: Sequence[StageSpec] | None = None
) -> StepOutcome:
    """Build the ``n``-party W state (or run another stage list), restarting
    from the first stage on any failure.  The channel phases are put on the
    final state."""
    sim = ChainSimulator(cfg, stages)
    out = sim.run_trial(rng)
    if not out.succeeded:
        worst = sim.stages[out.stage_attempts.index(max(out.stage_attempts))].label
        raise AttemptsExhaustedError(
            f"chain build exhausted {cfg.max_attempts} attempts "
            f"(most spent at {worst})",
            stage=worst,
            attempts=cfg.max_attempts,
        )
    put_on = [-ph for ph in cfg.phases]  # phase_compensate takes its phases off
    return replace(out, state=phase_compensate(out.state, put_on, sim.layout.ensembles))


# ---------------------------------------------------------------------------
# teleportation
# ---------------------------------------------------------------------------


def exact_double_w_state(tcfg: TeleportConfig, layout: TeleportLayout) -> FockState:
    """Operator-algebra ``|W>_123 x |W>_456`` on the teleport registry."""
    w123 = w_state_by_operators(3, tcfg.base.phases, layout)  # on ensembles 1..3
    coeffs = [cmath.rect(1.0, ph) / math.sqrt(3) for ph in tcfg.base.phases]
    return _excite(w123, layout.ensembles[3:], coeffs)


def _retrieval_round(
    tcfg: TeleportConfig, layout: TeleportLayout, joint: FockState
) -> RoundDistribution:
    """The teleport round on the W pair ``joint``, the unknown state on L and R."""
    psi = qubit_state(tcfg, joint, (layout.mode_l, layout.mode_r))
    return teleport_round(psi, layout, tcfg.base)


def _retrieve(rng: np.random.Generator, dist: RoundDistribution, rounds: int) -> StepOutcome:
    """One teleport round drawn from ``dist``: ``u = rng.random()`` rejects
    the clicks when ``u >= p_accept``, and otherwise picks the accepted
    branch by the same ``u``; its outcome counts ``rounds`` rounds in all."""
    u = rng.random()
    if u >= dist.p_accept:
        return StepOutcome(False, rounds, None, ())
    br = pick(dist.branches, u, list(accumulate(b.prob for b in dist.branches)))
    return StepOutcome(
        True, rounds, br.state, br.clicks, correct_clicks=correct_teleport_clicks(br)
    )


def teleport_from_states(
    tcfg: TeleportConfig,
    rng: np.random.Generator,
    layout: TeleportLayout,
    joint_w_state: FockState,
) -> StepOutcome:
    """One teleport round given already-prepared W states (single attempt)."""
    return _retrieve(rng, _retrieval_round(tcfg, layout, joint_w_state), 1)


class TeleportSimulator:
    """The teleport registry, the n=3 W chain that prepares both W states of
    :func:`teleport` from the vacuum (``chain``, of ``tcfg.base`` up to seed
    and phases; batches share one), and the retrieval rounds, memoized per
    pair of chain outcomes: the two states themselves, branches of the
    chain's closed table.  All in the zero-phase frame."""

    def __init__(self, tcfg: TeleportConfig, chain: ChainSimulator | None = None):
        self.tcfg = tcfg
        self.layout = make_teleport_layout(tcfg)
        self.chain = chain or ChainSimulator(tcfg.base)
        same = self.chain.cfg.table_config() == tcfg.base.table_config()
        if self.chain.stages != chain_stages(3) or not same:
            raise ValueError("the W-chain simulator was built from another config")
        self._rounds = _Table(lambda w: _retrieval_round(tcfg, self.layout, self.joint_state(*w)))

    def joint_state(self, w123: FockState, w456: FockState) -> FockState:
        """``|w123> x |w456>``, two states of the chain's registry, on
        ensembles 1..3 and 4..6 of the teleport registry (L and R empty)."""
        terms = {(0, 0, *o, *p): a * b for o, a in w123.items() for p, b in w456.items()}
        return FockState._from_terms(self.layout.registry, terms, self.layout.truncation_cap)

    def round_distribution(self, w123: FockState, w456: FockState) -> RoundDistribution:
        """The teleport round on the W states ``w123`` and ``w456``,
        enumerated once per pair."""
        return self._rounds[w123, w456]


def teleport(
    tcfg: TeleportConfig,
    rng: np.random.Generator,
    sim: TeleportSimulator | None = None,
) -> StepOutcome:
    """One trial of the full pipeline: build W123, then W456, retrieve, and
    condition on two clicks; the channel phases are put on the accepted
    state.  ``sim`` must be built from this very ``tcfg`` (a fresh one by
    default); pass one to every trial of a batch.

    The W states are two trials of ``sim.chain``.  A failed conditioning
    round discards both and re-prepares them, as the protocol prescribes;
    rounds accumulate across restarts.  Like every trial runner, a trial
    that runs out of ``max_attempts`` rounds returns ``succeeded=False``,
    with ``attempts == max_attempts`` and no state; only
    :func:`build_w_chain` and :func:`prepare_epr` raise
    :class:`~wclass_sim.errors.AttemptsExhaustedError`.
    """
    if sim is None:
        sim = TeleportSimulator(tcfg)
    elif sim.tcfg is not tcfg:
        raise ValueError("the teleport simulator was built from another config")
    budget = tcfg.base.max_attempts
    rounds = 0
    while rounds < budget:
        w = []  # W123, then W456
        for _ in range(2):
            res = sim.chain.run_trial(rng)
            rounds += res.attempts  # a chain that exhausts spends the whole budget
            w.append(res.state)
            if rounds >= budget:
                break
        else:  # both W states are built: one retrieval round
            rounds += 1
            out = _retrieve(rng, sim.round_distribution(*w), rounds)
            if out.succeeded:
                put_on = [-ph for ph in tcfg.base.phases * 2]  # W123 on 1..3, W456 on 4..6
                return replace(
                    out, state=phase_compensate(out.state, put_on, sim.layout.ensembles)
                )
    return StepOutcome(False, budget, None, ())


def localizable(state: FockState) -> bool:
    """Whether :func:`receiver_localize` may measure ``state``: it is
    nonzero and every term carries exactly one excitation."""
    return not state.is_zero() and all(sum(occ) == 1 for occ, _ in state.items())


def receiver_localize(
    state: FockState,
    receiver_modes: Iterable[Mode],
    rng: np.random.Generator,
) -> Tuple[Holder, FockState]:
    """Projective measurement of the excitation number on one receiver's pair.

    Outcome 1 means this receiver holds the transmitted qubit and the
    residual is their pair's state; outcome 0 hands it to the other receiver.
    Inputs must be :func:`localizable`: one excitation in total (a vacuum
    component, as a vacuum-faking accept leaves, is a precondition
    violation).
    """
    modes = list(receiver_modes)
    if not localizable(state):
        raise PreconditionError(
            "localization needs a single shared excitation; the input is zero "
            "or has a vacuum or multi-excitation component"
        )
    idx = [state.registry.check_mode(m).index for m in modes]
    total = state.norm_squared()
    p_here = (
        left_sum(
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
