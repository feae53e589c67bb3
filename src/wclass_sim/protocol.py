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
  stays flat.  p_e and eta enter a table only as weights, so one table
  serves every (p_e, eta > 0) of its shape (:class:`_Shape`), and each
  configuration weighs it.  Teleportation prepares its two W states as two
  trials of the n=3 chain, each truncated on its own ensembles, and
  retrieves from their product (:class:`TeleportSimulator`).
  Rounds are enumerated on the atoms alone, one pass per round.  Stokes
  and retrieved photons are only ever detected, so no registry holds a mode
  for them: a connect round maps the pumped pairs, and a teleport round the
  retrieved excitations, through the splitters to the photon-number sectors
  of the ports, each sector carrying the atomic state it heralds; a connect
  round sums its sectors at ``lam = 1`` from pump factors kept per
  collective model and weighs a sector of ``M`` pairs by ``p_e^M``.  Loss
  before an absorbing detector only reweights each sector, so a sector's
  outcomes come from a leaf table kept per (port photon numbers, eta,
  herald rule): each leaf holds its loss counts and factors, detections,
  clicks, the herald's verdict and its feed-forward.  One pass over the
  leaves makes the ``_PROB_FLOOR`` cut, the merge of equal branches and the
  round's law (:class:`_HeraldedLaw`, which a table weighs for the other
  configurations of its shape), and each accepted sector becomes one state,
  normalized with its pi feed-forward applied in the same pass.  A repump
  round takes its click probability and its annihilated, normalized state
  in one pass over the terms.

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
from .fock import count_excitations, fidelity
from .optics import _splitter_expansion, apply_phase, loss_weights
# unused here; bench/spans.py wraps these bindings
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
    # a connect or merge round with p_e and eta factored out
    # (:class:`_HeraldedLaw`, :class:`_MergeLaw`), which a chain table
    # weighs for the other configurations of its shape
    law: _HeraldedLaw | _MergeLaw | None = None


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
def _pump_factors(collective: CollectiveModeModel, most: int) -> _Table:
    """``(n_i, n_j, pairs) -> (f_mi g_mj per pair block, (m_i + m_j,
    f_mi g_mj) per block of more than ``pairs`` pairs)``, blocks in the
    order of :func:`_pair_blocks`: the amplitude of ``m_i`` and ``m_j``
    pairs pumped on two atomic modes that hold ``n_i`` and ``n_j``
    excitations, of which a term with room for ``pairs`` pairs keeps the
    first blocks and cuts the second.  ``f_m = r_m / sqrt(m!)``, with
    ``r_m`` the rungs in ``(s+)^m |n> = r_m |n + m>`` of
    :func:`~wclass_sim.fock.create`, finite-size factor included; the pump's
    ``lam^m``, ``lam = sqrt(p_e)``, is left out (the round's law puts
    ``p_e^M`` back on a sector of ``M`` pairs)."""
    amp = [1.0 / math.sqrt(math.factorial(m)) for m in range(most + 1)]
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
        return fg, tuple([(mi + mj, x) for x, (mi, mj) in zip(fg, blocks) if mi + mj > pairs])

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
    ``(position along the steps, (photons, lost) per port, flips or None
    when rejected, photons detected per port, named clicks, photons lost,
    loss factor per port)``."""
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
                tuple([outcome[k] for k in herald.order]),
                tuple(zip(ports, lost)),
                accept.get(clicks),
                det,
                tuple(zip(herald.detectors, clicks)),
                sum(lost),
                tuple(map(operator.getitem, weights, lost)),
            ))
        return tuple(out)

    return _Table(leaves)


@functools.lru_cache(maxsize=64)
def _loss_grid(eta: float, top: int) -> np.ndarray:
    """``k (top + 1) + l -> P(l of k photons lost)`` behind transmission
    ``1 - eta`` (:func:`~wclass_sim.optics.loss_weights`) for ``l <= k <=
    top``, zero elsewhere, read-only: the loss factors of a table's leaves."""
    grid = np.zeros((top + 1) ** 2)
    for k in range(top + 1):
        grid[k * (top + 1) : k * (top + 1) + k + 1] = loss_weights(k, eta)
    grid.flags.writeable = False
    return grid


class _HeraldedLaw(NamedTuple):
    """A heralded round with p_e and eta factored out.

    A sector holds the atomic terms left with ``M`` pumped pairs, summed at
    ``lam = 1``: every term of it
    carries ``lam^M``, so its squared norm at ``p_e`` is ``p_e^M C`` and
    its state does not depend on ``p_e``.  A leaf splits a sector's photons
    into lost and detected per port; at ``eta`` it has probability ``p_e^M
    C / Z(p_e)`` times ``C(k, l) eta^l (1 - eta)^(k - l)`` per port, with
    ``Z`` the sum over the sectors.  The rejected leaves come first, in
    sector order, then the accepted ones along the steps, each naming the
    branch it sums onto; a branch's state, normalized with its
    feed-forward, is the one of its first leaf.  Every leaf is kept, so a
    law enumerated with loss serves every eta > 0.
    """

    sectors: Tuple[Tuple[int, float], ...]  # (M, C) per sector
    leaves: Tuple[Tuple[int, tuple, int], ...]  # (sector, (k, l) per port, branch or -1)
    branches: Tuple[tuple, ...]  # (state, clicks, detected, lost) per branch


class _MergeLaw(NamedTuple):
    """A repump round with eta factored out: the Born weight of each
    excitation number of the read ensemble, and the annihilated state as
    its one branch (none when no term holds an excitation there)."""

    born: Tuple[Tuple[int, float], ...]  # (n_i, P(n_i)), by first appearance
    branches: Tuple[tuple, ...]  # (state, clicks, detected, lost), at most one


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
    p_e: float,
    eta: float,
    cut: Dict[int, float] | None = None,
) -> RoundDistribution:
    """Enumerate one heralded round from its port sectors, with its law.

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
    built once per feed-forward.  ``cut`` maps each pair count ``M`` to the
    norm the truncation cap dropped before the sectors were formed; it is
    None for a round that pumps no pairs.  A round that pumps is summed at
    ``lam = 1``, so a sector of ``M`` pairs weighs ``p_e^M`` times its
    squared norm, and the round reports ``cut / (cut + total)``, both at
    ``p_e``, as ``truncated``, the cap's only record; only such a round
    has a law (``RoundDistribution.law``): no table reweighs the others.

    An outcome below ``_PROB_FLOOR`` is dropped; since no outcome is more
    likely than any prefix of it along the ports' loss and detection steps,
    this is the cut a walk one step at a time would make.  Branches come in
    the order along the steps (``herald.order``), and those equal in state
    key, clicks, detected and lost photons are merged onto the first, which
    keeps its own state.  Each built state is keyed once: it gets the index
    of its key among the round's, and the merge compares indices.  The law
    (:class:`_HeraldedLaw`) keeps every leaf and every accepted branch, those
    the floor drops here included, for the other (p_e, eta) of a table's
    shape: :meth:`ChainSimulator._evaluate` weighs it with this arithmetic.
    """
    parts = {}  # ports -> (squared norm, terms), of the sectors left nonzero
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
    if not parts:
        raise NormalizationError("a heralded round of the zero state")
    pumped = cut is not None
    weights = [n2 for n2, _ in parts.values()]
    if pumped:  # a sector of M pairs, summed at lam = 1
        law_sectors = tuple([(sum(n), n2) for n, (n2, _) in parts.items()])
        weights = [p_e**m * c for m, c in law_sectors]
    total = 0.0  # Z(p_e), folded left
    for w in weights:
        total += w
    table = _leaf_table(herald, eta)
    accepted = []
    rows = [] if pumped else None  # the law's leaves, the rejected ones first
    rejected = dropped = 0.0
    for s, n in enumerate(parts):
        share = weights[s] / total
        for leaf in table[n]:
            p = share
            for w in leaf[6]:
                p *= w
            # without a law to keep, an accepted leaf below the floor is only dropped
            if leaf[2] is not None and (pumped or p >= _PROB_FLOOR):
                accepted.append((leaf[0], leaf, s, n, p))
                continue
            if pumped:
                rows.append((s, leaf[1], -1))
            if p < _PROB_FLOOR:
                dropped += p
            else:
                rejected += p
    accepted.sort(key=operator.itemgetter(0))
    built: Dict[tuple, Tuple[FockState, int]] = {}  # (ports, flips) -> (post, its index)
    index: Dict[tuple, int] = {}  # state key -> index, keyed once per post
    merged: Dict[tuple, int] = {}  # (index, clicks, detected, lost) -> branch
    branches, probs = [], []
    for _, (_, ports, flips, det, named, lost, _), s, n, p in accepted:
        got = built.get((n, flips))
        if got is None:
            n2, terms = parts[n]
            post = _conditioned(state, terms, n2, flips)
            got = built[n, flips] = (post, index.setdefault(post.key(), len(index)))
        post, i = got
        b = merged.setdefault((i, named, det, lost), len(branches))
        if b == len(branches):
            branches.append((post, named, det, lost))
            probs.append(0.0)
        if pumped:
            rows.append((s, ports, b))
        if p < _PROB_FLOOR:
            dropped += p
        else:
            probs[b] += p
    # a kept leaf is at least _PROB_FLOOR: a branch is kept when its sum is not 0
    out = tuple([RoundBranch(p, *br) for p, br in zip(probs, branches) if p])
    p_accept = 0.0  # the branches' probabilities, folded left
    for br in out:
        p_accept += br.prob
    lost_to_cap = 0.0
    law = None
    if pumped:
        for m, c in sorted(cut.items()):
            lost_to_cap += p_e**m * c
        law = _HeraldedLaw(law_sectors, tuple(rows), tuple(branches))
    return RoundDistribution(
        p_accept, out, rejected, dropped, lost_to_cap / (lost_to_cap + total), law
    )


def _warn_strong_pump(p_e: float) -> None:
    """Warn, for the caller's caller, when ``p_e`` is past the weak pump
    that the expansion to two pairs per ensemble assumes."""
    if p_e > 0.1:
        warnings.warn(
            f"emission_prob={p_e} is outside the weak-pump regime; "
            "the truncated expansion loses accuracy",
            stacklevel=3,
        )


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
    term, from the pump factors (:func:`_pump_factors`).  A sector holds
    ``M = n_1 + n_2 = m_i + m_j`` photons, so ``lam^M`` sits on each of its
    terms: the sectors are summed at ``lam = 1``, which leaves every branch
    state independent of p_e, and weighed by ``p_e^M`` (:func:`_heralded`,
    which also returns the round's law for a table's other configurations).
    Until they are detected
    the photons count against the cap: a term is kept while its atoms plus
    twice its pairs fit, and ``truncated``, the pumped norm dropped over
    the pumped norm before the cap, is the only record of the dropped ones.
    The sectors are summed pair block by pair block, in lexicographic
    order, and term by term within a block.

    Accepts exactly one click.  A click on the antisymmetric port is folded
    back onto the symmetric outcome by a pi feed-forward on ensemble ``j``
    unless ``symmetric_port_only`` rejects it (the maximizing round).
    """
    _warn_strong_pump(cfg.p_e)
    most = 2 if cfg.second_order_pump else 1  # pairs per ensemble
    pump = _pump_factors(state.registry.collective, most)
    blocks = _pair_blocks(most)
    ii, ij = layout.ensemble(i).index, layout.ensemble(j).index
    cap = state.truncation_cap
    rows = []  # (occupation, amplitude, pump factor per block, pairs it has room for)
    cut: Dict[int, float] = {}  # pairs -> the norm the cap dropped
    room = -1  # the most pairs any term has room for
    for occ, a in state.items():
        pairs = (cap - sum(occ)) // 2  # each pair takes two quanta
        fg, over = pump[occ[ii], occ[ij], pairs]
        for m, x in over:
            cut[m] = cut.get(m, 0.0) + abs(a * x) ** 2
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
    return _heralded(state, sectors, herald, cfg.p_e, cfg.eta, cut)


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
    ``sum_k P(n_i = k) (1 - eta^k)``; the Born weights and the state are the
    round's law (:class:`_MergeLaw`).  One pass over the
    terms takes their Born weights and the annihilated terms; the arithmetic
    is that of :func:`~wclass_sim.fock.count_excitations`,
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
    born: Dict[int, float] = {}
    for k, w in weights:
        born[k] = born.get(k, 0.0) + w / total
    branches = ()
    if n2 > 0.0:
        post = _conditioned(state, kept, n2, ())
        branches = ((post, ((detector_id, True),), (1,), 0),)
    law = _MergeLaw(tuple(born.items()), branches)
    p_click = 0.0  # a left fold, as every sum that feeds a report
    for k, p in law.born:
        if k >= 1:
            p_click += p * (1.0 - cfg.eta**k)
    if p_click <= 0.0:
        return RoundDistribution(0.0, (), rejected=1.0, law=law)
    if not branches:
        raise NormalizationError("cannot normalize the zero state")
    branch = RoundBranch(p_click, *branches[0])
    return RoundDistribution(p_click, (branch,), rejected=1.0 - p_click, law=law)


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
    return _heralded(state, sectors, herald, 1.0, cfg.eta)


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


def _stage_round(
    spec: StageSpec, state: FockState, layout: ChainLayout, cfg: ProtocolConfig
) -> RoundDistribution:
    """The round of stage ``spec`` on ``state``."""
    if spec.kind == "connect":
        return connect_round(
            state, layout, spec.i, spec.j, cfg, spec.detectors, spec.symmetric_port_only
        )
    return merge_round(state, layout, spec.i, cfg, spec.detectors[0])


def _final_outcome(
    state: FockState, target: FockState, layout: ChainLayout, classify: bool
) -> Tuple[float, float]:
    """``(fidelity with target, P(the last two ensembles hold nothing))`` of
    a final state; the second is NaN when the state is never classified
    (an EPR pair, or a W outcome).

    A success counts as a W outcome when it overlaps the ideal W state by
    more than one half.  Otherwise the excitation number of the last two
    ensembles is measured (Born sampled): finding them empty is the vacuum
    signature of a multi-pair emission whose partner photon was lost, and
    anything else is residual contamination.
    """
    fid = fidelity(state, target)
    if not classify or fid > 0.5:
        return fid, math.nan
    return fid, count_excitations(state, layout.ensembles[-2:]).get(0, 0.0)


#: The configuration a shape's rounds are enumerated at.  Any ``p_e`` and
#: any ``eta > 0`` (or zero, for a lossless shape) give the same laws: the
#: rounds sum their sectors at ``lam = 1`` and their laws keep every leaf.
_SHAPE_P_E, _SHAPE_ETA = 0.01, 0.5


class _Shape:
    """A chain table with p_e and eta factored out, as numbers only.

    Every pass starts from the vacuum, so the table holds each ``(stage,
    state)`` a pass can reach at any (p_e, eta) of its shape, built once:
    its nodes in the order they were built, each after every node it leads
    to, and their branches node by node, each to a node of the next stage
    or, from the last stage, to a terminal.  Each connect round keeps its
    sectors' ``(M, C)`` and its leaves' sector, loss counts and branch
    (:class:`_HeraldedLaw`); each merge round the Born weights of its
    ensemble's excitation numbers (:class:`_MergeLaw`).  No state of an
    internal node is kept: only the terminals' states, computed at ``lam =
    1``, so no report depends on which configuration built the shape.
    """

    def __init__(self, cfg: ProtocolConfig, stages: Tuple[StageSpec, ...]):
        self.layout = make_chain_layout(cfg)
        self.stages = stages
        nodes = []  # (stage, law, child node per branch or None) in build order
        self._build(cfg, 0, self.layout.vacuum(), {}, nodes)
        self.stage = [idx for idx, _, _ in nodes]
        self.first = [0]  # node v's branches are first[v]:first[v + 1]
        self.child = []  # per branch: its node, or ~t for terminal t
        self.merges = []  # (branch, Born weights) per merge node with a branch
        self.terminals = []  # (state, clicks, detected, lost) per terminal
        self.terminal_branch = []
        sec_node, sec_m, sec_c, leaf_sec, leaf_ports, leaf_branch = [], [], [], [], [], []
        for v, (idx, law, kids) in enumerate(nodes):
            b0 = len(self.child)
            if isinstance(law, _MergeLaw):
                if law.branches:
                    self.merges.append((b0, law.born))
            else:
                s0 = len(sec_m)
                for m, c in law.sectors:
                    sec_node.append(v)
                    sec_m.append(m)
                    sec_c.append(c)
                for s, ports, b in law.leaves:
                    leaf_sec.append(s0 + s)
                    leaf_ports.append(ports)
                    leaf_branch.append(b0 + b if b >= 0 else -1)
            for b, br in enumerate(law.branches):
                if kids is None:
                    self.child.append(~len(self.terminals))
                    self.terminals.append(br)
                    self.terminal_branch.append(b0 + b)
                else:
                    self.child.append(kids[b])
            self.first.append(len(self.child))
        # the connect leaves of every node, for one vectorized pass per config
        ports = np.array(leaf_ports or np.zeros((0, 2, 2)), dtype=np.intp)
        self.top = int(ports.max(initial=0))
        self.m_top = max(sec_m, default=0)
        self.sec_node = np.array(sec_node, dtype=np.intp)
        self.sec_m = np.array(sec_m, dtype=np.intp)
        self.sec_c = np.array(sec_c, dtype=float)
        self.leaf_sec = np.array(leaf_sec, dtype=np.intp)
        # per port, each leaf's position in the loss grid (_loss_grid)
        self.leaf_loss = (ports[:, :, 0] * (self.top + 1) + ports[:, :, 1]).T.copy()
        self.leaf_branch = np.array(leaf_branch, dtype=np.intp)
        self.leaf_accepted = self.leaf_branch >= 0

    def _build(
        self, cfg: ProtocolConfig, idx: int, state: FockState, index: dict, nodes: list
    ) -> int:
        """The node of ``(idx, state)``, built on first reach after every
        node it leads to; ``index`` maps ``(stage, state key)`` to the nodes
        built so far.  A method, not a closure: a recursive closure is a
        reference cycle, which would keep every state of the build alive
        until the cyclic collector ran."""
        key = (idx, state.key())
        v = index.get(key)
        if v is None:
            law = _stage_round(self.stages[idx], state, self.layout, cfg).law
            kids = None
            if idx + 1 < len(self.stages):
                kids = [self._build(cfg, idx + 1, br[0], index, nodes) for br in law.branches]
            v = index[key] = len(nodes)
            nodes.append((idx, law, kids))
        return v

    @functools.cached_property
    def scores(self) -> np.ndarray:
        """:func:`_final_outcome` per terminal, against the zero-phase EPR
        pair of a one-stage list or the W state, as the table's states
        are."""
        if len(self.stages) == 1:  # a one-stage chain ends in the EPR pair
            spec = self.stages[0]
            target = epr_state(self.layout, spec.i, spec.j, 0.0)
        else:
            target = self.layout.w_state
        classify = len(self.stages) > 1
        scores = [_final_outcome(t[0], target, self.layout, classify) for t in self.terminals]
        return np.array(scores, dtype=float).reshape(-1, 2)


@functools.lru_cache(maxsize=64)
def _chain_shape(
    n: int,
    n_a: float,
    finite_size: bool,
    cap: int,
    second_order_pump: bool,
    lossy: bool,
    stages: Tuple[StageSpec, ...],
) -> _Shape:
    """The table of a shape: the configuration fields that decide which
    nodes and branches exist, made once per process for each and shared by
    every (p_e, eta)."""
    cfg = ProtocolConfig(
        n=n, p_e=_SHAPE_P_E, eta=_SHAPE_ETA if lossy else 0.0, n_a=n_a,
        finite_size=finite_size, truncation_cap=cap, second_order_pump=second_order_pump,
    )
    return _Shape(cfg, stages)


class ChainSimulator:
    """Repeat-until-success runner of a stage list, by default the
    ``n``-party W chain (:func:`chain_stages`).

    Any failed conditioning restarts the whole list from its first stage, so
    a trial is a sequence of independent passes, each from the vacuum.  The
    table of every ``(stage, state)`` a pass can reach is its shape's
    (:class:`_Shape`), built once per process; this configuration weighs
    its branches and closes it in one pass (:meth:`_evaluate`), which gives
    P(a pass completes), the law of a failed pass and the terminal law:
    P(a completed pass ends on each last-stage branch).  What a completed
    trial reports depends only on the branch it ended on, so no trial
    computes a state key.  States are in the zero-phase frame.

    Trials are sampled in two phases (:meth:`sample`).  Phase one takes the
    trials' draws from one generator, trial after trial: the number of
    passes geometrically, the failed passes' stages multinomially, then one
    uniform for the final branch.  Phase two works on the block's columns:
    it draws every completed trial's final branch from the terminal law at
    once (:func:`choose`) and tallies each stage's attempts and successes.
    """

    def __init__(self, cfg: ProtocolConfig, stages: Sequence[StageSpec] | None = None):
        self.cfg = cfg
        self.stages = chain_stages(cfg.n) if stages is None else tuple(stages)
        if any(spec.kind == "connect" for spec in self.stages):
            _warn_strong_pump(cfg.p_e)
        self.shape = _chain_shape(
            cfg.n, cfg.n_a, cfg.finite_size, cfg.truncation_cap,
            cfg.second_order_pump, cfg.eta > 0.0, self.stages,
        )
        self.layout = self.shape.layout
        self._failed_later, self._last_pass = _tally_tables(len(self.stages))
        self._evaluate()

    def _evaluate(self) -> None:
        """Weigh the shape's branches at this configuration and close the
        table.

        Each connect leaf gets ``p_e^M C / Z(p_e)`` times its loss factors,
        each merge branch its click probability, with the arithmetic of
        :func:`_heralded` and :func:`merge_round`, so a branch here has the
        probability its round gives it.  Then one pass over the
        nodes from the root down (the reverse of the order they were built
        in) hands each node's reach, P(a pass gets there), on to its
        children, and to the terminals from the last stage: a node fails
        its pass with its reach times ``1 - p_accept``.  It sets ``p_pass``,
        ``_fail`` (P(a pass fails at stage k)), ``_law`` (the law of a
        failed pass, its largest cost in rounds, k + 1 at stage k, and its
        running sums) and the terminal law: ``_live``, the terminals a pass
        ends on, and ``_ends``, the running sums of P(a completed pass ends
        on each).
        """
        shape, p_e, eta = self.shape, self.cfg.p_e, self.cfg.eta
        powers = np.array([p_e**m for m in range(shape.m_top + 1)])
        w = powers[shape.sec_m] * shape.sec_c
        share = w / np.bincount(shape.sec_node, w, len(shape.stage))[shape.sec_node]
        p = share[shape.leaf_sec]
        grid = _loss_grid(eta, shape.top)
        for column in shape.leaf_loss:
            p = p * grid[column]
        kept = (p >= _PROB_FLOOR) & shape.leaf_accepted
        probs = np.bincount(shape.leaf_branch[kept], p[kept], len(shape.child)).tolist()
        for b, born in shape.merges:
            p_click = 0.0
            for k, x in born:
                if k >= 1:
                    p_click += x * (1.0 - eta**k)
            probs[b] = p_click
        stage, first, child = shape.stage, shape.first, shape.child
        reach = [0.0] * len(stage)
        reach[-1] = 1.0  # the root, built last
        fail = [0.0] * len(self.stages)
        ends = [0.0] * len(shape.terminals)
        for v in range(len(stage) - 1, -1, -1):
            r = reach[v]
            if r == 0.0:
                continue
            p_accept = 0.0  # folded left, as its round folds it
            for b in range(first[v], first[v + 1]):
                x = probs[b]
                p_accept += x
                c = child[b]
                if c >= 0:
                    reach[c] += r * x
                else:
                    ends[~c] += r * x
            fail[stage[v]] += r * (1.0 - p_accept)
        p_pass = 0.0
        for x in ends:
            p_pass += x
        self.p_pass, self._fail = p_pass, tuple(fail)
        q = (1.0 - p_pass) or 1.0  # a pass that never fails: any law will do
        cond = np.maximum(np.array(fail) / q, 0.0)
        cond[-1] = max(0.0, 1.0 - cond[:-1].sum())
        self._law = (cond, int(np.flatnonzero(cond)[-1]) + 1, list(accumulate(cond.tolist())))
        self._live = [t for t, x in enumerate(ends) if x > 0.0]
        self._ends = np.array(list(accumulate([ends[t] / p_pass for t in self._live])), dtype=float)
        self.terminals = tuple([
            RoundBranch(probs[shape.terminal_branch[t]], *shape.terminals[t]) for t in self._live
        ])

    # -- the table ---------------------------------------------------------

    def initial_state(self) -> FockState:
        return self.layout.vacuum()

    def completion(self, stage_idx: int, state: FockState) -> Tuple[float, Tuple[float, ...]]:
        """``(P(pass completes), P(pass fails at stage k))`` from the root,
        where every pass starts: stage 0 on the vacuum (the only node whose
        odds the table keeps)."""
        if stage_idx != 0 or state.key() != self.initial_state().key():
            raise ValueError("a chain table keeps the odds of its root only")
        return self.p_pass, self._fail

    def round_distribution(self, stage_idx: int, state: FockState) -> RoundDistribution:
        """The round of stage ``stage_idx`` on ``state`` at this
        configuration, enumerated afresh: the table keeps its weights, not
        its rounds."""
        return _stage_round(self.stages[stage_idx], state, self.layout, self.cfg)

    @property
    def scores(self) -> np.ndarray:
        """The shape's :attr:`_Shape.scores` of :attr:`terminals`."""
        return self.shape.scores[self._live]

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
        p_pass, cond = self.p_pass, self._law[0]
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
