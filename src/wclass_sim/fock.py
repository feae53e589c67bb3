"""Sparse few-excitation Fock states and the bosonic operator algebra.

States are sparse superpositions over multi-mode occupation vectors with
complex amplitudes.  A :class:`ModeRegistry` fixes the mode ordering before
any state is created, so occupation tuples are canonical and states from the
same registry compare term by term.

Everything is exact up to double precision.  The only modelling knobs are the
total-occupation truncation cap (operators drop overflowing terms and set an
``overflow`` flag instead of erroring) and the optional finite-atom-number
correction that rescales the collective-mode ladder elements by
``sqrt(1 - n / n_a)`` so that ``annihilate(create(create(vac))) ==
2 (n_a - 1) / n_a * create(vac)``.

Validation happens once, at the public boundary: ``FockState(...)`` (and
``FockState.vacuum``) check the registry, the cap and every occupation.
States derived from valid states are valid by construction, so the operators
here and in :mod:`~wclass_sim.optics` and :mod:`~wclass_sim.protocol` build
their results through :meth:`FockState.replace_terms` and :func:`superpose`,
which skip the checks and only prune negligible amplitudes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .errors import ModeError, NormalizationError, RegistryError

#: Amplitudes below this magnitude are dropped to keep states sparse.
PRUNE_THRESHOLD = 1e-15

#: Default cap on the total occupation across all modes.  The protocol never
#: legitimately exceeds 3; cap 4 keeps the double-pair noise branches.
DEFAULT_TRUNCATION_CAP = 4

Occupation = Tuple[int, ...]


class ModeKind(enum.Enum):
    ATOMIC = "atomic-collective"
    PHOTONIC = "photonic"


@dataclass(frozen=True)
class Mode:
    """Handle for one bosonic mode: a registry slot plus its kind."""

    index: int
    kind: ModeKind
    name: str

    def __repr__(self) -> str:
        return f"Mode({self.index}, {self.kind.value}, {self.name!r})"


@dataclass(frozen=True)
class CollectiveModeModel:
    """Finite-size behaviour of the collective atomic modes.

    With ``finite_size_enabled`` the ``n -> n+1`` creation element on an
    atomic mode is scaled by ``sqrt(1 - n / n_a)`` (annihilation is the
    adjoint), which reproduces the saturation of a symmetric collective mode
    built from ``n_a`` two-level atoms.  Disabled (the default), the modes
    are ideal bosons, i.e. the ``n_a -> inf`` limit.
    """

    n_a: float = math.inf
    finite_size_enabled: bool = False

    def __post_init__(self) -> None:
        if self.finite_size_enabled and not self.n_a >= 2:
            raise ValueError("finite-size correction requires n_a >= 2")

    def create_scale(self, n: int) -> float:
        """Extra factor on the ``n -> n+1`` matrix element."""
        if not self.finite_size_enabled:
            return 1.0
        return math.sqrt(max(0.0, 1.0 - n / self.n_a))

    def annihilate_scale(self, n: int) -> float:
        """Extra factor on the ``n -> n-1`` matrix element (adjoint)."""
        return self.create_scale(n - 1)


class ModeRegistry:
    """Names and indexes the modes of one simulation.

    The registry must be sealed before any state is created; afterwards the
    mode set and ordering are immutable, which makes occupation tuples
    canonical.
    """

    def __init__(self, collective: CollectiveModeModel | None = None):
        self._modes: list[Mode] = []
        self._sealed = False
        self.collective = collective or CollectiveModeModel()

    def _add(self, kind: ModeKind, name: str | None) -> Mode:
        if self._sealed:
            raise ModeError("registry is sealed; no new modes can be added")
        idx = len(self._modes)
        mode = Mode(idx, kind, name or f"{kind.value}-{idx}")
        self._modes.append(mode)
        return mode

    def add_atomic(self, name: str | None = None) -> Mode:
        return self._add(ModeKind.ATOMIC, name)

    def add_photonic(self, name: str | None = None) -> Mode:
        return self._add(ModeKind.PHOTONIC, name)

    def seal(self) -> "ModeRegistry":
        self._sealed = True
        return self

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def modes(self) -> Tuple[Mode, ...]:
        return tuple(self._modes)

    @property
    def n_modes(self) -> int:
        return len(self._modes)

    def check_mode(self, mode: Mode) -> Mode:
        if (
            not isinstance(mode, Mode)
            or mode.index >= len(self._modes)
            or self._modes[mode.index] is not mode
        ):
            raise ModeError(f"mode {mode!r} is not registered here")
        return mode


class FockState:
    """Immutable sparse superposition of occupation-number basis states.

    ``terms`` maps full-length occupation tuples (registry order) to complex
    amplitudes.  All operations return new states; instances are safe to
    share across workers.

    The constructor is the public boundary and validates its input: the
    registry must be sealed, ``truncation_cap`` at least 1, and every
    occupation a tuple of the registry's width with non-negative entries
    summing to at most the cap.  Operators derive new states through
    :meth:`replace_terms`, which trusts its terms.
    """

    __slots__ = ("registry", "truncation_cap", "overflow", "_terms", "_key")

    def __init__(
        self,
        registry: ModeRegistry,
        terms: Mapping[Occupation, complex],
        truncation_cap: int = DEFAULT_TRUNCATION_CAP,
        overflow: bool = False,
    ):
        if not registry.sealed:
            raise RegistryError("registry must be sealed before creating states")
        if truncation_cap < 1:
            raise ValueError("truncation_cap must be a positive integer")
        width = registry.n_modes
        checked: Dict[Occupation, complex] = {}
        for occ, amp in terms.items():
            occ = tuple(int(x) for x in occ)
            if len(occ) != width:
                raise ValueError(f"occupation {occ} has wrong length (want {width})")
            if any(x < 0 for x in occ):
                raise ValueError(f"negative occupation in {occ}")
            if sum(occ) > truncation_cap:
                raise ValueError(f"occupation {occ} exceeds cap {truncation_cap}")
            checked[occ] = checked.get(occ, 0j) + complex(amp)
        self._init(registry, checked, truncation_cap, bool(overflow))

    def _init(
        self,
        registry: ModeRegistry,
        terms: Mapping[Occupation, complex],
        truncation_cap: int,
        overflow: bool,
    ) -> None:
        self.registry = registry
        self.truncation_cap = truncation_cap
        self.overflow = overflow
        # ``0j + amp`` makes -0.0 parts +0.0, which debug_serialize would show
        self._terms = {
            occ: 0j + amp for occ, amp in terms.items() if abs(amp) >= PRUNE_THRESHOLD
        }
        self._key: tuple | None = None

    @classmethod
    def _from_terms(
        cls,
        registry: ModeRegistry,
        terms: Mapping[Occupation, complex],
        truncation_cap: int,
        overflow: bool,
    ) -> "FockState":
        """Trusted construction: ``terms`` must already be canonical
        occupation tuples within the cap of a sealed registry."""
        state = cls.__new__(cls)
        state._init(registry, terms, truncation_cap, overflow)
        return state

    # -- constructors ------------------------------------------------------

    @classmethod
    def vacuum(
        cls, registry: ModeRegistry, truncation_cap: int = DEFAULT_TRUNCATION_CAP
    ) -> "FockState":
        return cls(registry, {(0,) * registry.n_modes: 1.0 + 0j}, truncation_cap)

    def replace_terms(
        self, terms: Mapping[Occupation, complex], overflow: bool | None = None
    ) -> "FockState":
        """New state over the same registry/cap with different terms.

        The terms are trusted, not validated: they must be occupation tuples
        of this registry's width within the cap, as every operator derives
        them from this state's own.  Amplitudes below ``PRUNE_THRESHOLD``
        are dropped.
        """
        return FockState._from_terms(
            self.registry,
            terms,
            self.truncation_cap,
            self.overflow if overflow is None else overflow,
        )

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterable[Tuple[Occupation, complex]]:
        return self._terms.items()

    def amplitude(self, occ: Occupation) -> complex:
        return self._terms.get(tuple(occ), 0j)

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self._terms.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def is_zero(self) -> bool:
        return not self._terms

    def key(self) -> tuple:
        """Hashable fingerprint for memoisation (rounded amplitudes)."""
        if self._key is None:
            self._key = (
                tuple(
                    sorted(
                        (occ, round(a.real, 12), round(a.imag, 12))
                        for occ, a in self._terms.items()
                    )
                ),
                self.truncation_cap,
                self.overflow,
            )
        return self._key

    def __repr__(self) -> str:
        inner = " + ".join(
            f"({a:.3g})|{','.join(map(str, occ))}>"
            for occ, a in sorted(self._terms.items())
        )
        return f"FockState[{inner or '0'}]"


# -- operator algebra ------------------------------------------------------


def create(state: FockState, m: Mode) -> FockState:
    """Bosonic creation on mode ``m``: ``|n> -> sqrt(n+1)|n+1>``.

    Terms whose total occupation would exceed the truncation cap are dropped
    and the result is flagged with ``overflow=True``.  On atomic modes with
    the finite-size correction enabled the matrix element is additionally
    scaled by ``sqrt(1 - n / n_a)``.
    """
    m = state.registry.check_mode(m)
    collective = state.registry.collective
    atomic = m.kind is ModeKind.ATOMIC
    out: Dict[Occupation, complex] = {}
    overflow = state.overflow
    for occ, amp in state.items():
        n = occ[m.index]
        if sum(occ) + 1 > state.truncation_cap:
            overflow = True
            continue
        factor = math.sqrt(n + 1)
        if atomic:
            factor *= collective.create_scale(n)
        if factor == 0.0:
            continue
        new = occ[: m.index] + (n + 1,) + occ[m.index + 1 :]
        out[new] = out.get(new, 0j) + amp * factor
    return state.replace_terms(out, overflow=overflow)


def annihilate(state: FockState, m: Mode) -> FockState:
    """Bosonic annihilation on mode ``m``: ``|n> -> sqrt(n)|n-1>``."""
    m = state.registry.check_mode(m)
    collective = state.registry.collective
    atomic = m.kind is ModeKind.ATOMIC
    out: Dict[Occupation, complex] = {}
    for occ, amp in state.items():
        n = occ[m.index]
        if n == 0:
            continue
        factor = math.sqrt(n)
        if atomic:
            factor *= collective.annihilate_scale(n)
        new = occ[: m.index] + (n - 1,) + occ[m.index + 1 :]
        out[new] = out.get(new, 0j) + amp * factor
    return state.replace_terms(out)


def inner_product(a: FockState, b: FockState) -> complex:
    """``<a|b>``: conjugate-linear in ``a``, linear in ``b``."""
    if a.registry is not b.registry:
        raise RegistryError("states live on different registries")
    if a.n_terms <= b.n_terms:
        return complex(
            sum(amp.conjugate() * b.amplitude(occ) for occ, amp in a.items())
        )
    return complex(
        sum(a.amplitude(occ).conjugate() * amp for occ, amp in b.items())
    )


def normalize(state: FockState) -> FockState:
    """Scale to unit norm; raises on the zero state."""
    nrm = state.norm()
    if nrm <= 0.0:
        raise NormalizationError("cannot normalize the zero state")
    return state.replace_terms({occ: amp / nrm for occ, amp in state.items()})


def superpose(coeffs: Sequence[complex], states: Sequence[FockState]) -> FockState:
    """Exact linear combination ``sum_k coeffs[k] * states[k]``."""
    if not states or len(coeffs) != len(states):
        raise ValueError("need one coefficient per state, at least one of each")
    reg = states[0].registry
    cap = max(s.truncation_cap for s in states)
    overflow = any(s.overflow for s in states)
    out: Dict[Occupation, complex] = {}
    for c, s in zip(coeffs, states):
        if s.registry is not reg:
            raise RegistryError("states live on different registries")
        for occ, amp in s.items():
            out[occ] = out.get(occ, 0j) + complex(c) * amp
    return FockState._from_terms(reg, out, cap, overflow)


def count_excitations(state: FockState, modes: Iterable[Mode]) -> Dict[int, float]:
    """Born-rule distribution of the total occupation over ``modes``.

    Returns ``{k: probability}`` with probabilities summing to one.
    """
    idx = [state.registry.check_mode(m).index for m in modes]
    total = state.norm_squared()
    if total <= 0.0:
        raise NormalizationError("cannot measure an empty state")
    dist: Dict[int, float] = {}
    for occ, amp in state.items():
        k = sum(occ[i] for i in idx)
        dist[k] = dist.get(k, 0.0) + abs(amp) ** 2 / total
    return dist


def fidelity(a: FockState, b: FockState) -> float:
    """``|<a|b>|^2`` between the normalized versions of ``a`` and ``b``,
    clamped to [0, 1]: for a state against itself rounding can land a few
    ulps above 1."""
    na, nb = a.norm(), b.norm()
    if na <= 0.0 or nb <= 0.0:
        raise NormalizationError("fidelity of a zero state is undefined")
    return min(1.0, abs(inner_product(a, b)) ** 2 / (na**2 * nb**2))


def equal_up_to_global_phase(a: FockState, b: FockState, tol: float = 1e-10) -> bool:
    """Whether ``a`` and ``b`` are the same ray (same state up to e^{i phi})."""
    na, nb = a.norm(), b.norm()
    if na <= 0.0 or nb <= 0.0:
        return na == nb
    ip = inner_product(a, b)
    if abs(ip) < tol * na * nb:
        return False
    phase = ip / abs(ip)
    diff = superpose([1.0 / na, -phase.conjugate() / nb], [a, b])
    return diff.norm() < tol


def debug_serialize(state: FockState) -> str:
    """One term per line: ``amp_re amp_im : n1 n2 ... nk`` in registry order.

    Debug/golden-test aid, not a stable public format.
    """
    lines = []
    for occ, amp in sorted(state.items()):
        occs = " ".join(str(n) for n in occ)
        lines.append(f"{amp.real:.17g} {amp.imag:.17g} : {occs}")
    return "\n".join(lines)
