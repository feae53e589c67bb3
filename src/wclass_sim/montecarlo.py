"""Seeded batch runner and estimators for the protocol's quantitative claims.

Trials are independent and reproducible: trial ``t`` of a batch draws from
PCG64 seeded by ``SeedSequence(seed mod 2**64, spawn_key=(t,))``
(:func:`rng_for_trial`), and aggregates are reduced in trial order, so
reports are bit-identical for a fixed configuration no matter how many
workers executed the batch.  A call of at most ``_FEW`` trials takes
numpy's own derivation (:func:`rng_for_trial`, :func:`trial_rngs`); a
larger one derives its trials' generator states a block at a time on
uint64 arrays, bit for bit the same, and writes each trial's four state
words straight into one reused generator, its own until its trials are
drawn.  Where a PCG64 keeps those words (found from numpy's
``ctypes.state_address``, inside the object) and in which order is probed
once per process through the public setter; a failed probe raises, with no
other path for a larger call.  Each view holds the generator it points
into, so none outlives it.

A chain batch samples ``_BLOCK`` trials at a time
(:meth:`ChainSimulator.sample`) and keeps them as columns
(:class:`ChainColumns`), from which it scores, classifies and aggregates
the whole block at once.  Integer sums are exact Python ints for any
budget, float sums are left folds over the trials in order
(``np.add.accumulate``, squares by ``np.float_power``), and a report keeps
the aggregates only: the columns are dropped once they are reduced.

A process keeps the node tables of its last 8 chain configurations
(:func:`_chain_engine`), so batches of one configuration at different seeds
build its table once.  Batches take their config with seed 0 and zero
phases (:meth:`~wclass_sim.protocol.ProtocolConfig.table_config`: the
phases are a gauge), so no table or report depends on them.  A chain table
is closed once it is built and batches only read it, so a batch's bytes
never depend on what ran before it.  A teleport batch draws both of its W
states from the n=3 chain table of its base configuration, the one a
``w-state --n 3`` batch of that configuration uses, and adds no node to it;
only its retrieval rounds are its own.

What a table needs beyond its rounds is made once per process, under the
fields it depends on, so a cold batch pays for its rounds and not for
their set-up: the layout (registry, modes, vacuum, zero-phase W state) per
(n, N_a, finite-size, cap) (:func:`~wclass_sim.protocol.make_chain_layout`),
the tally tables per stage count, and up to 4 spare trial generators,
each taken up by one :func:`trial_rngs` at a time.  Every cached value is
made from its key alone and never changes once made (the engine's scores
fill each slot once), so no report depends on what a process ran before;
README lists every cache.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass, fields, replace
from itertools import islice
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .errors import DomainError, InsufficientDataError, PreconditionError, StateLayoutError
from .fock import (
    FockState,
    count_excitations,
    create,  # unused here; bench/spans.py wraps this binding
    fidelity,
    inner_product,
    left_sum,
    normalize,
    superpose,  # unused here; bench/spans.py wraps this binding
)
from .protocol import (
    ChainSimulator,
    Holder,
    ProtocolConfig,
    StageSpec,
    TeleportConfig,
    TeleportSimulator,
    chain_stages,
    connect_round,  # unused here; bench/spans.py wraps this binding
    epr_stage,
    epr_state,
    ideal_w_state,
    localizable,
    make_chain_layout,
    make_teleport_layout,  # unused here; bench/spans.py wraps this binding
    qubit_state,
    receiver_localize,
    teleport,
    teleport_target_state,
)


def rng_for_trial(seed: int, trial_index: int) -> np.random.Generator:
    """Splittable per-trial stream: derived from ``(seed, trial_index)``."""
    ss = np.random.SeedSequence(
        entropy=seed & (2**64 - 1), spawn_key=(trial_index,)
    )
    return np.random.default_rng(ss)


# numpy's SeedSequence (pool of 4 words, hash constants and multipliers) and
# PCG64 (128-bit LCG multiplier), which trial_rngs reproduces
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 2**32 - 1
_BLOCK = 4096  # trials derived per vectorized pass
_FEW = 3  # most trials of a call that takes numpy's own derivation, below the arrays' fixed cost
# _pcg_states' constants as 0-d uint64 arrays, which numpy takes as operands
# at about half the cost of a Python int: shifts, the 32-bit mask, the
# multiplier's high and low words, and the low word's low and high halves
_ONE, _S32, _S63, _LOW = (np.array(v, np.uint64) for v in (1, 32, 63, _M32))
_MULT_HI, _MULT_LO = (np.array(v, np.uint64) for v in (_PCG_MULT >> 64, _PCG_MULT % 2**64))
_MULT_B0, _MULT_B1 = (np.array(v, np.uint64) for v in (_PCG_MULT & _M32, _PCG_MULT >> 32 & _M32))
# and _pcg_seeds' as 0-d uint32 arrays: the hash's shift and the mix's multipliers
_U16, _MIX_L32, _MIX_R32 = (np.array(v, np.uint32) for v in (16, _MIX_L, _MIX_R))


def _hash_keys(const: int, mult: int, k: int) -> List[Tuple[int, int]]:
    """The ``(xor, multiplier)`` constants of SeedSequence's next ``k``
    hashes, the hash constant starting at ``const``."""
    keys = []
    for _ in range(k):
        after = const * mult & _M32
        keys.append((const, after))
        const = after
    return keys


# the pool takes 4 hashes to fill and 12 to mix, then 4 per spawn word;
# generate_state's 8 words take the pool twice over.  As (xor, multiplier)
# arrays shaped so that one array op hashes a row of trials with each of
# them: per spawn word (pool, 1), and for generate_state (cycle, pool, 1)
_MIX_KEYS = _hash_keys(_INIT_A, _MULT_A, 24)
_SPAWN_KEYS = [
    np.array(_MIX_KEYS[k : k + _POOL], np.uint32).T[:, :, None] for k in (16, 20)
]
_STATE_KEYS = np.array(_hash_keys(_INIT_B, _MULT_B, 8), np.uint32).T.reshape(2, 2, _POOL, 1)


def _pcg_seeds(pool: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """PCG64's ``(state high, state low, inc high, inc low)`` seed words, as
    uint64 rows over the trials ``[lo, hi)`` (all below or all from 2**32,
    whose spawn key is then one or two words), from the uint32 ``pool``.
    SeedSequence's hash and mix run on uint32 arrays, whose products wrap
    mod 2**32 with no mask, and take their constants as 0-d arrays."""
    if lo >> 32:
        t = np.arange(lo, hi, dtype=np.uint64)
        words = [(t & _M32).astype(np.uint32), (t >> 32).astype(np.uint32)]
    else:
        words = [np.arange(lo, hi, dtype=np.uint32)]
    mixed = pool[:, None]
    for w, (xor, mult) in zip(words, _SPAWN_KEYS):
        # the word hashed once per pool word, into a (pool, trials) array
        h = (w ^ xor) * mult
        h ^= h >> _U16
        r = mixed * _MIX_L32 - h * _MIX_R32
        mixed = r ^ r >> _U16
    # generate_state(4, uint64): 8 words cycled from the pool, as (cycle,
    # pool word, trials), paired low first
    out = (mixed ^ _STATE_KEYS[0]) * _STATE_KEYS[1]
    out ^= out >> _U16
    out = out.astype(np.uint64)
    return (out[:, 0::2] | out[:, 1::2] << _S32).reshape(4, -1)


def _pcg_states(seed_hi, seed_lo, seq_hi, seq_lo) -> np.ndarray:
    """PCG64 seeded with ``seed`` and ``seq`` (uint64 arrays of their high and
    low words), as rows ``(state low, state high, inc low, inc high)`` of a
    ``(4, trials)`` array: ``inc = 2 seq + 1`` and ``state = (seed + inc)
    MULT + inc`` mod 2**128.  uint64 ops wrap, so the carries out of the low
    words are added back, and the high word of ``x_lo * MULT_LO`` is summed
    from 32-bit halves."""
    inc_lo, inc_hi = seq_lo << _ONE | _ONE, seq_hi << _ONE | seq_lo >> _S63
    x_lo = seed_lo + inc_lo
    x_hi = seed_hi + inc_hi + (x_lo < inc_lo)
    a0, a1 = x_lo & _LOW, x_lo >> _S32
    p01, p10 = a0 * _MULT_B1, a1 * _MULT_B0
    mid = (a0 * _MULT_B0 >> _S32) + (p01 & _LOW) + (p10 & _LOW)
    state_lo = x_lo * _MULT_LO + inc_lo
    state_hi = a1 * _MULT_B1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32) + inc_hi
    state_hi += x_lo * _MULT_HI + x_hi * _MULT_LO + (state_lo < inc_lo)
    return np.array((state_lo, state_hi, inc_lo, inc_hi))


def _state_words(bitgen: np.random.PCG64, words_at: int, flags_at: int) -> List[np.ndarray]:
    """uint64 views of the four state words of a PCG64 and of the word that
    holds its ``has_uint32`` and ``uinteger``, at the offsets from the
    object's address that :func:`_state_layout` probed on its type.  Each
    view's buffer holds ``bitgen``, so no view outlives the memory it points
    into."""
    views = []
    for at, n in ((words_at, 4), (flags_at, 1)):
        buf = (ctypes.c_uint64 * n).from_address(id(bitgen) + at)
        buf.owner = bitgen
        views.append(np.ctypeslib.as_array(buf))
    return views


@functools.lru_cache(maxsize=None)
def _state_layout() -> Tuple[int, int, Tuple[int, ...]]:
    """Where a PCG64 keeps its state, probed once per process: ``(offset of
    its state words, offset of its has_uint32 word, which of (state low,
    state high, inc low, inc high) each state word holds)``.

    numpy's ``pcg64_state``, at ``ctypes.state_address``, is a pointer to
    the state words, then ``has_uint32`` and ``uinteger``.  Both must lie in
    the object itself, at offsets its type fixes.  The words' order differs
    between numpy builds with ``__uint128_t`` and those that keep a (high,
    low) struct, and with endianness, so a known state is set through the
    public setter and its words are looked up."""
    bitgen = np.random.PCG64(0)
    addr = bitgen.ctypes.state_address
    start, end = id(bitgen), id(bitgen) + type(bitgen).__basicsize__
    ptr, after = ctypes.c_void_p.from_address(addr).value, addr + ctypes.sizeof(ctypes.c_void_p)
    if not start <= min(ptr, addr) <= max(ptr + 32, after + 8) <= end:
        raise StateLayoutError("numpy's PCG64 keeps its state outside the generator")
    words, flags = _state_words(bitgen, ptr - start, after - start)
    known = [0x0123456789ABCDEF, 0x1133557799BBDDFF, 0x02468ACE13579BDF, 0xF0E1D2C3B4A59687]
    state = {"state": known[1] << 64 | known[0], "inc": known[3] << 64 | known[2]}
    bitgen.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 1, "uinteger": _M32}
    order = tuple(known.index(w) for w in words.tolist() if w in known)
    if sorted(order) != [0, 1, 2, 3] or flags.view(np.uint32).tolist() != [1, _M32]:
        raise StateLayoutError("numpy's PCG64 keeps its state words elsewhere")
    return ptr - start, after - start, order


#: trial generators whose iterators are done, each with its state views,
#: kept for the next trial_rngs; at most _SPARE_MAX, more than a batch ever
#: has live at once
_SPARE: List[Tuple[np.random.Generator, np.ndarray, np.ndarray]] = []
_SPARE_MAX = 4


def trial_rngs(seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """``rng_for_trial(seed, t)`` for each ``t`` in ``[lo, hi)``.

    A call of at most ``_FEW`` trials yields :func:`rng_for_trial` itself,
    which costs less than the arrays' fixed cost.  A larger call derives
    ``_BLOCK`` trials at a time: the hashing of the spawn word and PCG64's
    seeding run on arrays over the block (:func:`_pcg_seeds`,
    :func:`_pcg_states`), and one generator is yielded over and over: each
    trial's four state words are written into its live state
    (:func:`_state_words`, in the order :func:`_state_layout` probed), and
    its buffered 32-bit half is cleared, so a consumer that took an odd
    number of 32-bit draws leaves nothing to the next trial.  A trial's
    draws must be taken before the next one is asked for.  The generator is
    this iterator's alone until it is done (exhausted, closed or collected);
    then a later ``trial_rngs`` may take it up again, so a draw on it after
    that is not a trial's.
    """
    if not 0 <= lo <= hi <= 2**64:
        raise ValueError("trial indices must lie in [0, 2**64)")
    if hi - lo <= _FEW:
        for t in range(lo, hi):
            yield rng_for_trial(seed, t)  # by name: bench/spans.py wraps this binding
        return
    # its pool is that of SeedSequence(seed mod 2**64, spawn_key=(t,)) once
    # the entropy words are mixed in, the same for every t: the spawn key
    # pads the entropy with zeros, which the pool hashes in anyway
    pool = np.random.SeedSequence(seed & (2**64 - 1)).pool
    words_at, flags_at, order = _state_layout()
    try:  # one pop: two iterators never take the same spare
        rng, words, flags = _SPARE.pop()
    except IndexError:  # none spare
        rng = np.random.Generator(np.random.PCG64(0))  # its state is overwritten
        words, flags = _state_words(rng.bit_generator, words_at, flags_at)
    try:
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            for a, b in ((start, min(stop, 2**32)), (max(start, 2**32), stop)):
                if a >= b:
                    continue
                for row in _pcg_states(*_pcg_seeds(pool, a, b)).take(order, 0).T:
                    words[...] = row
                    flags[0] = 0  # has_uint32 and uinteger
                    yield rng
    finally:
        if len(_SPARE) < _SPARE_MAX:
            _SPARE.append((rng, words, flags))


def wilson_interval(successes: int, total: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if total == 0:
        return (0.0, 1.0)
    p = successes / total
    d = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / d
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / d
    return (max(0.0, center - half), min(1.0, center + half))


def predicted_generation_time(n: int, eta: float, p_c: float, t0: float) -> float:
    """Scaling-law prediction ``t0 / ((1 - eta)^(2n-1) p_c^n)``.

    ``p_c`` is the per-round click probability; the ``2n - 1`` survival
    factors count every photon the heralding consumes.
    """
    if not 0.0 <= eta < 1.0:
        raise DomainError("eta must lie in [0, 1)")
    if not 0.0 < p_c <= 1.0:
        raise DomainError("p_c must lie in (0, 1]")
    return t0 / ((1.0 - eta) ** (2 * n - 1) * p_c**n)


# ---------------------------------------------------------------------------
# chain batches
# ---------------------------------------------------------------------------


_W, _VACUUM, _OTHER = 1, 2, 3  # classification codes; 0 for an EPR pair


@dataclass
class ChainColumns:
    """The trials of a chain batch as columns, in trial order: per trial,
    whether it succeeded and its per-stage counts as rows of ``attempts``
    and ``successes`` (int64, or Python ints when the budget passes int64);
    per successful trial, its fidelity and its classification code."""

    succeeded: np.ndarray
    attempts: np.ndarray
    successes: np.ndarray
    fidelity: np.ndarray
    classification: np.ndarray

    @classmethod
    def concat(cls, parts: List[ChainColumns]) -> ChainColumns:
        if len(parts) == 1:
            return parts[0]
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))


class _Report:
    def to_dict(self) -> dict:
        """Every field but ``rounds_total``, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rounds_total"}


@dataclass
class RunReport(_Report):
    """Aggregates of one batch, without its per-trial columns; every
    estimate carries a standard error."""

    trials: int
    successes: int
    stage_labels: Tuple[str, ...]
    mean_attempts_per_stage: Tuple[float, ...]
    p_c_hat: float
    mean_time_s: float
    predicted_time_s: float | None
    c_n_hat: float | None
    fidelity_mean: float | None
    w_fraction: float
    vacuum_fraction: float
    confidence: Dict[str, object]
    rounds_total: int  # exact sum of the trials' rounds; not in to_dict


def _final_outcome(
    state: FockState, target: FockState, layout, classify: bool
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


@functools.lru_cache(maxsize=8)
def _chain_engine(
    cfg: ProtocolConfig, stages: Tuple[StageSpec, ...]
) -> Tuple[ChainSimulator, FockState, np.ndarray]:
    """``(simulator with its node table built, target state, scores of its
    final branches)`` of a chain configuration, called with ``seed=0`` and
    ``phases=None``: batches that differ only in seed or phases share one.
    The target is the zero-phase EPR pair or W state, as are the table's.

    The table is closed once built (every node reachable from the vacuum
    root is built with it) and batches only read it, so a batch draws on
    the same nodes and states whatever ran before it.  The scores hold
    :func:`_final_outcome` per walk slot, filled in when a batch first ends
    a walk there (NaN rows before).
    """
    sim = ChainSimulator(cfg, stages=stages)
    sim._vacuum_root  # builds the table
    if len(stages) == 1:  # a one-stage chain ends in the EPR pair
        target = epr_state(sim.layout, stages[0].i, stages[0].j, 0.0)
    else:
        target = sim.layout.w_state
    return sim, target, np.full((len(sim._slots), 2), math.nan)


def _run_chain_trials(
    cfg: ProtocolConfig, stages: Tuple[StageSpec, ...], lo: int, hi: int
) -> List[ChainColumns]:
    """The columns of trials ``[lo, hi)``, sampled ``_BLOCK`` at a time.  A
    W-chain trial that completes draws one uniform after its walk, for the
    Born draw that classifies an outcome that is not W."""
    sim, target, scores = _chain_engine(cfg.table_config(), stages)
    classify = len(stages) > 1
    rngs = trial_rngs(cfg.seed, lo, hi)
    out = []
    for start in range(lo, hi, _BLOCK):
        size = min(_BLOCK, hi - start)
        s = sim.sample(islice(rngs, size), size, extra=int(classify))
        ends = s.path[-1][s.succeeded]
        fid, p_empty = scores[ends].T
        new = np.isnan(fid)
        if new.any():  # final branches no batch has ended in yet
            for slot in set(ends[new].tolist()):
                state = sim.branch(slot).state
                scores[slot] = _final_outcome(state, target, sim.layout, classify)
            fid, p_empty = scores[ends].T
        if classify:
            drawn = np.where(s.extra[s.succeeded, 0] < p_empty, _VACUUM, _OTHER)
            classes = np.where(np.isnan(p_empty), _W, drawn)
        else:  # an EPR pair is not classified
            classes = np.zeros(len(ends), int)
        out.append(ChainColumns(s.succeeded, s.attempts, s.successes, fid, classes))
    return out


def _collect_spans(fn, args: tuple, trials: int, workers: int) -> list:
    """``fn(*args, lo, hi)`` over spans ``[lo, hi)`` of the trials,
    one span per worker process, with the lists they return joined in
    trial order."""
    if workers > 1:  # a forking pool starts all its workers at the first submit
        workers = min(workers, trials, os.cpu_count() or 1)
    if workers <= 1:
        return fn(*args, 0, trials)
    # imported here: a one-worker run need not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = (trials + workers - 1) // workers
    spans = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    out: list = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args, lo, hi) for lo, hi in spans]
        for fut in futures:  # submission order == trial order
            out.extend(fut.result())
    return out


def run_batch(
    cfg: ProtocolConfig,
    trials: int,
    workers: int = 1,
    stages: Tuple[StageSpec, ...] | None = None,
) -> RunReport:
    """Run ``trials`` independent seeded chain builds and aggregate them.

    ``stages`` defaults to the ``n``-party W chain; a one-stage list is an
    EPR batch, scored against the EPR pair and not classified.  Exhausted
    trials are recorded as failures, not raised.  Deterministic for fixed
    ``(cfg, trials)`` and independent of ``workers``.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    stages = chain_stages(cfg.n) if stages is None else tuple(stages)
    if workers > 1:  # built before the pool starts, so forked workers inherit it
        _chain_engine(cfg.table_config(), stages)
    parts = _collect_spans(_run_chain_trials, (cfg, stages), trials, workers)
    return _aggregate_chain(cfg, stages, ChainColumns.concat(parts))


def _column_sums(counts: np.ndarray) -> List[int]:
    """Exact column sums of a matrix of non-negative counts, as Python ints:
    int64 sums when no sum can pass int64, else Python sums."""
    if counts.dtype != object and len(counts) * int(counts.max(initial=0)) < 2**63:
        return counts.sum(axis=0).tolist()
    return [sum(col) for col in counts.T.tolist()]


def _squared_deviations(xs: np.ndarray, mean: float) -> float:
    """``sum((x - mean) ** 2 for x in xs)`` folded left, over a non-empty
    array: ``np.add.accumulate`` adds strictly left to right, and
    ``float_power`` squares with libm's ``pow`` as ``**`` does (``x * x``
    and ``np.power`` can differ in the last bit)."""
    dev = np.asarray(xs, dtype=float) - mean
    return float(np.add.accumulate(np.float_power(dev, 2.0))[-1])


def _aggregate_chain(
    cfg: ProtocolConfig, stages: Tuple[StageSpec, ...], cols: ChainColumns
) -> RunReport:
    labels = tuple(s.label for s in stages)
    connect_idx = [k for k, s in enumerate(stages) if s.kind == "connect"]
    trials = len(cols.succeeded)
    att_sum = _column_sums(cols.attempts)
    succ_sum = _column_sums(cols.successes)
    conn_att = sum(att_sum[k] for k in connect_idx)
    conn_succ = sum(succ_sum[k] for k in connect_idx)
    rounds_total = sum(att_sum)  # every round is one stage's attempt
    rounds = cols.attempts.sum(axis=1)  # each at most the budget
    fids = cols.fidelity  # trial order: float sums depend on it
    successes = len(fids)
    _, w_count, vac_count, _ = np.bincount(cols.classification, minlength=4).tolist()
    mean_attempts = tuple(s / trials for s in att_sum)
    p_c_hat = conn_succ / conn_att if conn_att else 0.0
    mean_rounds = rounds_total / trials
    mean_time = mean_rounds * cfg.t0
    sd_rounds = math.sqrt(_squared_deviations(rounds, mean_rounds) / max(1, trials - 1))
    predicted = None
    if p_c_hat > 0.0:
        predicted = predicted_generation_time(
            cfg.n, cfg.eta, min(1.0, p_c_hat), cfg.t0
        )
    fid_mean = float(np.add.accumulate(fids)[-1]) / successes if successes else None
    fid_se = None
    if successes > 1:
        fid_se = math.sqrt(_squared_deviations(fids, fid_mean) / (successes - 1) / successes)
    c_n = None
    c_n_se = None
    if w_count > 0:
        c_n = vac_count / w_count
        if vac_count > 0:
            c_n_se = c_n * math.sqrt(1.0 / vac_count + 1.0 / w_count)
    confidence = {
        "p_c_hat_wilson95": list(wilson_interval(conn_succ, conn_att)),
        "mean_time_s_se": sd_rounds / math.sqrt(trials) * cfg.t0,
        "fidelity_mean_se": fid_se,
        "c_n_hat_se": c_n_se,
    }
    return RunReport(
        trials=trials,
        successes=successes,
        stage_labels=labels,
        mean_attempts_per_stage=mean_attempts,
        p_c_hat=p_c_hat,
        mean_time_s=mean_time,
        predicted_time_s=predicted,
        c_n_hat=c_n,
        fidelity_mean=fid_mean,
        w_fraction=w_count / successes if successes else 0.0,
        vacuum_fraction=vac_count / successes if successes else 0.0,
        confidence=confidence,
        rounds_total=rounds_total,
    )


# ---------------------------------------------------------------------------
# EPR batches (two-party building block, used by the `epr` command)
# ---------------------------------------------------------------------------


def run_epr_batch(cfg: ProtocolConfig, trials: int, workers: int = 1) -> RunReport:
    """Batch of two-party entangling rounds; fidelity is against the exact
    two-party target state."""
    return run_batch(cfg, trials, workers, stages=(epr_stage(1, 2),))


# ---------------------------------------------------------------------------
# teleport batches
# ---------------------------------------------------------------------------


@dataclass
class TeleportReport(_Report):
    trials: int
    successes: int
    correct_click_fraction: float
    fidelity_mean: float | None  # vs the exact receiver state, correct clicks
    holder_this_fraction: float | None  # localization on Carol's pair
    localize_fidelity_mean: float | None
    mean_time_s: float
    confidence: Dict[str, object]
    rounds_total: int  # exact sum of the trials' rounds; not in to_dict


def _run_teleport_trials(tcfg: TeleportConfig, lo: int, hi: int) -> List[tuple]:
    """A row per trial of ``[lo, hi)``: ``(succeeded, rounds, correct
    clicks, fidelity or None, this receiver holds or None, localized
    fidelity or None)``.  A fidelity is taken on correct clicks only, and
    localization on a :func:`~wclass_sim.protocol.localizable` state only (a
    vacuum-faking accept is not)."""
    # the phases are a gauge: run and score in the zero-phase frame
    tcfg = replace(tcfg, base=replace(tcfg.base, phases=None))
    sim = TeleportSimulator(tcfg, _chain_engine(tcfg.base.table_config(), chain_stages(3))[0])
    layout = sim.layout
    target = teleport_target_state(tcfg, layout)
    vac = layout.vacuum()
    carol_target = qubit_state(tcfg, vac, layout.carol)
    bob_target = qubit_state(tcfg, vac, layout.bob)
    out = []
    for rng in trial_rngs(tcfg.base.seed, lo, hi):
        res = teleport(tcfg, rng, sim)
        correct = bool(res.correct_clicks)
        fid = fidelity(res.state, target) if correct else None
        holder = loc_fid = None
        if res.succeeded and localizable(res.state):
            h, residual = receiver_localize(res.state, layout.carol, rng)
            holder = h is Holder.THIS_RECEIVER
            loc_fid = fidelity(residual, carol_target if holder else bob_target)
        out.append((res.succeeded, res.attempts, correct, fid, holder, loc_fid))
    return out


def run_teleport_batch(
    tcfg: TeleportConfig, trials: int, workers: int = 1
) -> TeleportReport:
    if trials < 1:
        raise ValueError("need at least one trial")
    if workers > 1:  # built before the pool starts, so forked workers inherit it
        _chain_engine(tcfg.base.table_config(), chain_stages(3))
    rows = _collect_spans(_run_teleport_trials, (tcfg,), trials, workers)
    succeeded, rounds, correct, fids, holders, loc_fids = zip(*rows)
    successes = sum(succeeded)
    fids = [f for f in fids if f is not None]
    holders = [h for h in holders if h is not None]
    loc_fids = [f for f in loc_fids if f is not None]
    mean_rounds = sum(rounds) / len(rows)
    fid_mean = left_sum(fids) / len(fids) if fids else None
    holder_frac = sum(holders) / len(holders) if holders else None
    loc_mean = left_sum(loc_fids) / len(loc_fids) if loc_fids else None
    return TeleportReport(
        trials=trials,
        successes=successes,
        correct_click_fraction=sum(correct) / successes if successes else 0.0,
        fidelity_mean=fid_mean,
        holder_this_fraction=holder_frac,
        localize_fidelity_mean=loc_mean,
        mean_time_s=mean_rounds * tcfg.base.t0,
        confidence={
            "holder_this_wilson95": list(wilson_interval(sum(holders), len(holders)))
            if holders
            else None,
        },
        rounds_total=sum(rounds),
    )


# ---------------------------------------------------------------------------
# noise mixture / vacuum coefficient
# ---------------------------------------------------------------------------


@dataclass
class NoisyStateMixture:
    """Classical mixture of conditioned pure states."""

    components: List[Tuple[float, FockState]]

    def __post_init__(self) -> None:
        weights = [w for w, _ in self.components]
        if any(w < 0 for w in weights):
            raise PreconditionError("mixture weights must be non-negative")
        if abs(left_sum(weights) - 1.0) > 1e-12:
            raise PreconditionError("mixture weights must sum to one")


def fidelity_mixture(mix: NoisyStateMixture, target: FockState) -> float:
    """``sum_k w_k |<target|psi_k>|^2`` for a normalized target."""
    if abs(target.norm() - 1.0) > 1e-9:
        raise PreconditionError("target must be normalized")
    return left_sum(w * abs(inner_product(target, normalize(s))) ** 2 for w, s in mix.components)


def estimate_vacuum_coefficient(
    cfg: ProtocolConfig, trials: int, workers: int = 1
) -> Tuple[float, NoisyStateMixture]:
    """Estimate the vacuum coefficient from click-conditioned successes.

    Successes are classified into vacuum outcomes (no excitation left in the
    last two ensembles: a multi-pair emission whose partner photon was lost
    faked the click) versus W outcomes; the coefficient is their ratio, and
    the returned mixture is ``(c * vac + |W><W|) / (c + 1)``.
    """
    if trials < 1000:
        raise PreconditionError("vacuum-coefficient estimation needs >= 1e3 trials")
    report = run_batch(cfg, trials, workers=workers)
    if report.successes == 0:
        raise InsufficientDataError("no successful chain builds")
    c_hat = report.c_n_hat  # None exactly when no success is a W outcome
    if c_hat is None:
        raise InsufficientDataError("no W-class outcomes to normalize against")
    layout = make_chain_layout(cfg)
    mixture = NoisyStateMixture(
        [
            (c_hat / (1.0 + c_hat), layout.vacuum()),
            (1.0 / (1.0 + c_hat), ideal_w_state(cfg.n, cfg.phases, layout)),
        ]
    )
    return c_hat, mixture
