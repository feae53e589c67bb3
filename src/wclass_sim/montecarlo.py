"""Seeded batch runner and estimators for the protocol's quantitative claims.

Trials are independent and reproducible: trial ``t`` of a batch draws from a
generator derived from ``(seed, t)``, and aggregates are reduced in trial
order, so reports are bit-identical for a fixed configuration no matter how
many workers executed the batch.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Dict, List, Tuple

import numpy as np

from .errors import (
    AttemptsExhaustedError,
    DomainError,
    InsufficientDataError,
    PreconditionError,
)
from .fock import (
    FockState,
    count_excitations,
    create,  # unused here; bench/spans.py wraps this binding
    fidelity,
    inner_product,
    normalize,
    superpose,  # unused here; bench/spans.py wraps this binding
)
from .protocol import (
    ChainSimulator,
    ProtocolConfig,
    StageSpec,
    TeleportConfig,
    TeleportSimulator,
    chain_stages,
    connect_round,  # unused here; bench/spans.py wraps this binding
    epr_stage,
    epr_state,
    ideal_w_state,
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


@dataclass
class TrialRecord:
    """Per-trial summary of one chain build."""

    index: int
    succeeded: bool
    rounds: int
    stage_attempts: Tuple[int, ...]
    stage_successes: Tuple[int, ...]
    fidelity: float | None
    classification: str | None  # "w" | "vacuum" | "other"
    first_success_attempts: Tuple[int, ...] | None = None


class _Report:
    def to_dict(self) -> dict:
        """Every field but ``rounds_total`` and ``records``, in field order."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("rounds_total", "records")
        }


@dataclass
class RunReport(_Report):
    """Aggregates of one batch; every estimate carries a standard error."""

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
    records: List[TrialRecord] = field(default_factory=list, repr=False)


def _classify_final(
    fid: float, state: FockState, layout, rng: np.random.Generator
) -> str:
    """Outcome class of a success whose fidelity with the ideal W is ``fid``.

    A success counts as a W outcome when it overlaps the ideal W state by
    more than one half.  Otherwise the excitation number of the last two
    ensembles is measured (Born sampled): finding them empty is the vacuum
    signature of a multi-pair emission whose partner photon was lost, and
    anything else is residual contamination.
    """
    if fid > 0.5:
        return "w"
    tail = layout.ensembles[-2:]
    p_empty = count_excitations(state, tail).get(0, 0.0)
    if rng.random() < p_empty:
        return "vacuum"
    return "other"


def _run_chain_trials(
    cfg: ProtocolConfig, stages: Tuple[StageSpec, ...], lo: int, hi: int, trace: bool
) -> List[TrialRecord]:
    sim = ChainSimulator(cfg, stages=stages)
    epr = len(stages) == 1  # a one-stage chain ends in the EPR pair
    if epr:
        i, j = stages[0].i, stages[0].j
        target = epr_state(sim.layout, i, j, cfg.phases[j - 1] - cfg.phases[i - 1])
    else:
        target = ideal_w_state(cfg.n, cfg.phases, sim.layout)
    # final states are memoized round outcomes, so the same objects recur;
    # each entry keeps its state alive, so its id is not reused
    fids: Dict[int, Tuple[FockState, float]] = {}
    out: List[TrialRecord] = []
    for t in range(lo, hi):
        rng = rng_for_trial(cfg.seed, t)
        res = sim.run_trial(rng, trace=trace)
        fid, cls = None, None
        if res.succeeded:
            state = res.final_state
            seen = fids.get(id(state))
            if seen is None:
                seen = fids[id(state)] = (state, fidelity(state, target))
            fid = seen[1]
            if not epr:
                cls = _classify_final(fid, state, sim.layout, rng)
        out.append(
            TrialRecord(
                t,
                res.succeeded,
                res.rounds,
                res.stage_attempts,
                res.stage_successes,
                fid,
                cls,
                res.first_success_attempts,
            )
        )
    return out


def _collect_records(fn, args_builder, trials: int, workers: int) -> list:
    if workers <= 1:
        return fn(*args_builder(0, trials))
    chunk = (trials + workers - 1) // workers
    spans = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    records: list = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args_builder(lo, hi)) for lo, hi in spans]
        for fut in futures:  # submission order == trial order
            records.extend(fut.result())
    return records


def run_batch(
    cfg: ProtocolConfig,
    trials: int,
    workers: int = 1,
    trace: bool = False,
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
    records = _collect_records(
        _run_chain_trials, lambda lo, hi: (cfg, stages, lo, hi, trace), trials, workers
    )
    return _aggregate_chain(cfg, stages, records)


def _aggregate_chain(
    cfg: ProtocolConfig, stages: Tuple[StageSpec, ...], records: List[TrialRecord]
) -> RunReport:
    labels = tuple(s.label for s in stages)
    connect_idx = [k for k, s in enumerate(stages) if s.kind == "connect"]
    trials = len(records)
    successes = sum(1 for r in records if r.succeeded)
    n_stages = len(labels)
    att_sum = [0] * n_stages
    conn_att = 0
    conn_succ = 0
    rounds = []
    fids = []
    w_count = 0
    vac_count = 0
    for r in records:
        for k in range(n_stages):
            att_sum[k] += r.stage_attempts[k]
        conn_att += sum(r.stage_attempts[k] for k in connect_idx)
        conn_succ += sum(r.stage_successes[k] for k in connect_idx)
        rounds.append(r.rounds)
        if r.succeeded:
            fids.append(r.fidelity)
            if r.classification == "w":
                w_count += 1
            elif r.classification == "vacuum":
                vac_count += 1
    mean_attempts = tuple(s / trials for s in att_sum)
    p_c_hat = conn_succ / conn_att if conn_att else 0.0
    mean_rounds = sum(rounds) / trials
    mean_time = mean_rounds * cfg.t0
    sd_rounds = math.sqrt(
        sum((x - mean_rounds) ** 2 for x in rounds) / max(1, trials - 1)
    )
    predicted = None
    if p_c_hat > 0.0:
        predicted = predicted_generation_time(
            cfg.n, cfg.eta, min(1.0, p_c_hat), cfg.t0
        )
    fid_mean = sum(fids) / len(fids) if fids else None
    fid_se = None
    if len(fids) > 1:
        fid_se = math.sqrt(
            sum((x - fid_mean) ** 2 for x in fids) / (len(fids) - 1) / len(fids)
        )
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
        rounds_total=sum(rounds),
        records=records,
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
    sim = TeleportSimulator(tcfg)
    layout = sim.layout
    target = teleport_target_state(tcfg, layout)
    vac = layout.vacuum()
    carol_target = qubit_state(tcfg, vac, layout.carol)
    bob_target = qubit_state(tcfg, vac, layout.bob)
    out = []
    for t in range(lo, hi):
        rng = rng_for_trial(tcfg.base.seed, t)
        try:
            res = teleport(tcfg, rng, sim)
        except AttemptsExhaustedError:
            out.append((t, False, tcfg.base.max_attempts, False, None, None, None))
            continue
        correct = bool(res.info and res.info.get("correct_clicks"))
        fid = fidelity(res.state, target) if correct else None
        holder = None
        loc_fid = None
        try:
            h, residual = receiver_localize(res.state, layout.carol, rng)
            holder = h.value == "this-receiver"
            loc_fid = fidelity(residual, carol_target if holder else bob_target)
        except PreconditionError:
            pass  # vacuum-faking accept; flagged, not localizable
        out.append((t, True, res.attempts, correct, fid, holder, loc_fid))
    return out


def run_teleport_batch(
    tcfg: TeleportConfig, trials: int, workers: int = 1
) -> TeleportReport:
    if trials < 1:
        raise ValueError("need at least one trial")
    rows = _collect_records(
        _run_teleport_trials, lambda lo, hi: (tcfg, lo, hi), trials, workers
    )
    successes = sum(1 for r in rows if r[1])
    correct = sum(1 for r in rows if r[3])
    fids = [r[4] for r in rows if r[4] is not None]
    holders = [r[5] for r in rows if r[5] is not None]
    loc_fids = [r[6] for r in rows if r[6] is not None]
    rounds = [r[2] for r in rows]
    mean_rounds = sum(rounds) / len(rows)
    fid_mean = sum(fids) / len(fids) if fids else None
    holder_frac = sum(holders) / len(holders) if holders else None
    loc_mean = sum(loc_fids) / len(loc_fids) if loc_fids else None
    return TeleportReport(
        trials=trials,
        successes=successes,
        correct_click_fraction=correct / successes if successes else 0.0,
        fidelity_mean=fid_mean,
        holder_this_fraction=holder_frac,
        localize_fidelity_mean=loc_mean,
        mean_time_s=mean_rounds * tcfg.base.t0,
        confidence={
            "holder_this_wilson95": list(
                wilson_interval(sum(1 for h in holders if h), len(holders))
            )
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
        if abs(sum(weights) - 1.0) > 1e-12:
            raise PreconditionError("mixture weights must sum to one")


def fidelity_mixture(mix: NoisyStateMixture, target: FockState) -> float:
    """``sum_k w_k |<target|psi_k>|^2`` for a normalized target."""
    if abs(target.norm() - 1.0) > 1e-9:
        raise PreconditionError("target must be normalized")
    return sum(w * abs(inner_product(target, normalize(s))) ** 2 for w, s in mix.components)


def estimate_vacuum_coefficient(
    cfg: ProtocolConfig, trials: int, workers: int = 1, layout=None
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
    w_count = round(report.w_fraction * report.successes)
    if w_count == 0:
        raise InsufficientDataError("no W-class outcomes to normalize against")
    c_hat = report.c_n_hat
    if layout is None:
        layout = make_chain_layout(cfg)
    mixture = NoisyStateMixture(
        [
            (c_hat / (1.0 + c_hat), layout.vacuum()),
            (1.0 / (1.0 + c_hat), ideal_w_state(cfg.n, cfg.phases, layout)),
        ]
    )
    return c_hat, mixture
