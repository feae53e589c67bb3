"""Independent oracles the tests check the library against.

Everything here is written directly from the closed forms: literal
amplitude dictionaries for the protocol states, a polynomial beam-splitter
expansion, the two-mode-squeezer power series, and the repeat-until-success
expected-round formula over analytically derived stage probabilities.
None of it calls back into the code paths it verifies; where a helper reads
the library's rounds, streams or aggregation, its docstring says so.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from wclass_sim.fock import FockState, inner_product, left_sum, superpose


# ---------------------------------------------------------------------------
# literal protocol states (amplitudes over atomic-party occupation)
# ---------------------------------------------------------------------------


def e(phi: float) -> complex:
    return cmath.exp(1j * phi)


def w_m_amplitudes(n: int, phases) -> dict:
    """Maximally entangled n-party state: amplitude e^{i phi_1i}/sqrt(n) on
    the single excitation of party i."""
    out = {}
    for i in range(n):
        occ = tuple(1 if k == i else 0 for k in range(n))
        out[occ] = e(phases[i]) / math.sqrt(n)
    return out


def w_prime_amplitudes(n: int, phases) -> dict:
    """Unnormalized chain intermediate: 1, 2 e^{i phi_1i} (middle), e^{i phi_1n}."""
    out = {}
    for i in range(n):
        occ = tuple(1 if k == i else 0 for k in range(n))
        if i == 0:
            out[occ] = 1.0 + 0j
        elif i == n - 1:
            out[occ] = e(phases[i])
        else:
            out[occ] = 2.0 * e(phases[i])
    return out


def epr_amplitudes(n: int, i: int, j: int, phi_ij: float) -> dict:
    """(s_i+ + e^{i phi} s_j+)/sqrt(2) over n parties (1-based i, j)."""
    occ_i = tuple(1 if k == i - 1 else 0 for k in range(n))
    occ_j = tuple(1 if k == j - 1 else 0 for k in range(n))
    return {occ_i: 1 / math.sqrt(2), occ_j: e(phi_ij) / math.sqrt(2)}


def step2_amplitudes(phi12: float, phi23: float) -> dict:
    """(s_2+ + e^{i phi_23} s_3+)/sqrt(2) applied to the 1-2 pair: the
    three-party state after the second step, normalized factor-by-factor."""
    return {
        (1, 1, 0): 0.5 + 0j,
        (0, 2, 0): math.sqrt(2) * e(phi12) / 2,
        (1, 0, 1): e(phi23) / 2,
        (0, 1, 1): e(phi12 + phi23) / 2,
    }


def merged_amplitudes(phi12: float, phi13: float) -> dict:
    """s_2 applied to the step-2 state (unnormalized): 1, 2e^{i phi12}, e^{i phi13}."""
    return {
        (1, 0, 0): 1.0 + 0j,
        (0, 1, 0): 2.0 * e(phi12),
        (0, 0, 1): e(phi13),
    }


def receiver_amplitudes(alpha: complex, beta: complex, phi12: float, phi13: float) -> dict:
    """Normalized post-teleport state on receiver parties (2, 3, 5, 6)."""
    r = 1 / math.sqrt(2)
    return {
        (1, 0, 0, 0): e(phi12) * alpha * r,  # party 2
        (0, 1, 0, 0): e(phi13) * alpha * r,  # party 3
        (0, 0, 1, 0): e(phi12) * beta * r,  # party 5
        (0, 0, 0, 1): e(phi13) * beta * r,  # party 6
    }


def as_state(layout, amplitudes: dict, parties=None) -> FockState:
    """Embed party-occupation amplitudes into the layout's full registry."""
    modes = layout.ensembles if parties is None else [
        layout.ensembles[p - 1] for p in parties
    ]
    width = layout.registry.n_modes
    terms = {}
    for occ, amp in amplitudes.items():
        full = [0] * width
        for mode, x in zip(modes, occ):
            full[mode.index] = x
        terms[tuple(full)] = amp
    return FockState(layout.registry, terms, layout.truncation_cap)


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


def key_reference(state: FockState) -> tuple:
    """``FockState.key`` as it is made on first use: the set of each term's
    occupation with its amplitude's parts rounded to 12 digits by ``round``
    itself, and the cap."""
    rows = [(occ, round(a.real, 12), round(a.imag, 12)) for occ, a in state.items()]
    return frozenset(rows), state.truncation_cap


def sorted_key_reference(state: FockState) -> tuple:
    """The key states had before keys became sets: the same rows, sorted
    into a tuple, and the cap."""
    rows = [(occ, round(a.real, 12), round(a.imag, 12)) for occ, a in state.items()]
    return tuple(sorted(rows)), state.truncation_cap


# ---------------------------------------------------------------------------
# beam splitter via explicit polynomial multiplication
# ---------------------------------------------------------------------------


def bs_output_amplitudes(na: int, nb: int) -> dict:
    """|na, nb> through a 50/50 splitter: expand (x+y)^na (x-y)^nb.

    Returns {(p, q): amplitude} with x = a+, y = b+ monomials multiplied out
    one factor at a time.
    """
    poly = {(0, 0): 1.0}
    for _ in range(na):
        nxt = {}
        for (j, k), c in poly.items():
            nxt[(j + 1, k)] = nxt.get((j + 1, k), 0.0) + c
            nxt[(j, k + 1)] = nxt.get((j, k + 1), 0.0) + c
        poly = nxt
    for _ in range(nb):
        nxt = {}
        for (j, k), c in poly.items():
            nxt[(j + 1, k)] = nxt.get((j + 1, k), 0.0) + c
            nxt[(j, k + 1)] = nxt.get((j, k + 1), 0.0) - c
        poly = nxt
    scale = 1.0 / math.sqrt(2.0 ** (na + nb) * math.factorial(na) * math.factorial(nb))
    return {
        (p, q): c * scale * math.sqrt(math.factorial(p) * math.factorial(q))
        for (p, q), c in poly.items()
        if c != 0.0
    }


def squeezer_amplitude(p_e: float, phi: float, pairs: int) -> complex:
    """|n, n> amplitude of exp(lam S+A+)|0,0> with lam = sqrt(p_e) e^{i phi}.

    (lam^n / n!) (S+A+)^n |0,0> = lam^n |n,n> since (a+)^n|0> = sqrt(n!)|n>.
    """
    lam = math.sqrt(p_e) * e(phi)
    return lam**pairs


def binomial_pmf(n: int, k: int, p: float) -> float:
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


# ---------------------------------------------------------------------------
# analytic repeat-until-success timing model
# ---------------------------------------------------------------------------


def _norm2(d: dict) -> float:
    return sum(abs(a) ** 2 for a in d.values())


def _normalized(d: dict) -> dict:
    s = math.sqrt(_norm2(d))
    return {k: a / s for k, a in d.items()}


def _created(d: dict, i: int) -> dict:
    out = {}
    for occ, a in d.items():
        n = occ[i]
        new = occ[:i] + (n + 1,) + occ[i + 1 :]
        out[new] = out.get(new, 0j) + a * math.sqrt(n + 1)
    return out


def _annihilated(d: dict, i: int) -> dict:
    out = {}
    for occ, a in d.items():
        n = occ[i]
        if n == 0:
            continue
        new = occ[:i] + (n - 1,) + occ[i + 1 :]
        out[new] = out.get(new, 0j) + a * math.sqrt(n)
    return out


def _summed(d1: dict, d2: dict) -> dict:
    out = dict(d1)
    for k, a in d2.items():
        out[k] = out.get(k, 0j) + a
    return out


def _mean_n_plus_1(d: dict, i: int) -> float:
    return sum(abs(a) ** 2 * (occ[i] + 1) for occ, a in d.items()) / _norm2(d)


def _merge_prob(d: dict, i: int, eta: float) -> float:
    out = 0.0
    norm = _norm2(d)
    for occ, a in d.items():
        if occ[i] >= 1:
            out += abs(a) ** 2 / norm * (1.0 - eta ** occ[i])
    return out


def chain_stage_probabilities(n: int, p_e: float, eta: float) -> list:
    """First-order stage success probabilities along the genuine path.

    The connect click rate carries the bosonic enhancement of the pumped
    modes, p (1-eta) (E[n_i + 1] + E[n_j + 1]); the maximizing connect keeps
    only the symmetric port; a merge clicks when at least one of the
    retrieved photons survives."""
    t = 1.0 - eta
    zero = (0,) * n
    state = {zero: 1.0 + 0j}
    qs = [2.0 * p_e * t]
    state = _normalized(_summed(_created(state, 0), _created(state, 1)))
    for i in range(2, n):  # parties i, i+1 -> indices i-1, i
        qs.append(p_e * t * (_mean_n_plus_1(state, i - 1) + _mean_n_plus_1(state, i)))
        state = _normalized(_summed(_created(state, i - 1), _created(state, i)))
        qs.append(_merge_prob(state, i - 1, eta))
        state = _normalized(_annihilated(state, i - 1))
    plus = _summed(_created(state, 0), _created(state, n - 1))
    qs.append(p_e * t * _norm2(plus) / 2.0)
    state = _normalized(plus)
    qs.append(_merge_prob(state, 0, eta))
    return qs


def expected_rounds_with_restart(qs) -> float:
    """Mean rounds to finish a chain that restarts at stage 1 on any failure:
    (sum_k prod_{j<k} q_j) / prod_j q_j."""
    numerator = 0.0
    prefix = 1.0
    for q in qs:
        numerator += prefix
        prefix *= q
    return numerator / prefix


# ---------------------------------------------------------------------------
# EPR batch reference: the dedicated repeat-until-click loop
# ---------------------------------------------------------------------------


def block_streams(seed: int, trials: int):
    """``(t, rng)`` for each trial ``t`` of a batch, the trials of block ``b``
    (``montecarlo._BLOCK`` trials each) all drawing in turn from
    ``rng_for_trial(seed, b)``, as the engine's batches draw them."""
    from wclass_sim import montecarlo

    for t in range(trials):
        if t % montecarlo._BLOCK == 0:
            rng = montecarlo.rng_for_trial(seed, t // montecarlo._BLOCK)
        yield t, rng


def epr_reference_records(cfg, trials: int) -> list:
    """Per-trial ``(index, succeeded, rounds, stage_attempts, stage_successes,
    fidelity, classification)`` of an EPR batch, drawn by a loop written for
    the single entangling round alone: a geometric number of attempts, then,
    within the budget, one Born draw among the accepted branches.

    The round itself comes from ``connect_round`` and the streams from
    :func:`block_streams`; only the repeat-until-success sampling is
    independent of the engine it checks.  Fidelities are to the zero-phase
    pair, as the round is in the zero-phase frame.
    """
    from wclass_sim.fock import fidelity
    from wclass_sim.protocol import connect_round, epr_state, make_chain_layout

    layout = make_chain_layout(cfg)
    dist = connect_round(layout.vacuum(), layout, 1, 2, cfg, ("D1", "D2"))
    target = epr_state(layout, 1, 2, 0.0)
    exhausted = (cfg.max_attempts, (cfg.max_attempts,), (0,), None, None)
    out = []
    for t, rng in block_streams(cfg.seed, trials):
        if dist.p_accept <= 0.0:
            out.append((t, False, *exhausted))
            continue
        attempts = int(rng.geometric(dist.p_accept))
        if attempts > cfg.max_attempts:
            out.append((t, False, *exhausted))
            continue
        u = rng.random() * dist.p_accept
        acc = 0.0
        chosen = dist.branches[-1]
        for br in dist.branches:
            acc += br.prob
            if u < acc:
                chosen = br
                break
        fid = fidelity(chosen.state, target)
        out.append((t, True, attempts, (attempts,), (1,), fid, None))
    return out


# ---------------------------------------------------------------------------
# pass completion: plain recursion over the round enumerators
# ---------------------------------------------------------------------------


def completion_reference(stages, layout, cfg, state, idx: int = 0, seen=None):
    """``(P(pass completes), P(pass fails at stage k))`` from stage ``idx``
    on ``state``, by recursing into every branch of every round with no memo
    of results: each path of the pass is enumerated anew with the library's
    ``connect_round`` or with :func:`merge_round_reference` and summed in
    branch order.

    States reached by different paths can share a ``key()`` (amplitudes
    rounded to 12 digits) while differing in the last bits.  With ``seen``
    (a dict) the first state to reach each ``(stage, key)`` stands in for
    the later ones, as it does in the simulator's node table; without it
    every path keeps its own state.
    """
    from wclass_sim.protocol import connect_round

    if idx == len(stages):
        return 1.0, (0.0,) * len(stages)
    if seen is not None:
        state = seen.setdefault((idx, state.key()), state)
    spec = stages[idx]
    if spec.kind == "connect":
        dist = connect_round(
            state, layout, spec.i, spec.j, cfg, spec.detectors, spec.symmetric_port_only
        )
    else:
        dist = merge_round_reference(state, layout, spec.i, cfg, spec.detectors[0])
    fail = [0.0] * len(stages)
    fail[idx] = 1.0 - dist.p_accept
    p_complete = 0.0
    for br in dist.branches:
        pc, fv = completion_reference(stages, layout, cfg, br.state, idx + 1, seen)
        p_complete += br.prob * pc
        for k, x in enumerate(fv):
            fail[k] += br.prob * x
    return p_complete, tuple(fail)


def terminal_law_reference(sim):
    """``(terminals, P(a completed pass ends on each))`` of the
    ``ChainSimulator`` ``sim``, by recursing from the vacuum into every
    branch of every round with no memo of results: each complete path adds
    its probability, the product of its branch probabilities, to the final
    branch it ends on, and the sums are divided by their total.  Final
    branches come in the order the paths first reach them.

    The rounds are the table's (``sim.round_distribution``), so the final
    branches are the very branch objects the engine draws from; only the
    law is computed anew."""
    n_stages = len(sim.stages)
    mass = {}  # id of a final branch -> [branch, summed path probability]

    def walk(idx, state, p):
        for br in sim.round_distribution(idx, state).branches:
            if idx + 1 == n_stages:
                mass.setdefault(id(br), [br, 0.0])[1] += p * br.prob
            else:
                walk(idx + 1, br.state, p * br.prob)

    walk(0, sim.initial_state(), 1.0)
    total = left_sum(m for _, m in mass.values())
    return [br for br, _ in mass.values()], [m / total for _, m in mass.values()]


# ---------------------------------------------------------------------------
# categorical draw: the running-sum loop
# ---------------------------------------------------------------------------


def pick_reference(branches, u: float, weights):
    """The first branch at which the running sum of ``weights`` exceeds
    ``u``, or the last branch when rounding leaves ``u`` beyond the total."""
    acc = 0.0
    for branch, w in zip(branches, weights):
        acc += w
        if u < acc:
            return branch
    return branches[-1]


# ---------------------------------------------------------------------------
# round-by-round references: each round one conditioned draw
# ---------------------------------------------------------------------------


def _branch_at(dist, u):
    """The branch at which the running sum of branch probabilities first
    exceeds ``u`` (the last one when rounding leaves ``u`` beyond it)."""
    acc = 0.0
    for br in dist.branches:
        acc += br.prob
        if u < acc:
            return br
    return dist.branches[-1]


def _conditioned(dist, rng):
    """``u = rng.random()``: None when ``u >= p_accept``, else
    :func:`_branch_at` ``u``."""
    u = rng.random()
    if u >= dist.p_accept:
        return None
    return _branch_at(dist, u)


def run_trial_trace_reference(sim, rng, state, round_distribution=None):
    """A trace trial of the ``ChainSimulator`` ``sim`` from ``state``: every
    round drawn by :func:`_conditioned` from ``round_distribution(stage,
    state)`` (``sim.round_distribution`` by default), a failed round
    restarting the pass from ``state``, until a pass completes or
    ``max_attempts`` rounds are spent.  Returns the ``StepOutcome`` and
    each stage's attempts up to its first success (None for an exhausted
    trial).  Only for stage lists whose passes can complete (the engine
    spends a hopeless budget at once)."""
    from wclass_sim.protocol import StepOutcome

    round_distribution = round_distribution or sim.round_distribution
    first_round = round_distribution(0, state)  # where every pass starts
    n_stages = len(sim.stages)
    attempts, successes, first = [0] * n_stages, [0] * n_stages, [0] * n_stages
    budget, rounds = sim.cfg.max_attempts, 0
    while rounds < budget:
        k, cur, log = 0, state, []
        while rounds < budget:
            rounds += 1
            attempts[k] += 1
            br = _conditioned(round_distribution(k, cur) if k else first_round, rng)
            if br is None:
                break  # restart from ``state``
            successes[k] += 1
            first[k] = first[k] or attempts[k]
            log.extend(br.clicks)
            cur, k = br.state, k + 1
            if k == n_stages:
                result = StepOutcome(
                    True, rounds, cur, tuple(log), tuple(attempts), tuple(successes)
                )
                return result, tuple(first)
    result = StepOutcome(False, rounds, None, (), tuple(attempts), tuple(successes))
    return result, None


def run_trial_block_reference(sim, rng, state, round_distribution=None, block=4096):
    """:func:`run_trial_trace_reference`, with the uniforms drawn ``block``
    at a time: ``rng.random(size=k)`` yields the doubles of ``k`` scalar
    calls, so each round reads the same ``u`` as the scalar walk, and the
    failed first-stage rounds before the next first-stage success are
    counted at once (the first stage always sees the root's round).  At the
    end the generator is put back to just after the last uniform read, by
    restoring its state at the last block and advancing it by the uniforms
    read from that block, so its next draw is the scalar walk's too."""
    from wclass_sim.protocol import StepOutcome

    round_distribution = round_distribution or sim.round_distribution
    root = round_distribution(0, state)  # where every pass starts
    n_stages = len(sim.stages)
    attempts, successes, first = [0] * n_stages, [0] * n_stages, [0] * n_stages
    budget, rounds = sim.cfg.max_attempts, 0
    bitgen = rng.bit_generator
    us, hits, pos, saved = [], [], 0, None  # the block, its root accepts, next u
    k, cur, log, done = 0, state, [], False
    while rounds < budget:
        if pos == len(us):
            saved = bitgen.state
            draws = rng.random(block)
            us, pos = draws.tolist(), 0
            hits = np.flatnonzero(draws < root.p_accept).tolist()
        if k == 0:
            h = bisect_left(hits, pos)
            end = hits[h] + 1 if h < len(hits) else len(us)  # through the next accept
            take = min(end - pos, budget - rounds)
            rounds += take
            attempts[0] += take
            pos += take
            if pos < end or h == len(hits):
                continue  # the budget or the block ran out first
            dist, u = root, us[pos - 1]
        else:
            dist, u = round_distribution(k, cur), us[pos]
            rounds += 1
            attempts[k] += 1
            pos += 1
            if u >= dist.p_accept:
                k, cur, log = 0, state, []  # restart from ``state``
                continue
        br = _branch_at(dist, u)
        successes[k] += 1
        first[k] = first[k] or attempts[k]
        log.extend(br.clicks)
        cur, k = br.state, k + 1
        if k == n_stages:
            done = True
            break
    bitgen.state = saved
    bitgen.advance(pos)
    if done:
        result = StepOutcome(
            True, rounds, cur, tuple(log), tuple(attempts), tuple(successes)
        )
        return result, tuple(first)
    result = StepOutcome(False, rounds, None, (), tuple(attempts), tuple(successes))
    return result, None


@dataclass
class TrialRecord:
    """Per-trial summary of one chain build."""

    index: int
    succeeded: bool
    rounds: int
    stage_attempts: tuple
    stage_successes: tuple
    fidelity: float | None
    classification: str | None  # "w" | "vacuum" | "other"


def chain_columns(cfg, trials: int, stages=None):
    """The ``ChainColumns`` that ``run_batch(cfg, trials, stages=stages)``
    aggregates: ``montecarlo._run_chain_trials`` over every trial, joined."""
    from wclass_sim import montecarlo
    from wclass_sim.protocol import chain_stages

    stages = chain_stages(cfg.n) if stages is None else tuple(stages)
    parts = montecarlo._run_chain_trials(cfg, stages, 0, trials)
    return montecarlo.ChainColumns.concat(parts)


def chain_records(cfg, trials: int, stages=None) -> list:
    """The trials of ``run_batch(cfg, trials, stages=stages)`` as
    :class:`TrialRecord`, read from :func:`chain_columns`."""
    from wclass_sim import montecarlo

    names = {0: None, montecarlo._W: "w", montecarlo._VACUUM: "vacuum",
             montecarlo._OTHER: "other"}
    cols = chain_columns(cfg, trials, stages)
    done = iter(zip(cols.fidelity.tolist(), cols.classification.tolist()))
    out = []
    for t, (ok, att, succ) in enumerate(
        zip(cols.succeeded.tolist(), cols.attempts.tolist(), cols.successes.tolist())
    ):
        fid, code = next(done) if ok else (None, 0)
        out.append(TrialRecord(t, ok, sum(att), tuple(att), tuple(succ), fid, names[code]))
    return out


@dataclass
class TracedTrialRecord(TrialRecord):
    """A chain batch's trial record that also holds each stage's attempts up
    to its first success (None for an exhausted trial)."""

    first_success_attempts: tuple | None = None


def run_batch_trace_reference(cfg, trials: int, stages=None):
    """``(report, records)`` of ``run_batch(cfg, trials, stages=stages)``
    with every trial walked round by round by
    :func:`run_trial_block_reference` (the block scan of
    :func:`run_trial_trace_reference`); the records are
    :class:`TracedTrialRecord`.

    A root whose passes never complete spends the budget at once through
    ``sim.run_trial``, as the engine does.  Rounds are looked up by ``(stage,
    id(state))``: the table keeps every state alive, so an id is never
    reused, and the walk computes no state key.
    """
    memo = {}

    def trace_trial(sim, rng, root):
        def round_distribution(k, state):
            key = (k, id(state))
            if key not in memo:
                memo[key] = sim.round_distribution(k, state)
            return memo[key]

        if sim._vacuum_root.p_complete <= 0.0:
            return sim.run_trial(rng), None
        return run_trial_block_reference(sim, rng, root, round_distribution)

    return _chain_batch_reference(cfg, trials, stages, trace_trial, TracedTrialRecord)


# ---------------------------------------------------------------------------
# the per-trial sampler: each trial's final branch and tally in Python
# ---------------------------------------------------------------------------


def tally_reference(counts, through):
    """Per-stage ``(attempts, successes)`` of ``counts[k]`` passes failed at
    stage ``k``, plus one pass that got through the first ``through`` stages
    (all of them for a completed pass, fewer for one cut by the budget)."""
    ended = list(counts)
    if through:
        ended[through - 1] += 1  # the last pass, as if it ended there
    reached = list(accumulate(reversed(ended)))[::-1]  # passes ended at k or later
    return tuple(reached), tuple(map(operator.sub, reached, counts))


@functools.lru_cache(maxsize=8)
def _terminal_pick(sim):
    """``(terminals, running sums)`` of :func:`terminal_law_reference`, made
    once per simulator."""
    terminals, law = terminal_law_reference(sim)
    return terminals, list(accumulate(law))


def run_trial_reference(sim, rng):
    """``sim.run_trial(rng)`` with the final branch and tally written per
    trial: draws the passes (geometric), the failed passes' stages
    (multinomial), then, within the budget, one uniform that picks
    (``protocol.pick``) the branch the pass ended on from the running sums
    of :func:`terminal_law_reference`; its clicks are the trial's.  A trial
    past the budget spends it through the engine's ``_spend_budget``."""
    from wclass_sim.protocol import StepOutcome, _spend_budget, pick

    root = sim._vacuum_root
    p_pass, cond = root.p_complete, sim._law[0]
    n_stages = len(sim.stages)
    budget = sim.cfg.max_attempts
    if p_pass > 0.0:
        fails = 0 if p_pass >= 1.0 else int(rng.geometric(p_pass)) - 1
        counts = [0] * n_stages
        if n_stages == 1:
            counts = [fails]
        elif fails > 0:
            counts = rng.multinomial(fails, cond).tolist()
        rounds = sum(map(operator.mul, counts, range(1, n_stages + 1))) + n_stages
        if rounds <= budget:
            terminals, cum = _terminal_pick(sim)
            br = pick(terminals, rng.random(), cum)
            return StepOutcome(
                True, rounds, br.state, br.clicks, *tally_reference(counts, n_stages)
            )
    counts, through = _spend_budget(rng, sim._law, budget)
    return StepOutcome(False, budget, None, (), *tally_reference(counts, through))


def aggregate_chain_reference(cfg, stages, records):
    """The ``RunReport`` of a chain batch's ``records``, aggregated record by
    record as the engine did before its columns (with the library's
    ``wilson_interval`` and ``predicted_generation_time``)."""
    from wclass_sim.montecarlo import (
        RunReport,
        predicted_generation_time,
        wilson_interval,
    )

    labels = tuple(s.label for s in stages)
    connect_idx = [k for k, s in enumerate(stages) if s.kind == "connect"]
    trials = len(records)
    att_sum = [sum(col) for col in zip(*(r.stage_attempts for r in records))]
    succ_sum = [sum(col) for col in zip(*(r.stage_successes for r in records))]
    conn_att = sum(att_sum[k] for k in connect_idx)
    conn_succ = sum(succ_sum[k] for k in connect_idx)
    rounds = [r.rounds for r in records]
    done = [r for r in records if r.succeeded]
    successes = len(done)
    fids = [r.fidelity for r in done]
    classes = [r.classification for r in done]
    w_count = classes.count("w")
    vac_count = classes.count("vacuum")
    p_c_hat = conn_succ / conn_att if conn_att else 0.0
    mean_rounds = sum(rounds) / trials
    sd_rounds = math.sqrt(
        sum((x - mean_rounds) ** 2 for x in rounds) / max(1, trials - 1)
    )
    predicted = None  # the n-party W law; none for a one-stage chain
    if p_c_hat > 0.0 and len(stages) > 1:
        predicted = predicted_generation_time(cfg.n, cfg.eta, min(1.0, p_c_hat), cfg.t0)
    # the mean as the first fidelity plus the mean deviation from it
    fid_mean = fid_se = None
    if fids:
        devs = [x - fids[0] for x in fids]
        shift = left_sum(devs) / len(fids)
        fid_mean = fids[0] + shift
        if len(fids) > 1:
            fid_se = math.sqrt(
                left_sum((d - shift) ** 2 for d in devs) / (len(fids) - 1) / len(fids)
            )
    c_n = c_n_se = None
    if w_count > 0:
        c_n = vac_count / w_count
        if vac_count > 0:
            c_n_se = c_n * math.sqrt(1.0 / vac_count + 1.0 / w_count)
    return RunReport(
        trials=trials,
        successes=successes,
        stage_labels=labels,
        mean_attempts_per_stage=tuple(s / trials for s in att_sum),
        p_c_hat=p_c_hat,
        mean_time_s=mean_rounds * cfg.t0,
        predicted_time_s=predicted,
        c_n_hat=c_n,
        fidelity_mean=fid_mean,
        w_fraction=w_count / successes if successes else 0.0,
        vacuum_fraction=vac_count / successes if successes else 0.0,
        confidence={
            "p_c_hat_wilson95": list(wilson_interval(conn_succ, conn_att)),
            "mean_time_s_se": sd_rounds / math.sqrt(trials) * cfg.t0,
            "fidelity_mean_se": fid_se,
            "c_n_hat_se": c_n_se,
        },
        rounds_total=sum(rounds),
    )


def _chain_batch_reference(cfg, trials, stages, run_trial, record=TrialRecord):
    """``(report, records)`` of a chain batch on the engine's block streams
    (:func:`block_streams`) and node table, each trial sampled by
    ``run_trial(sim, rng, root) -> (StepOutcome, extra record fields)`` and,
    when a W chain's trial completes, followed by the uniform of the Born
    draw that classifies an outcome that is not W (after the uniform of its
    final branch, for :func:`run_trial_reference`), aggregated by
    :func:`aggregate_chain_reference`."""
    from wclass_sim import montecarlo
    from wclass_sim.protocol import chain_stages, epr_state

    stages = chain_stages(cfg.n) if stages is None else tuple(stages)
    sim = montecarlo._chain_engine(replace(cfg, seed=0, phases=None), stages)[0]
    root = sim.initial_state()
    epr = len(stages) == 1
    if epr:  # scored against the zero-phase EPR pair or W state, as the table's states are
        target = epr_state(sim.layout, stages[0].i, stages[0].j, 0.0)
    else:
        target = sim.layout.w_state
    finals = {}  # id of a final state: (fidelity, P(tail empty) or NaN)
    records = []
    for t, rng in block_streams(cfg.seed, trials):
        res, *more = run_trial(sim, rng, root)
        fid = cls = None
        if res.succeeded:
            state = res.state
            if id(state) not in finals:
                finals[id(state)] = montecarlo._final_outcome(
                    state, target, sim.layout, not epr
                )
            fid, p_empty = finals[id(state)]
            if not epr:
                u = rng.random()
                if math.isnan(p_empty):
                    cls = "w"
                else:
                    cls = "vacuum" if u < p_empty else "other"
        records.append(
            record(t, res.succeeded, res.attempts, res.stage_attempts,
                   res.stage_successes, fid, cls, *more)
        )
    return aggregate_chain_reference(cfg, stages, records), records


def run_batch_reference(cfg, trials: int, stages=None):
    """``(report, records)`` of ``run_batch(cfg, trials, stages=stages)``
    with every trial sampled by :func:`run_trial_reference`."""
    return _chain_batch_reference(
        cfg, trials, stages, lambda sim, rng, root: (run_trial_reference(sim, rng),)
    )


def teleport_from_states_reference(tcfg, rng, layout, joint_w_state):
    """One teleport round on the W pair ``joint_w_state`` with the unknown
    state prepared on the sender's pair, drawn from ``teleport_round``; a
    rejected round has no state."""
    from wclass_sim.fock import create, normalize, superpose
    from wclass_sim.protocol import StepOutcome, correct_teleport_clicks, teleport_round

    psi = normalize(
        superpose(
            [tcfg.alpha, tcfg.beta],
            [create(joint_w_state, layout.mode_l), create(joint_w_state, layout.mode_r)],
        )
    )
    br = _conditioned(teleport_round(psi, layout, tcfg.base), rng)
    if br is None:
        return StepOutcome(False, 1, None, ())
    return StepOutcome(
        True, 1, br.state, br.clicks, correct_clicks=correct_teleport_clicks(br)
    )


# ---------------------------------------------------------------------------
# round enumerators: each round's own loss/detection loop
# ---------------------------------------------------------------------------


def _dedup(branches):
    """Merge branches equal in state key, clicks, detected and lost photons,
    summing probabilities in order onto the first one's state."""
    from wclass_sim.protocol import RoundBranch

    merged = {}
    for br in branches:
        key = (br.state.key(), br.clicks, br.detected, br.lost)
        old = merged.get(key)
        if old is None:
            merged[key] = br
        else:
            merged[key] = RoundBranch(
                old.prob + br.prob, old.state, old.clicks, old.detected, old.lost
            )
    return tuple(merged.values())


def _with_photonic_modes(state, names):
    """``state`` on a registry of its own modes (same order, names and
    finite-size model) followed by one empty photonic mode per name: the
    engine's registries hold atomic modes only, so the photonic references
    below build their Stokes and retrieval modes here.  Returns the
    embedded state, the new registry's copy of each old mode (by index) and
    the photonic modes."""
    from wclass_sim.fock import ModeRegistry

    reg = ModeRegistry(state.registry.collective)
    copies = [reg.add_atomic(mode.name) for mode in state.registry.modes]
    photonic = [reg.add_photonic(name) for name in names]
    reg.seal()
    pad = (0,) * len(photonic)
    terms = {occ + pad: a for occ, a in state.items()}
    return FockState(reg, terms, state.truncation_cap), copies, photonic


def _atoms_only(post, state):
    """``post``, whose photonic modes are emptied, back on ``state``'s
    registry with those modes dropped."""
    width = state.registry.n_modes
    assert not any(any(occ[width:]) for occ, _ in post.items())
    return state.replace_terms({occ[:width]: a for occ, a in post.items()})


def connect_round_reference(
    state, layout, i, j, cfg, detector_ids=("D1", "D2"), symmetric_port_only=False
):
    """``connect_round`` on a registry with a Stokes mode for ensembles
    ``i`` and ``j``, as a four-deep loop: pump both ensembles, split the
    Stokes light, then loss on port i, loss on port j, detection on i,
    detection on j, with the floor cut at each level.  Branch states come
    back on ``layout``'s registry.  The pumps run on a cap with room for
    every pair (two quanta each, two pairs per ensemble at most: + 8), and
    ``truncated`` is the pumped norm past the round's cap over the whole.

    Unlike the engine, it reads the channel phases: after the pump, each
    Stokes mode (empty before it) gets its ensemble's phase ``cfg.phases``.
    So on ``U_phi |state>`` it gives ``U_phi`` times the engine's branches,
    ``U_phi = prod_i exp(i phi_1i n_i)``.
    """
    from wclass_sim.fock import normalize
    from wclass_sim.optics import (
        BeamSplitterSpec,
        PumpSpec,
        apply_beam_splitter,
        apply_phase,
        detection_outcomes,
        loss_outcomes,
        pump_excite,
    )
    from wclass_sim.protocol import _PROB_FLOOR, RoundBranch, RoundDistribution

    if cfg.p_e <= 0.0:
        return RoundDistribution(0.0, ())
    psi, copies, (st_i, st_j) = _with_photonic_modes(state, (f"st{i}", f"st{j}"))
    ens_i, ens_j = (copies[layout.ensemble(party).index] for party in (i, j))
    cap = state.truncation_cap
    psi = FockState(psi.registry, dict(psi.items()), cap + 8)
    for ens, stokes, party in ((ens_i, st_i, i), (ens_j, st_j, j)):
        psi = pump_excite(psi, PumpSpec(ens, stokes, cfg.p_e), cfg.second_order_pump)
        psi = apply_phase(psi, stokes, cfg.phases[party - 1])
    full = psi.norm_squared()
    psi = FockState(psi.registry, {occ: a for occ, a in psi.items() if sum(occ) <= cap}, cap)
    truncated = (full - psi.norm_squared()) / full
    psi = normalize(apply_beam_splitter(psi, BeamSplitterSpec(st_i, st_j)))
    accepted = []
    for lb1 in loss_outcomes(psi, st_i, cfg.eta):
        if lb1.prob < _PROB_FLOOR:
            continue
        s1 = normalize(lb1.state)
        for lb2 in loss_outcomes(s1, st_j, cfg.eta):
            p_loss = lb1.prob * lb2.prob
            if p_loss < _PROB_FLOOR:
                continue
            s2 = normalize(lb2.state)
            for d1 in detection_outcomes(s2, st_i):
                if d1.prob * p_loss < _PROB_FLOOR:
                    continue
                s3 = normalize(d1.state)
                for d2 in detection_outcomes(s3, st_j):
                    prob = p_loss * d1.prob * d2.prob
                    if prob < _PROB_FLOOR:
                        continue
                    c1, c2 = d1.photons >= 1, d2.photons >= 1
                    if c1 == c2:
                        continue  # zero or two clicks: rejected
                    if c2 and symmetric_port_only:
                        continue
                    post = normalize(d2.state)
                    if c2:
                        post = apply_phase(post, ens_j, math.pi)
                    accepted.append(
                        RoundBranch(
                            prob,
                            _atoms_only(post, state),
                            ((detector_ids[0], c1), (detector_ids[1], c2)),
                            (d1.photons, d2.photons),
                            lb1.lost + lb2.lost,
                        )
                    )
    branches = _dedup(accepted)
    return RoundDistribution(sum(b.prob for b in branches), branches, truncated=truncated)


def merge_round_reference(state, layout, i, cfg, detector_id="D3"):
    """``merge_round`` in three passes over the state: the Born law of the
    excitations on ensemble ``i`` (``count_excitations``), then the
    annihilation ``s_i`` (``annihilate``), then ``normalize``.  The click
    probability is ``sum_k P(n_i = k) (1 - eta^k)``."""
    from wclass_sim.fock import annihilate, count_excitations, normalize
    from wclass_sim.protocol import RoundBranch, RoundDistribution

    mode = layout.ensemble(i)
    dist = count_excitations(state, [mode])
    p_click = sum(p * (1.0 - cfg.eta**k) for k, p in dist.items() if k >= 1)
    if p_click <= 0.0:
        return RoundDistribution(0.0, (), rejected=1.0)
    post = normalize(annihilate(state, mode))
    branch = RoundBranch(p_click, post, ((detector_id, True),), (1,), 0)
    return RoundDistribution(p_click, (branch,), rejected=1.0 - p_click)


def teleport_round_reference(state, layout, cfg):
    """``teleport_round`` on a registry with a retrieval mode for
    ensembles L, 1, R and 4, as a recursive walk: retrieve, split (L, 1)
    and (R, 4), then loss and detection on each of the four ports, one
    click accepted behind each splitter.  Branch states come back on
    ``layout``'s registry."""
    from wclass_sim.fock import normalize
    from wclass_sim.optics import (
        BeamSplitterSpec,
        apply_beam_splitter,
        apply_phase,
        detection_outcomes,
        loss_outcomes,
        repump_convert,
    )
    from wclass_sim.protocol import _PROB_FLOOR, RoundBranch, RoundDistribution

    psi, copies, ports = _with_photonic_modes(state, ("aL", "a1", "aR", "a4"))
    ens = [copies[m.index] for m in layout.ensembles]
    retrieved = [copies[m.index] for m in (layout.mode_l, layout.ensembles[0])]
    retrieved += [copies[m.index] for m in (layout.mode_r, layout.ensembles[3])]
    for mode, port in zip(retrieved, ports):
        psi = repump_convert(psi, mode, port)
    psi = apply_beam_splitter(psi, BeamSplitterSpec(ports[0], ports[1]))
    psi = apply_beam_splitter(psi, BeamSplitterSpec(ports[2], ports[3]))
    psi = normalize(psi)
    names = ("D1", "D2", "D3", "D4")
    accepted = []

    def walk(k, s, prob, lost, ks):
        if prob < _PROB_FLOOR:
            return
        if k == len(ports):
            clicks = tuple(x >= 1 for x in ks)
            if sum(clicks[:2]) != 1 or sum(clicks[2:]) != 1:
                return
            post = normalize(s)
            if clicks[1]:  # D2: photon came through the ensemble-1 port
                post = apply_phase(post, ens[4], math.pi)
                post = apply_phase(post, ens[5], math.pi)
            if clicks[3]:  # D4: photon came through the ensemble-4 port
                post = apply_phase(post, ens[1], math.pi)
                post = apply_phase(post, ens[2], math.pi)
            named = tuple(zip(names, clicks))
            accepted.append(RoundBranch(prob, _atoms_only(post, state), named, ks, lost))
            return
        for lb in loss_outcomes(s, ports[k], cfg.eta):
            if lb.prob * prob < _PROB_FLOOR:
                continue
            sl = normalize(lb.state)
            for db in detection_outcomes(sl, ports[k]):
                walk(
                    k + 1,
                    normalize(db.state),
                    prob * lb.prob * db.prob,
                    lost + lb.lost,
                    ks + (db.photons,),
                )

    walk(0, psi, 1.0, 0, ())
    branches = _dedup(accepted)
    return RoundDistribution(sum(b.prob for b in branches), branches)


# ---------------------------------------------------------------------------
# exact-state builders: each operator product written out by hand
# ---------------------------------------------------------------------------


def _chain_layout(n):
    from wclass_sim.protocol import ProtocolConfig, make_chain_layout

    return make_chain_layout(ProtocolConfig(n=n, p_e=0.0))


def ideal_w_state_reference(n, phases=None, layout=None):
    """``(1/sqrt(n)) sum_i e^{i phi_1i} s_i+ |vac>``, term by term."""
    from wclass_sim.fock import create, superpose

    if n < 1:
        raise ValueError("n must be positive")
    if phases is None:
        phases = (0.0,) * n
    if layout is None:
        layout = _chain_layout(max(n, 2))
    vac = layout.vacuum()
    parts = [create(vac, layout.ensemble(i)) for i in range(1, n + 1)]
    coeffs = [
        complex(math.cos(ph), math.sin(ph)) / math.sqrt(n) for ph in phases[:n]
    ]
    return superpose(coeffs, parts)


def epr_state_reference(layout, i, j, phase_ij):
    """``(s_i+ + e^{i phi} s_j+)/sqrt(2)|vac>``."""
    from wclass_sim.fock import create, superpose

    vac = layout.vacuum()
    e = complex(math.cos(phase_ij), math.sin(phase_ij))
    return superpose(
        [1.0 / math.sqrt(2), e / math.sqrt(2)],
        [create(vac, layout.ensemble(i)), create(vac, layout.ensemble(j))],
    )


def connect_applied_reference(state, layout, i, j, rel_phase):
    """``(s_i+ + e^{i phi} s_j+)/sqrt(2)`` applied to ``state``."""
    from wclass_sim.fock import create, superpose

    e = complex(math.cos(rel_phase), math.sin(rel_phase))
    return superpose(
        [1.0 / math.sqrt(2), e / math.sqrt(2)],
        [create(state, layout.ensemble(i)), create(state, layout.ensemble(j))],
    )


def w_prime_state_reference(n, phases=None, layout=None):
    """``prod_{i=2}^{n-1} s_i (s_i+ + e^{i phi_{i,i+1}} s_{i+1}+)`` on the
    unnormalized pair ``(s_1+ + e^{i phi_12} s_2+)|vac>``."""
    from wclass_sim.fock import annihilate, create, superpose

    if n < 3:
        raise ValueError("the chain intermediate needs n >= 3")
    if phases is None:
        phases = (0.0,) * n
    if layout is None:
        layout = _chain_layout(n)
    vac = layout.vacuum()
    e12 = complex(math.cos(phases[1]), math.sin(phases[1]))
    state = superpose(
        [1.0, e12],
        [create(vac, layout.ensemble(1)), create(vac, layout.ensemble(2))],
    )
    for i in range(2, n):
        rel = phases[i] - phases[i - 1]
        e = complex(math.cos(rel), math.sin(rel))
        state = superpose(
            [1.0, e],
            [create(state, layout.ensemble(i)), create(state, layout.ensemble(i + 1))],
        )
        state = annihilate(state, layout.ensemble(i))
    return state


def w_state_by_operators_reference(n, phases=None, layout=None):
    """``(1/(2 sqrt(n))) s_1 (s_1+ + e^{i phi_1n} s_n+)`` on the chain
    intermediate."""
    from wclass_sim.fock import annihilate, create, superpose

    if phases is None:
        phases = (0.0,) * n
    if layout is None:
        layout = _chain_layout(n)
    wp = w_prime_state_reference(n, phases, layout)
    rel = phases[n - 1]
    e = complex(math.cos(rel), math.sin(rel))
    state = superpose(
        [1.0, e],
        [create(wp, layout.ensemble(1)), create(wp, layout.ensemble(n))],
    )
    state = annihilate(state, layout.ensemble(1))
    return superpose([1.0 / (2.0 * math.sqrt(n))], [state])


def teleport_target_state_reference(tcfg, layout):
    """``[e^{i phi_13}(a s_3+ + b s_6+) + e^{i phi_12}(a s_2+ + b s_5+)]``,
    normalized."""
    from wclass_sim.fock import create, normalize, superpose

    vac = layout.vacuum()
    phases = tcfg.base.phases
    e12 = complex(math.cos(phases[1]), math.sin(phases[1]))
    e13 = complex(math.cos(phases[2]), math.sin(phases[2]))
    a, b = tcfg.alpha, tcfg.beta
    parts = [
        create(vac, layout.ensembles[2]),  # ensemble 3
        create(vac, layout.ensembles[5]),  # ensemble 6
        create(vac, layout.ensembles[1]),  # ensemble 2
        create(vac, layout.ensembles[4]),  # ensemble 5
    ]
    coeffs = [e13 * a, e13 * b, e12 * a, e12 * b]
    return normalize(superpose(coeffs, parts))


def exact_double_w_state_reference(tcfg, layout):
    """``|W>_123 x |W>_456``: the second W created term by term on the first."""
    from wclass_sim.fock import create, superpose

    w123 = w_state_by_operators_reference(3, tcfg.base.phases, layout)  # on ensembles 1..3
    return superpose(
        [
            complex(math.cos(ph), math.sin(ph)) / math.sqrt(3)
            for ph in tcfg.base.phases
        ],
        [create(w123, layout.ensembles[k]) for k in (3, 4, 5)],
    )


def unknown_prepared_reference(tcfg, layout, joint):
    """``(alpha s_L+ + beta s_R+)|joint>``, normalized."""
    from wclass_sim.fock import create, normalize, superpose

    return normalize(
        superpose(
            [tcfg.alpha, tcfg.beta],
            [create(joint, layout.mode_l), create(joint, layout.mode_r)],
        )
    )


def receiver_targets_reference(tcfg, layout):
    """The qubit ``alpha a+ + beta b+`` on Carol's pair (ensembles 3, 6) and
    on Bob's (2, 5), each normalized."""
    from wclass_sim.fock import create, normalize, superpose

    carol = (layout.ensembles[2], layout.ensembles[5])  # ensembles 3 and 6
    vac = layout.vacuum()
    carol_target = normalize(
        superpose(
            [tcfg.alpha, tcfg.beta], [create(vac, carol[0]), create(vac, carol[1])]
        )
    )
    bob_target = normalize(
        superpose(
            [tcfg.alpha, tcfg.beta],
            [create(vac, layout.ensembles[1]), create(vac, layout.ensembles[4])],
        )
    )
    return carol_target, bob_target
