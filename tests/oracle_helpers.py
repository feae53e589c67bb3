"""Independent oracles the tests check the library against.

Everything here is written directly from the closed forms: literal
amplitude dictionaries for the protocol states, a polynomial beam-splitter
expansion, the two-mode-squeezer power series, and the repeat-until-success
expected-round formula over analytically derived stage probabilities.
None of it calls back into the code paths it verifies.
"""

from __future__ import annotations

import cmath
import math

from wclass_sim.fock import FockState


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


def epr_reference_records(cfg, lo: int, hi: int) -> list:
    """Per-trial ``(index, succeeded, rounds, stage_attempts, stage_successes,
    fidelity, classification)`` of an EPR batch, drawn by a loop written for
    the single entangling round alone: a geometric number of attempts, then
    one Born draw among the accepted branches.

    The round itself comes from ``connect_round`` and the per-trial streams
    from ``rng_for_trial``; only the repeat-until-success sampling is
    independent of the engine it checks.
    """
    from wclass_sim.fock import fidelity
    from wclass_sim.montecarlo import rng_for_trial
    from wclass_sim.protocol import connect_round, epr_state, make_chain_layout

    layout = make_chain_layout(cfg)
    dist = connect_round(layout.vacuum(), layout, 1, 2, cfg, ("D1", "D2"))
    target = epr_state(layout, 1, 2, cfg.phases[1])
    exhausted = (cfg.max_attempts, (cfg.max_attempts,), (0,), None, None)
    out = []
    for t in range(lo, hi):
        rng = rng_for_trial(cfg.seed, t)
        if dist.p_accept <= 0.0:
            out.append((t, False, *exhausted))
            continue
        attempts = int(rng.geometric(dist.p_accept))
        u = rng.random() * dist.p_accept
        if attempts > cfg.max_attempts:
            out.append((t, False, *exhausted))
            continue
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
    of results: each path of the pass is enumerated anew with
    ``connect_round`` or ``merge_round`` and summed in branch order.

    States reached by different paths can share a ``key()`` (amplitudes
    rounded to 12 digits) while differing in the last bits.  With ``seen``
    (a dict) the first state to reach each ``(stage, key)`` stands in for
    the later ones, as it does in the simulator's node table; without it
    every path keeps its own state.
    """
    from wclass_sim.protocol import connect_round, merge_round

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
        dist = merge_round(state, layout, spec.i, cfg, spec.detectors[0])
    fail = [0.0] * len(stages)
    fail[idx] = 1.0 - dist.p_accept
    p_complete = 0.0
    for br in dist.branches:
        pc, fv = completion_reference(stages, layout, cfg, br.state, idx + 1, seen)
        p_complete += br.prob * pc
        for k, x in enumerate(fv):
            fail[k] += br.prob * x
    return p_complete, tuple(fail)


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


def _conditioned(dist, rng):
    """``u = rng.random()``: None when ``u >= p_accept``, else the branch at
    which the running sum of branch probabilities first exceeds ``u`` (the
    last one when rounding leaves ``u`` beyond it)."""
    u = rng.random()
    if u >= dist.p_accept:
        return None
    acc = 0.0
    for br in dist.branches:
        acc += br.prob
        if u < acc:
            return br
    return dist.branches[-1]


def run_trial_trace_reference(sim, rng, state):
    """A trace trial of the ``ChainSimulator`` ``sim`` from ``state``: every
    round drawn from ``sim.round_distribution`` by :func:`_conditioned`, a
    failed round restarting the pass from ``state``, until a pass completes
    or ``max_attempts`` rounds are spent.  Only for stage lists whose passes
    can complete (the engine spends a hopeless budget at once)."""
    from wclass_sim.protocol import ChainTrialResult

    n_stages = len(sim.stages)
    attempts, successes, first = [0] * n_stages, [0] * n_stages, [0] * n_stages
    budget, rounds = sim.cfg.max_attempts, 0
    while rounds < budget:
        k, cur, log = 0, state, []
        while rounds < budget:
            rounds += 1
            attempts[k] += 1
            br = _conditioned(sim.round_distribution(k, cur), rng)
            if br is None:
                break  # restart from ``state``
            successes[k] += 1
            first[k] = first[k] or attempts[k]
            log.extend(br.clicks)
            cur, k = br.state, k + 1
            if k == n_stages:
                return ChainTrialResult(
                    True, rounds, tuple(attempts), tuple(successes), cur,
                    tuple(log), tuple(first),
                )
    return ChainTrialResult(False, rounds, tuple(attempts), tuple(successes), None, ())


def teleport_from_states_reference(tcfg, rng, layout, joint_w_state):
    """One teleport round on the W pair ``joint_w_state`` with the unknown
    state prepared on the sender's pair, drawn from ``teleport_round``."""
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
        return StepOutcome(False, 1, psi, ())
    info = {"correct_clicks": correct_teleport_clicks(br)}
    return StepOutcome(True, 1, br.state, br.clicks, info=info)


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


def connect_round_reference(
    state, layout, i, j, cfg, detector_ids=("D1", "D2"), symmetric_port_only=False
):
    """``connect_round`` as a four-deep loop: loss on port i, loss on port j,
    detection on i, detection on j, with the floor cut at each level."""
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
                        post = apply_phase(post, layout.ensemble(j), math.pi)
                    accepted.append(
                        RoundBranch(
                            prob,
                            post,
                            ((detector_ids[0], c1), (detector_ids[1], c2)),
                            (d1.photons, d2.photons),
                            lb1.lost + lb2.lost,
                        )
                    )
    branches = _dedup(accepted)
    return RoundDistribution(sum(b.prob for b in branches), branches)


def teleport_round_reference(state, layout, cfg):
    """``teleport_round`` as a recursive walk: loss then detection on each
    of the four retrieval ports, one click accepted behind each splitter."""
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

    psi = repump_convert(state, layout.mode_l, layout.phot_l)
    psi = repump_convert(psi, layout.ensembles[0], layout.phot[0])
    psi = repump_convert(psi, layout.mode_r, layout.phot_r)
    psi = repump_convert(psi, layout.ensembles[3], layout.phot[3])
    psi = apply_beam_splitter(psi, BeamSplitterSpec(layout.phot_l, layout.phot[0]))
    psi = apply_beam_splitter(psi, BeamSplitterSpec(layout.phot_r, layout.phot[3]))
    psi = normalize(psi)
    ports = (layout.phot_l, layout.phot[0], layout.phot_r, layout.phot[3])
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
                post = apply_phase(post, layout.ensembles[4], math.pi)
                post = apply_phase(post, layout.ensembles[5], math.pi)
            if clicks[3]:  # D4: photon came through the ensemble-4 port
                post = apply_phase(post, layout.ensembles[1], math.pi)
                post = apply_phase(post, layout.ensembles[2], math.pi)
            accepted.append(RoundBranch(prob, post, tuple(zip(names, clicks)), ks, lost))
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
    e12 = complex(math.cos(layout.phases[1]), math.sin(layout.phases[1]))
    e13 = complex(math.cos(layout.phases[2]), math.sin(layout.phases[2]))
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

    w123 = w_state_by_operators_reference(3, tcfg.base.phases, layout.chain_layout(1))
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
