"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run as ``pytest tests/test_acceptance.py -v -s`` or directly as
``python tests/test_acceptance.py``.
"""

import json
import math
import time
from unittest import mock

import numpy as np

from wclass_sim import montecarlo
from wclass_sim.cli import main as cli_main
from wclass_sim.fock import (
    CollectiveModeModel,
    FockState,
    ModeRegistry,
    annihilate,
    create,
    fidelity,
    inner_product,
    normalize,
    superpose,
)
from wclass_sim.montecarlo import (
    estimate_vacuum_coefficient,
    fidelity_mixture,
    predicted_generation_time,
    run_batch,
)
from wclass_sim.protocol import (
    Holder,
    ProtocolConfig,
    TeleportConfig,
    epr_state,
    connect_applied,
    exact_double_w_state,
    ideal_w_state,
    make_chain_layout,
    make_teleport_layout,
    receiver_localize,
    teleport_from_states,
    teleport_target_state,
    w_prime_state,
    w_state_by_operators,
)

from oracle_helpers import (
    as_state,
    epr_amplitudes,
    equal_up_to_global_phase,
    merged_amplitudes,
    step2_amplitudes,
    w_m_amplitudes,
    w_prime_amplitudes,
)


def _verdict(name: str, ok: bool, detail: str = "") -> bool:
    tail = f" - {detail}" if detail else ""
    print(f"{name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def _random_phases(n, rng):
    return (0.0,) + tuple(rng.uniform(-math.pi, math.pi, n - 1))


def test_a1_state_algebra_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    ok = True
    phase_sets = {n: [(0.0,) * n] + [_random_phases(n, rng) for _ in range(20)]
                  for n in range(3, 9)}
    for n, sets in phase_sets.items():
        layout = make_chain_layout(ProtocolConfig(n=n, p_e=0.01))
        for phases in sets:
            wp = w_prime_state(n, phases, layout)
            ok &= equal_up_to_global_phase(
                wp, as_state(layout, w_prime_amplitudes(n, phases)), 1e-10
            )
            ok &= abs(inner_product(wp, wp).real - (4 * n - 6)) < 1e-9
            w = w_state_by_operators(n, phases, layout)  # the 1/(2 sqrt n) step
            ok &= (
                abs(fidelity(w, as_state(layout, w_m_amplitudes(n, phases))) - 1.0)
                < 1e-10
            )
            ok &= abs(w.norm() - 1.0) < 1e-10
    layout3 = make_chain_layout(ProtocolConfig(n=3, p_e=0.01))
    for phases in phase_sets[3]:
        pair = epr_state(layout3, 1, 2, phases[1])
        ok &= equal_up_to_global_phase(
            pair, as_state(layout3, epr_amplitudes(3, 1, 2, phases[1])), 1e-10
        )
        three = connect_applied(pair, layout3, 2, 3, phases[2] - phases[1])
        ok &= equal_up_to_global_phase(
            three,
            as_state(layout3, step2_amplitudes(phases[1], phases[2] - phases[1])),
            1e-10,
        )
        merged = annihilate(three, layout3.ensembles[1])
        oracle = as_state(layout3, merged_amplitudes(phases[1], phases[2]))
        ok &= equal_up_to_global_phase(merged, normalize(oracle), 1e-10)
        ok &= abs(inner_product(oracle, oracle).real - 6.0) < 1e-9
    elapsed = time.monotonic() - started
    ok &= elapsed < 1.0
    assert _verdict("A1 state-algebra exactness", ok, f"runtime {elapsed:.2f} s")


def test_a2_bosonic_identity():
    reg = ModeRegistry()
    m = reg.add_atomic("s")
    reg.seal()
    ideal = annihilate(create(create(FockState.vacuum(reg), m), m), m)
    ok = abs(ideal.amplitude((1,)) - 2.0) < 1e-12
    n_a = 1000.0
    reg_f = ModeRegistry(CollectiveModeModel(n_a, True))
    mf = reg_f.add_atomic("s")
    reg_f.seal()
    finite = annihilate(create(create(FockState.vacuum(reg_f), mf), mf), mf)
    ok &= abs(finite.amplitude((1,)) - 2.0 * (n_a - 1) / n_a) < 1e-12
    assert _verdict(
        "A2 bosonic identity",
        ok,
        f"ideal {ideal.amplitude((1,)).real:.12f}, "
        f"N_a=1e3 {finite.amplitude((1,)).real:.12f}",
    )


def test_a3_ideal_end_to_end():
    started = time.monotonic()
    ok = True
    details = []
    for n in (3, 4, 5):
        cfg = ProtocolConfig(n=n, p_e=0.005, eta=0.0, seed=101 + n)
        report = run_batch(cfg, 1000)
        ok &= report.successes == 1000
        ok &= report.fidelity_mean >= 0.95
        details.append(f"n={n} fid={report.fidelity_mean:.4f}")
    elapsed = time.monotonic() - started
    ok &= elapsed < 60.0
    assert _verdict(
        "A3 ideal end-to-end", ok, ", ".join(details) + f", runtime {elapsed:.1f} s"
    )


def test_a4_time_scaling_law():
    started = time.monotonic()
    eta, p_e, trials = 0.3, 0.01, 100_000
    reports = {}
    for n in (3, 4, 5):
        cfg = ProtocolConfig(n=n, p_e=p_e, eta=eta, seed=4000 + n)
        reports[n] = run_batch(cfg, trials)
    p_c = reports[3].p_c_hat
    expected_ratio = 1.0 / ((1.0 - eta) ** 2 * p_c)
    # predicted_generation_time ratios are exact by construction
    pred_ratio = predicted_generation_time(4, eta, p_c, 1.0) / predicted_generation_time(
        3, eta, p_c, 1.0
    )
    ok = abs(pred_ratio - expected_ratio) < 1e-9 * expected_ratio
    details = [f"p_c_hat={p_c:.5f}", f"expected {expected_ratio:.1f}"]
    for n in (4, 5):
        r, rp = reports[n], reports[n - 1]
        ratio = r.mean_time_s / rp.mean_time_s
        sigma = ratio * math.hypot(
            r.confidence["mean_time_s_se"] / r.mean_time_s,
            rp.confidence["mean_time_s_se"] / rp.mean_time_s,
        )
        details.append(f"T({n})/T({n - 1})={ratio:.1f}±{sigma:.1f}")
        ok &= abs(ratio - expected_ratio) <= 3.0 * sigma
    elapsed = time.monotonic() - started
    ok &= elapsed < 600.0
    assert _verdict(
        "A4 time-scaling law", ok, ", ".join(details) + f", runtime {elapsed:.0f} s"
    )


def test_a5_noise_mixture():
    p_e, trials = 0.02, 30_000
    cfg3 = ProtocolConfig(n=3, p_e=p_e, eta=0.3, seed=555)
    layout = make_chain_layout(cfg3)
    c3, mixture = estimate_vacuum_coefficient(cfg3, trials)
    ok = c3 > 0.0
    target = ideal_w_state(3, cfg3.phases, layout)
    mix_fid = fidelity_mixture(mixture, target)
    ok &= abs(mix_fid - 1.0 / (1.0 + c3)) < 1e-10
    cs = {0.3: c3}
    for eta in (0.1, 0.5):
        cfg = ProtocolConfig(n=3, p_e=p_e, eta=eta, seed=555)
        cs[eta], _ = estimate_vacuum_coefficient(cfg, trials)
    ok &= cs[0.1] < cs[0.3] < cs[0.5]
    assert _verdict(
        "A5 noise mixture",
        ok,
        f"c3(0.1)={cs[0.1]:.5f} < c3(0.3)={cs[0.3]:.5f} < c3(0.5)={cs[0.5]:.5f}, "
        f"mixture fidelity {mix_fid:.10f} = 1/(1+c3)",
    )


def test_a6_teleportation():
    rng = np.random.default_rng(66)
    base = ProtocolConfig(n=3, p_e=0.02, eta=0.0, seed=66, phases=(0.0, 0.5, -0.8))
    ok = True
    checked = 0
    for _ in range(20):
        a_mag = rng.uniform(0.05, 0.95)
        alpha = math.sqrt(a_mag) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        beta = math.sqrt(1 - a_mag) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        tcfg = TeleportConfig(complex(alpha), complex(beta), base)
        layout = make_teleport_layout(tcfg)
        joint = exact_double_w_state(tcfg, layout)
        target = teleport_target_state(tcfg, layout)
        for _ in range(400):
            out = teleport_from_states(tcfg, rng, layout, joint)
            if out.succeeded and out.correct_clicks:
                ok &= equal_up_to_global_phase(out.state, target, 1e-10)
                checked += 1
                break
        else:
            ok = False
    ok &= checked == 20
    # localization statistics on the receiver state
    tcfg = TeleportConfig(complex(0.6, 0.3), complex(math.sqrt(1 - 0.45)), base)
    layout = make_teleport_layout(tcfg)
    target = teleport_target_state(tcfg, layout)
    carol = (layout.ensembles[2], layout.ensembles[5])
    vac = layout.vacuum()
    carol_target = normalize(
        superpose(
            [tcfg.alpha, tcfg.beta],
            [create(vac, carol[0]), create(vac, carol[1])],
        )
    )
    bob_target = normalize(
        superpose(
            [tcfg.alpha, tcfg.beta],
            [create(vac, layout.ensembles[1]), create(vac, layout.ensembles[4])],
        )
    )
    n_samples = 10_000
    holders = 0
    fid_ok = True
    for _ in range(n_samples):
        holder, residual = receiver_localize(target, carol, rng)
        if holder is Holder.THIS_RECEIVER:
            holders += 1
            fid_ok &= abs(fidelity(residual, carol_target) - 1.0) < 1e-10
        else:
            fid_ok &= abs(fidelity(residual, bob_target) - 1.0) < 1e-10
    se = math.sqrt(0.25 / n_samples)
    frac = holders / n_samples
    ok &= abs(frac - 0.5) <= 3 * se
    ok &= fid_ok
    assert _verdict(
        "A6 teleportation",
        ok,
        f"{checked}/20 coefficient pairs exact, holder split {frac:.3f}±{3 * se:.3f}, "
        f"conditional fidelity exact: {fid_ok}",
    )


def test_a7_determinism(tmp_path):
    args = ["w-state", "--n", "3", "--pe", "0.02", "--eta", "0.2",
            "--trials", "80", "--seed", "777"]
    paths = [tmp_path / f"r{k}.json" for k in range(3)]
    sweep = ["scaling-sweep", "--n-min", "3", "--n-max", "4", "--pe", "0.03",
             "--eta", "0.2", "--trials", "40", "--seed", "9",
             "--format", "csv-summary"]
    c1, c2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    # blocks of 8 trials, so the workers split these small batches
    with mock.patch.object(montecarlo, "_BLOCK", 8):
        assert cli_main(args + ["--workers", "1", "-o", str(paths[0])]) == 0
        assert cli_main(args + ["--workers", "1", "-o", str(paths[1])]) == 0
        assert cli_main(args + ["--workers", "3", "-o", str(paths[2])]) == 0
        assert cli_main(sweep + ["--workers", "1", "-o", str(c1)]) == 0
        assert cli_main(sweep + ["--workers", "2", "-o", str(c2)]) == 0
    ok = paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    ok &= c1.read_bytes() == c2.read_bytes()
    doc = json.loads(paths[0].read_text())
    ok &= doc["schema_version"] == 4
    assert _verdict("A7 determinism", ok, "byte-identical across re-runs and workers")


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    failures = 0
    for fn in (
        test_a1_state_algebra_exactness,
        test_a2_bosonic_identity,
        test_a3_ideal_end_to_end,
        test_a4_time_scaling_law,
        test_a5_noise_mixture,
        test_a6_teleportation,
    ):
        try:
            fn()
        except AssertionError:
            failures += 1
    try:
        with tempfile.TemporaryDirectory() as tmp:
            test_a7_determinism(Path(tmp))
    except AssertionError:
        failures += 1
    sys.exit(1 if failures else 0)
