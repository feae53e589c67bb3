"""The inherent noise channel: double-pair emission plus photon loss.

A lost partner photon lets a detector click without the heralded excitation
being there.  Conditioned on success the state is then a mixture of the W
projector and a vacuum-like component; this script estimates the vacuum
coefficient and verifies the mixture-fidelity identity.
"""

from wclass_sim.montecarlo import estimate_vacuum_coefficient, fidelity_mixture
from wclass_sim.protocol import ProtocolConfig, ideal_w_state, make_chain_layout

p_e, trials = 0.02, 30_000

print("second-order pumping disabled, eta = 0 (no noise channel):")
clean = ProtocolConfig(n=3, p_e=p_e, eta=0.0, seed=40, second_order_pump=False)
c0, _ = estimate_vacuum_coefficient(clean, 5_000)
print(f"  c_3 = {c0}")

print(f"\ndouble pairs enabled, p_e = {p_e}, {trials} trials per point:")
for eta in (0.1, 0.3, 0.5):
    cfg = ProtocolConfig(n=3, p_e=p_e, eta=eta, seed=40)
    layout = make_chain_layout(cfg)
    c3, mixture = estimate_vacuum_coefficient(cfg, trials)
    target = ideal_w_state(3, cfg.phases, layout)
    fid = fidelity_mixture(mixture, target)
    print(f"  eta={eta}:  c_3 = {c3:.5f},  mixture fidelity {fid:.6f}"
          f"  = 1/(1+c_3) = {1 / (1 + c3):.6f}")

print("\nthe coefficient grows with the loss because the fake-herald channel")
print("needs a lost photon while the genuine channel is suppressed by it")
