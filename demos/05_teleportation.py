"""Teleporting an unknown two-mode superposition over two W states.

The sender retrieves her four ensembles synchronously; two clicks, one
behind each beam splitter, herald the transfer.  Either receiver can then
localize the state on their own pair with a projective measurement.
"""

import numpy as np

from wclass_sim.fock import debug_serialize
from wclass_sim.protocol import (
    Holder,
    ProtocolConfig,
    TeleportConfig,
    exact_double_w_state,
    make_teleport_layout,
    receiver_localize,
    teleport,
    teleport_target_state,
    teleport_from_states,
)

base = ProtocolConfig(n=3, p_e=0.02, eta=0.0, seed=50, phases=(0.0, 0.4, -0.7))
tcfg = TeleportConfig(complex(0.6, 0.0), complex(0.0, 0.8), base)
layout = make_teleport_layout(tcfg)

target = teleport_target_state(tcfg, layout)
print("receiver-side state the clicks herald (ensembles 2, 3, 5, 6):")
print(debug_serialize(target))

# condition many rounds on prepared W states
rng = np.random.default_rng(1)
joint = exact_double_w_state(tcfg, layout)
accepted = correct = 0
for _ in range(600):
    out = teleport_from_states(tcfg, rng, layout, joint)
    if out.succeeded:
        accepted += 1
        correct += out.correct_clicks
print(f"\naccepted {accepted}/600 rounds; {correct} were true single-photon")
print("heralds (the rest are bunched two-photon fakes the detectors cannot")
print("resolve; they leave the receivers empty-handed)")

# full pipeline including the two chain builds
out = teleport(tcfg, np.random.default_rng(7))
print(f"\nfull pipeline: success after {out.attempts} light-atom rounds,"
      f" clicks {[d for d, c in out.click_log if c]}")

# receivers decide who holds the state
carol = (layout.ensembles[2], layout.ensembles[5])
rng = np.random.default_rng(2)
wins = 0
n = 5000
for _ in range(n):
    holder, residual = receiver_localize(target, carol, rng)
    wins += holder is Holder.THIS_RECEIVER
print(f"\nCarol finds the excitation in {wins / n:.3f} of measurements "
      "(either receiver equally likely); her conditional state is exact:")
_, residual = receiver_localize(target, carol, rng)
print(debug_serialize(residual))
