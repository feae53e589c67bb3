"""One conditioned round at a time: pump, interfere, lose, detect.

Shows the exact outcome distribution of an entangling round, the
Hong-Ou-Mandel rejection of split double pairs, and how loss reshapes the
click probability without changing the heralded state.
"""

import numpy as np

from wclass_sim.protocol import (
    ProtocolConfig,
    connect_round,
    epr_state,
    make_chain_layout,
    merge_round,
    prepare_epr,
)


def clicked(br):
    """The detectors that clicked in a branch, e.g. "D1"."""
    return ",".join(d for d, c in br.clicks if c)


cfg = ProtocolConfig(n=3, p_e=0.01, eta=0.0, seed=1)
layout = make_chain_layout(cfg)

dist = connect_round(layout.vacuum(), layout, 1, 2, cfg)
print(f"entangling round at p_e = {cfg.p_e}, eta = 0:")
print(f"  accept probability {dist.p_accept:.6f}  (first order: 2 p_e = {2 * cfg.p_e})")
# most likely first; D1 and D2 branches equal in exact arithmetic can differ
# in their last bits, so compare 12 digits and then the detector
for br in sorted(dist.branches, key=lambda b: (-round(b.prob, 12), clicked(b))):
    clicks = clicked(br)
    print(f"  p={br.prob:.3e}  click {clicks}  photons {br.detected}  -> {br.state}")
print("  two-click events (one photon at each detector) are rejected, so no")
print("  branch above clicks both detectors; bunched double pairs survive as")
print("  the small k=2 branches.")

# the same round with loss: the click rate scales by (1 - eta), the
# conditioned single-photon state is unchanged
for eta in (0.0, 0.3, 0.6):
    lossy = ProtocolConfig(n=3, p_e=0.01, eta=eta, seed=1)
    lay = make_chain_layout(lossy)
    d = connect_round(lay.vacuum(), lay, 1, 2, lossy)
    print(f"eta={eta}: accept {d.p_accept:.6f}  ~ 2 p_e (1 - eta) = {2 * 0.01 * (1 - eta):.6f}")

# repump readout on the entangled pair
print("\nrepump readout of ensemble 2 holding half an excitation:")
for eta in (0.0, 0.3):
    c = ProtocolConfig(n=3, p_e=0.01, eta=eta, seed=1)
    lay = make_chain_layout(c)
    pair = epr_state(lay, 1, 2, 0.0)
    d = merge_round(pair, lay, 2, c)
    print(f"  eta={eta}: click probability {d.p_accept:.3f} = (1/2)(1 - eta);"
          f" post state {d.branches[0].state}")

# repeat-until-success sampling
rng = np.random.default_rng(0)
attempts = [prepare_epr(cfg, 1, 2, rng, layout).attempts for _ in range(2000)]
print(f"\nrepeat-until-success: mean attempts {np.mean(attempts):.1f}"
      f" ~ 1/accept = {1 / dist.p_accept:.1f}")
