#!/usr/bin/env python3
"""One environment episode step by step: states, actions, rewards, aborts.

Run:  python3 demos/03_episode_walkthrough.py
"""

import numpy as np

from cellbeam import DownlinkEnv, hierarchical_reward, preset

env = DownlinkEnv(preset("sub6"), m_antennas=4, horizon=10)
state = env.reset(seed=3)

print("=== observation layout ===")
labels = ["ue_l x", "ue_l y", "ue_b x", "ue_b y",
          "P_l dBm", "P_b dBm", "beam_l", "beam_b"]
for name, value in zip(labels, state):
    print(f"  {name:8s} = {value:9.3f}")
print(f"action bounds: low {env.action_low}  high {env.action_high}")
print(f"SINR band: cutoff {env.gamma_cutoff_db} dB, cap {env.gamma_max_db:.0f} dB")

print("\n=== a hand-driven episode (serving power up, interferer down) ===")
done = False
t = 0
while not done:
    action = np.array([38.0, 25.0, 1.2, 3.0])
    out = env.step(action)
    t += 1
    raw = out.info["sinr_db"].round(2)
    eff = out.info["eff_sinr_db"].round(2)
    print(f"  t={t:2d} raw SINR {raw} dB  effective {eff} dB  "
          f"reward {out.reward:6.2f}  beams {out.next_state[6:].astype(int)}"
          f"{'  <- aborted' if out.info['aborted'] else ''}")
    done = out.done

print("\n=== power clamping ===")
env.reset(seed=4)
powers, beams = env.apply_action(np.array([99.0, -50.0, 2.7, 0.0]))
print(f"requested (99, -50) dBm -> applied {powers.round(2)} dBm (cap and floor), "
      f"raw beam 2.7 -> index {beams[0]}")

print("\n=== goal-conditioned reward shaping ===")
goal = np.array([30.0, 20.0, 1.0, 3.0])
action = np.array([28.0, 22.0, 1.0, 2.0])
print(f"step reward 18.0, |goal - action| sums to "
      f"{np.abs(goal - action).sum():.1f} -> shaped reward "
      f"{hierarchical_reward(18.0, goal, action):.1f}")
