#!/usr/bin/env python3
"""Walk through the physical layer: geometry, mobility, fading, SINR.

Run:  python3 demos/01_channel_and_mobility.py
"""

import numpy as np

from cellbeam import (build_codebook, compute_sinr, draw_channels, init_topology,
                      new_channel_state, preset, step_mobility)
from cellbeam.channel import dbm_to_watts, doppler_correlation, pathloss_db

print("=== scenario presets ===")
for name in ("sub6", "mmwave"):
    sc = preset(name)
    print(f"{name:7s} f={sc.carrier_freq_hz/1e9:5.1f} GHz  r={sc.cell_radius_m:5.0f} m  "
          f"ISD={sc.inter_site_distance_m:5.0f} m  paths={sc.n_paths:2d}  "
          f"v={sc.ue_speed_kmh} km/h  AR(1) rho={doppler_correlation(sc):.3f}")

sc = preset("sub6")
print("\n=== topology (2 BSs, 1 UE each, seed 0) ===")
topo = init_topology(sc, seed=0)
print("BS positions:\n", topo.bs_positions)
print("UE positions:\n", topo.ue_positions.round(1))
for ue in range(2):
    print(f"UE {ue}: serving distance {topo.serving_distance_m(ue):6.1f} m")

print("\n=== mobility: 200 frames of bounded random walk ===")
rng = np.random.default_rng(1)
start = topo.ue_positions.copy()
for _ in range(200):
    topo = step_mobility(topo, sc, rng)
moved = np.linalg.norm(topo.ue_positions - start, axis=1)
print(f"net displacement after 2 s: {moved.round(3)} m "
      f"(per-frame hop is {sc.ue_speed_mps * sc.frame_duration_s * 100:.2f} cm)")

print("\n=== path loss curve (blended LOS/NLOS exponent) ===")
for d in (10, 50, 150, 350, 700):
    print(f"  d={d:4d} m  PL={pathloss_db(d, sc.carrier_freq_hz, sc.p_los):6.1f} dB")

print("\n=== channels and SINR over 5 frames at full power ===")
state = new_channel_state(2)
codebook = build_codebook(m_antennas=1)
powers = np.array([sc.max_bs_power_w, sc.max_bs_power_w])
for t in range(5):
    draw_channels(topo, sc, 1, state)
    sinr = compute_sinr(state, codebook.vectors[[0, 0]], powers, sc)
    print(f"  frame {t}: SINR per UE = {np.round(10 * np.log10(sinr), 2)} dB")

print("\n=== fading energy sanity: mean |h|^2 against path loss * antenna gain ===")
gain = 10 ** (sc.tx_antenna_gain_dbi / 10)
dists = np.linalg.norm(topo.bs_positions[:, None] - topo.ue_positions[None], axis=2)
pl = 10 ** (-pathloss_db(dists, sc.carrier_freq_hz, sc.p_los) / 10)
ratios = []
for i in range(4000):
    s = new_channel_state(i)
    draw_channels(topo, sc, 1, s)
    ratios.append(np.abs(s.vectors[..., 0]) ** 2 / (pl * gain))
print(f"mean ratio over 4000 draws: {np.mean(ratios):.4f} (expect 1.0)")
print(f"noise floor: {sc.noise_power_dbm:.0f} dBm = {dbm_to_watts(sc.noise_power_dbm):.2e} W")
