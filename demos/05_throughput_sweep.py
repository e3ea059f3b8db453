#!/usr/bin/env python3
"""Credit-sweep throughput study: 32 emulated cards feeding one GbE uplink.

The DAQ client grants the server N frames per request. With Jumbo frames
the link saturates once six or more frames are allowed per request; with
the standard 1.5 KB MTU the per-frame request overhead keeps throughput
far below that. The analytic model
    throughput = credit * (mtu - 66) / max(credit * T_frame, rtt + T_frame)
tracks the simulation within 10% everywhere.

Writes sweep.csv in the working directory. Runs in a few seconds.
"""

from tdmlink.sim import SimConfig, run_scenario
from tdmlink.transport import throughput_model

rows = ["credit,mtu,MB_per_s,model_MB_per_s,events,incomplete,gaps"]
for mtu in (8192, 1500):
    print(f"=== MTU {mtu} ===")
    for credit in range(1, 9):
        cfg = SimConfig(
            num_frontends=32, seed=1, abstraction="message_level",
            trigger_mode="gated", trigger_count=10**9,
            channels_per_event=256, words_per_channel=128,
            credit=credit, mtu=mtu, run_ms=30.0, warmup_ms=6.0,
            buffering_depth=4, verify_provenance=False,
        )
        res = run_scenario(cfg)
        sim = res.metrics.throughput_MB_s
        model = throughput_model(credit, mtu)
        bar = "#" * int(sim / 2.5)
        print(f"credit {credit}: {sim:7.2f} MB/s (model {model:7.2f})  {bar}")
        rows.append(
            f"{credit},{mtu},{sim:.3f},{model:.3f},{res.metrics.client['events']},"
            f"{res.metrics.client['incomplete_events']},{res.metrics.client['gaps']}"
        )

with open("sweep.csv", "w") as out:
    out.write("\n".join(rows) + "\n")
print("\nwrote sweep.csv")
