#!/usr/bin/env python3
"""Line coding walkthrough: virtual channels, the idle pattern, receiver lock.

Three virtual channels share each serial link through fixed TDM slots.
Downstream the cycle is A,B,A,C; channel B is inverted and the result is
Manchester coded, so an idle transmitter emits the constant pattern
01100101 that receivers use to find bit, phase and channel alignment.
"""

import numpy as np

from tdmlink import wire
from tdmlink.bits import bits_to_str

print("=== TDM interleaving ===")
a, b, c = [1, 0], [1], [0]
line = wire.tdm_interleave(wire.DOWNSTREAM_SCHEDULE, a, b, c)
print(f"A={a} B={b} C={c}  ->  line {bits_to_str(line)}   (slots A,B,A,C)")

print("\n=== Idle pattern ===")
idle = wire.downstream_tx([0, 0], [0], [0])
print(f"all channels idle -> B inversion marks slot 1 -> Manchester: {bits_to_str(idle)}")

print("\n=== Phase ambiguity ===")
stream = wire.downstream_idle_symbols(6)
print(f"sampling phase 0 reads: {bits_to_str(wire.manchester_decode(stream[:16], 0))}  (the idle cycle 0100)")
print(f"sampling phase 1 reads: {bits_to_str(wire.manchester_decode(stream[:16], 1))}  (inverted: 1011, rejected)")
print(f"bit_slip_sync picks:    {wire.bit_slip_sync(stream, lock_threshold=4).half_bit_phase}")

print("\n=== Bit-slip lock from every starting offset ===")
for k in range(8):
    state = wire.bit_slip_sync(wire.downstream_idle_symbols(12)[k:], lock_threshold=4)
    print(f"start offset {k}: locked={state.locked} "
          f"bit_slip_offset={state.bit_slip_offset} phase={state.half_bit_phase}")

print("\n=== Full chain round trip on random traffic ===")
rng = np.random.default_rng(0)
cycles = 1000
a = rng.integers(0, 2, 2 * cycles, dtype=np.uint8)
b = rng.integers(0, 2, cycles, dtype=np.uint8)
c = rng.integers(0, 2, cycles, dtype=np.uint8)
a2, b2, c2 = wire.downstream_rx(wire.downstream_tx(a, b, c))
print(f"{cycles} cycles: identity on A/B/C = "
      f"{np.array_equal(a, a2) and np.array_equal(b, b2) and np.array_equal(c, c2)}")
