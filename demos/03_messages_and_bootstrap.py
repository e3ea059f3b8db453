#!/usr/bin/env python3
"""Message formats and the cold-start ID assignment.

A fanout link cannot address cards individually before they have IDs, so
bootstrap runs over broadcast: read every card's hardwired 53-bit serial
(each answers on its own return link), broadcast the serial-to-port map,
then verify with targeted reads.
"""

from tdmlink import backend as be
from tdmlink import frontend as fe
from tdmlink import messages as m
from tdmlink.bits import bits_to_hex, bits_to_str
from tdmlink.sim import make_serials

print("=== Frames on the three channels ===")
trigger = m.ChannelAMessageDown(sampling_stop=True, event_type=2)
print(f"A trigger frame ({m.CHANNEL_A_FRAME_BITS} bits): {bits_to_str(trigger.encode())}")

txn = m.ChannelBTransaction(write=True, target_id=5, address=0x0010, data=0xDEADBEEF)
frame = txn.encode()
print(f"B write frame  ({m.CHANNEL_B_FRAME_BITS} bits): {bits_to_hex(frame)}0 (hex, padded)")

req = m.ChannelCRequest(target_mask=0xFFFFFFFF)
print(f"C request      ({m.CHANNEL_C_REQUEST_BITS} bits): one frame triggers all 32 cards")

pkt = m.FragmentPacket.build(
    soe=True, eoe=True,
    payload_words=m.event_header_bytes(event_number=7, timestamp=123456),
)
print(f"fragment packet: {pkt.serialize().hex()}  (SOE+EOE, event 7, CRC-32)")

print("\n=== Bootstrap: 8 cards, random serials ===")
serials = make_serials(42, 8)
cards = {port: fe.FrontEndCard(serials[port]) for port in range(8)}

exchange = be.untimed_exchange(cards)
result = be.bootstrap_sequence(exchange, sorted(cards))
print(f"verified: {result.verified}, absent ports: {result.absent_ports}")
for port in sorted(cards):
    print(f"  port {port}: serial {cards[port].serial_number:014x} -> ID {cards[port].assigned_id}")

print("\n=== Register bus after bootstrap ===")


def targeted_read(port, address):
    # The response must arrive on the addressed card's own return link.
    return exchange(m.ChannelBTransaction(read=True, target_id=port, address=address)).get(port)


resp = targeted_read(3, fe.REG_ASSIGNED_ID)
print(f"targeted read of card 3's ID register -> {resp.data}")
w = m.ChannelBTransaction(write=True, target_id=3, address=0x0100, data=0xCAFE0003)
exchange(w)
print(f"scratch write/read on card 3 -> {targeted_read(3, 0x0100).data:#010x}")
