"""What a card does with a channel A or C frame, and what the back-end does
with a packet, does not depend on how the links are built: only `system`
hands a frame to a card (`on_channel_a`, `on_channel_c`) or a packet to a
pump (`on_packet`). The engines supply when a frame lands and pass it on
through `System`."""

import ast
from pathlib import Path

import tdmlink

SOURCES = sorted(Path(tdmlink.__file__).parent.glob("*.py"))
HANDOFFS = {"on_channel_a", "on_channel_c", "on_packet"}


def handoffs_at(tree: ast.AST):
    """(line, name) of each call in `tree` to a method named in HANDOFFS."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in HANDOFFS:
            yield node.lineno, node.func.attr


def test_only_system_hands_frames_to_cards_and_packets_to_pumps():
    found = [
        f"{path.stem}:{line} {name}"
        for path in SOURCES
        if path.stem != "system"
        for line, name in handoffs_at(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_guard_sees_each_handoff():
    tree = ast.parse("card.on_channel_a(msg, tick)\nself.cards[p].on_channel_c(req)\npumps[p].on_packet(data)\n")
    assert [name for _, name in handoffs_at(tree)] == ["on_channel_a", "on_channel_c", "on_packet"]
