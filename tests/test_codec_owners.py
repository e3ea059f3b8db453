"""The fragment packet codec stays with its owners: `FragmentPacket` is the
codec of the tests and the golden vectors, so no module of `src/tdmlink`
other than `messages` (which defines it) and `vectors` (which checks the
shipped vectors with it) names it. The engines, cards and builder handle
packets as bytes through the `messages` functions, the SOE event header's
writer `event_header_bytes` among them."""

import ast
from pathlib import Path

import tdmlink

SOURCES = sorted(Path(tdmlink.__file__).parent.glob("*.py"))
OWNERS = {"messages", "vectors"}


def named_at(tree: ast.Module, name: str):
    """Line of each place in `tree` that imports, reads or names `name` as
    an attribute."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and node.name == name
        ):
            yield node.lineno


def test_only_its_owners_name_the_fragment_packet_codec():
    found = [
        f"{path.stem}:{line}"
        for path in SOURCES
        if path.stem not in OWNERS
        for line in named_at(ast.parse(path.read_text(), str(path)), "FragmentPacket")
    ]
    assert found == []


def test_guard_sees_an_import_and_an_attribute():
    tree = ast.parse("from .messages import FragmentPacket\n\nx = msg.FragmentPacket.build\n")
    assert len(list(named_at(tree, "FragmentPacket"))) == 2
