"""The counter fill pattern word by word: the tests' reference for
`frontend.generator_bytes`."""


def generator_word(port_id: int, channel: int, k: int) -> int:
    """Word k of the counter fill pattern of a card's channel."""
    return ((port_id << 11) ^ (channel << 2) ^ k) & 0xFFFF
