"""Tests for the packet format: tags, wire encoding, sizes."""

import dataclasses

import pytest

from repro.core.packet import (
    DUMBNET_MTU,
    END_OF_PATH,
    ETHERNET_HEADER_BYTES,
    ETHERTYPE_DUMBNET,
    ETHERTYPE_NOTIFY,
    ID_QUERY,
    MAX_PORT_TAG,
    Packet,
    PacketFormatError,
    PathTags,
    decode_tags,
    encode_tags,
)


class TestWireEncoding:
    def test_roundtrip(self):
        for ports in ([], [1], [2, 3, 5], [0, 7, 254]):
            assert decode_tags(encode_tags(ports)) == ports

    def test_terminator_appended(self):
        raw = encode_tags([2, 3])
        assert raw[-1] == END_OF_PATH
        assert len(raw) == 3

    def test_reject_tag_out_of_range(self):
        with pytest.raises(PacketFormatError):
            encode_tags([255])
        with pytest.raises(PacketFormatError):
            encode_tags([-1])

    def test_decode_requires_terminator(self):
        with pytest.raises(PacketFormatError):
            decode_tags(bytes([1, 2]))
        with pytest.raises(PacketFormatError):
            decode_tags(b"")

    def test_decode_rejects_embedded_terminator(self):
        with pytest.raises(PacketFormatError):
            decode_tags(bytes([1, END_OF_PATH, 2, END_OF_PATH]))


class TestPathTags:
    def test_pop_sequence(self):
        tags = PathTags([2, 3, 5])
        assert not tags.at_end
        assert tags.peek() == 2
        assert tags.pop() == 2
        assert tags.pop() == 3
        assert tags.pop() == 5
        assert tags.at_end

    def test_pop_past_end_raises(self):
        tags = PathTags([1])
        tags.pop()
        with pytest.raises(PacketFormatError):
            tags.pop()
        with pytest.raises(PacketFormatError):
            tags.peek()

    def test_remaining_and_original(self):
        tags = PathTags([4, 5, 6])
        tags.pop()
        assert tags.remaining == (5, 6)
        assert tags.original == (4, 5, 6)

    def test_wire_bytes_shrink_per_hop(self):
        tags = PathTags([1, 2, 3])
        assert tags.wire_bytes == 4  # 3 tags + terminator
        tags.pop()
        assert tags.wire_bytes == 3

    def test_wire_roundtrip(self):
        tags = PathTags([1, 2, 3])
        tags.pop()
        clone = PathTags.from_wire(tags.to_wire())
        assert clone.remaining == (2, 3)

    def test_copy_independent_cursor(self):
        tags = PathTags([1, 2])
        clone = tags.copy()
        tags.pop()
        assert clone.remaining == (1, 2)
        assert tags.remaining == (2,)

    def test_equality_on_remaining(self):
        a = PathTags([1, 2, 3])
        b = PathTags([9, 2, 3])
        a.pop()
        b.pop()
        assert a == b
        assert hash(a) == hash(b)

    def test_rejects_out_of_range(self):
        with pytest.raises(PacketFormatError):
            PathTags([300])

    def test_max_port_tag_boundary(self):
        PathTags([MAX_PORT_TAG])  # ok
        PathTags([ID_QUERY])  # 0 is valid (the query tag)


class TestPacket:
    def test_size_includes_tags(self):
        packet = Packet(src="a", tags=PathTags([1, 2, 3]), payload_bytes=100)
        assert packet.size_bytes == ETHERNET_HEADER_BYTES + 100 + 4
        packet.tags.pop()
        assert packet.size_bytes == ETHERNET_HEADER_BYTES + 100 + 3

    def test_size_without_tags(self):
        packet = Packet(src="a", ethertype=ETHERTYPE_NOTIFY, payload_bytes=20)
        assert packet.size_bytes == ETHERNET_HEADER_BYTES + 20 + 1

    def test_fork_copies_tag_cursor(self):
        packet = Packet(src="a", tags=PathTags([1, 2]))
        packet.tags.pop()
        clone = packet.fork()
        assert clone.tags.remaining == (2,)
        clone.tags.pop()
        assert packet.tags.remaining == (2,)

    def test_fork_gets_new_uid(self):
        packet = Packet(src="a")
        assert packet.fork().uid != packet.uid

    def test_fork_equals_source_but_for_uid(self):
        """Every field but ``uid`` is copied (none left at its default),
        the fork draws exactly the next uid, and its tags are equal but
        independent."""
        packet = Packet(
            src="a", dst="b", ethertype=ETHERTYPE_NOTIFY, tags=PathTags([4, 5, 6]),
            payload=("note", 3), payload_bytes=20, ttl=7, ecn_marked=True, priority=0,
        )
        packet.tags.pop()
        before = Packet(src="x").uid
        clone = packet.fork()
        assert clone.uid == before + 1
        assert Packet(src="y").uid == clone.uid + 1
        for spec in dataclasses.fields(Packet):
            if spec.name != "uid":
                assert getattr(packet, spec.name) != spec.default, spec.name
                assert getattr(clone, spec.name) == getattr(packet, spec.name), spec.name
        assert clone.payload is packet.payload
        assert clone.tags is not packet.tags
        assert clone.tags.original == packet.tags.original
        clone.tags.pop()
        assert packet.tags.remaining == (5, 6) and clone.tags.remaining == (6,)

    def test_mtu_constant(self):
        # The paper sets host MTU to 1450 to leave label room.
        assert DUMBNET_MTU == 1450

    def test_repr_is_stable(self):
        packet = Packet(src="a", dst="b", tags=PathTags([7]))
        text = repr(packet)
        assert "a" in text and "7" in text
