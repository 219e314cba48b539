"""Raw-socket helpers shared by the service tests."""

import socket


def transcript(server, *segments):
    """Every byte ``server`` answers to ``segments``, up to its close.

    Each segment but the last is a separate write that is answered
    before the next is sent; after the last, the write side is shut so
    the server closes once it has answered what it owes.
    """
    received = bytearray()
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        for segment in segments[:-1]:
            sock.sendall(segment)
            # Answered, so read: the next segment is a later read.
            received += sock.recv(1 << 16)
        sock.sendall(segments[-1])
        sock.shutdown(socket.SHUT_WR)
        while data := sock.recv(1 << 16):
            received += data
    return bytes(received)
