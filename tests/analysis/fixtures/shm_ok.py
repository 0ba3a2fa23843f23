"""Fixture: sanctioned shm patterns the shm-payload family must not flag.

Analyzed by path only — never imported.
"""


def ships_by_name(codec, rsk):
    # The sanctioned transport: an ArenaRef name, not bytes.
    return codec.ship(rsk, "rsk-root", kind="rsk")


def pickles_plain_values(payload):
    # Pickling untainted values is the normal frame path.
    return pickle.dumps(payload)  # noqa: F821


def frames_plain_payloads(payloads):
    # The frame codec pickles internally but takes plain payloads.
    return FrameCodec.encode_body(payloads)  # noqa: F821


def reads_column_by_name(arena_name, column):
    return ShmArena.read_column_bytes(arena_name, column)  # noqa: F821


def attaches_without_pickling(name):
    arena = ShmArena.attach(name)  # noqa: F821
    try:
        return arena.get_bytes("col")
    finally:
        arena.close()


class ShmArena:
    """The one class allowed to construct segments (name-exempted)."""

    @staticmethod
    def _open(name, create, size=0):
        from multiprocessing import shared_memory

        return shared_memory.SharedMemory(name=name, create=create, size=size)

    def reopen(self, name):
        return SharedMemory(name=name)  # noqa: F821
