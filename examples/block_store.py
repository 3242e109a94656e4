#!/usr/bin/env python3
"""A multi-register block store — the "distributed storage system" layer.

The paper's introduction: "Distributed storage systems combine multiple
of these read/write objects, each storing its share of data, as building
blocks for a single large storage system."  This example builds a
16-block store over four servers (one independent atomic register per
block, multiplexed over the same machines and NICs), writes a small
"file" across blocks, crashes a server, and reads the file back intact.

Run:  python examples/block_store.py
"""

from repro.core.config import ProtocolConfig
from repro.runtime.sharded import BlockStore

BLOCK_SIZE = 512


def main() -> None:
    store = BlockStore.build(
        num_servers=4,
        num_blocks=16,
        seed=11,
        protocol=ProtocolConfig(client_timeout=0.1, client_max_retries=20),
    )

    document = (
        b"A high-throughput atomic storage keeps reads local and pushes "
        b"writes around a ring twice: once to warn every server "
        b"(pre-write), once to commit. " * 8
    )
    blocks = [document[i : i + BLOCK_SIZE] for i in range(0, len(document), BLOCK_SIZE)]
    print(f"storing a {len(document)}-byte document across {len(blocks)} blocks")
    for index, chunk in enumerate(blocks):
        store.write_block(index, chunk)

    print("crashing server 1 mid-life...")
    store.cluster.crash_server(1)
    store.cluster.run(until=store.cluster.now + 0.2)

    recovered = b"".join(store.read_block(i) for i in range(len(blocks)))
    assert recovered == document, "document must survive the crash"
    print(f"document intact after the crash ({len(recovered)} bytes).")
    print(f"alive servers: {store.cluster.alive_servers()}")

    store.write_block(0, b"updated first block".ljust(BLOCK_SIZE, b"."))
    print(f"block 0 after update: {store.read_block(0)[:19]!r}...")


if __name__ == "__main__":
    main()
