"""A count gate for the asyncio runtime's event-loop machinery.

``tcp_mixed`` runs on the real clock, so its wall number is noisy; what
the interpreter does per operation is not, nearly.  This test runs a
4-server :class:`~repro.runtime.asyncio_net.AsyncCluster` with one serial
client on localhost, warms up, then counts the ``sys.setprofile`` *call*
events (Python-level functions) per completed operation whose code lives
in the standard library's ``asyncio`` package or ``selectors`` module —
the loop, its handles, futures, transports and streams — over 2,000
operations alternating 4 KiB write/read.

The count is taken in a fresh interpreter (this file run as a script),
for the reason ``test_hot_path_budget.py`` gives.  Real sockets make it
vary a little from run to run (how many frames one read returns), which
the budget's margin absorbs.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import subprocess
import sys

import repro
from repro.runtime.asyncio_net import AsyncCluster

SERVERS = 4
VALUE = bytes(4096)
WARMUP_OPS = 200
MEASURED_OPS = 2000

#: asyncio/selectors calls per operation (CPython 3.11): 471 (470.4-471.7
#: over three runs) with StreamReader/StreamWriter, a reader task per
#: connection, reply tasks and an Event-woken ring sender; 202
#: (199.9-203.3 over five runs) with one protocol-callback connection
#: class and one ring flush per loop turn.  The budget is that count
#: plus 15 %.
CALLS_PER_OP_BUDGET = 232

_LIBRARY = (os.path.dirname(asyncio.__file__) + os.sep, selectors.__file__)
_REPRO = os.path.dirname(repro.__file__) + os.sep


async def _measure_here() -> tuple[float, float]:
    """(asyncio/selectors calls, repro calls) per measured operation."""
    cluster = AsyncCluster(SERVERS)
    await cluster.start()
    client = cluster.client(home_server=0)

    async def ops(count: int) -> None:
        for index in range(count):
            if index % 2:
                await client.read()
            else:
                await client.write(VALUE)

    await ops(WARMUP_OPS)
    library, ours = [0], [0]

    def profiler(frame, event, arg) -> None:
        if event == "call":
            path = frame.f_code.co_filename
            if path.startswith(_LIBRARY):
                library[0] += 1
            elif path.startswith(_REPRO):
                ours[0] += 1

    sys.setprofile(profiler)
    try:
        await ops(MEASURED_OPS)
    finally:
        sys.setprofile(None)
    await client.close()
    await cluster.stop()
    return library[0] / MEASURED_OPS, ours[0] / MEASURED_OPS


def _measure() -> tuple[float, float]:
    """:func:`_measure_here` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, __file__],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return tuple(json.loads(done.stdout))


def test_asyncio_machinery_per_op_stays_within_its_budget():
    library, ours = _measure()
    assert library <= CALLS_PER_OP_BUDGET, (
        f"{library:.0f} asyncio/selectors calls per op (budget "
        f"{CALLS_PER_OP_BUDGET}; repro code made {ours:.0f}): something "
        "put a task, a future or a stream back on the per-frame path"
    )


if __name__ == "__main__":
    print(json.dumps(asyncio.run(_measure_here())))
