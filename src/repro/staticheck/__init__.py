"""protolint: AST-based checks for this repo's protocol invariants.

The repo's load-bearing guarantees — seed => byte-identical traces,
protocol state changed only where it is persisted, asyncio hygiene, and
honest chaos-gate coverage — are invariants of the *source*, not of any
one test input.  This package checks them statically, at diff time,
with repo-specific AST rules (see docs/static-analysis.md for the
catalogue).  Wire-format facts are checked where the bytes are made:
``repro.transport.codec`` refuses to import over an incomplete message
catalogue.

Run it as ``python -m repro.staticheck [--json|--github] [paths]``.
Suppress a finding with a justified pragma on the flagged line::

    t0 = time.perf_counter()  # staticheck: allow(determinism.wall-clock) -- wall diagnostics only

Unjustified or unused pragmas are themselves violations.
"""

from repro.staticheck.base import (  # noqa: F401
    Project,
    Violation,
    all_rules,
    run_paths,
)

# Importing the rule modules registers their rules.
from repro.staticheck import asynchygiene  # noqa: F401
from repro.staticheck import counters_rule  # noqa: F401
from repro.staticheck import determinism  # noqa: F401
from repro.staticheck import writeahead  # noqa: F401
