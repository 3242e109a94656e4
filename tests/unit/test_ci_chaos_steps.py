"""Every chaos profile runs in CI: a fixed-seed batch in the
``chaos-smoke`` job and a rotating-seed batch in ``chaos-nightly``.

The workflow is read as text (no YAML parser is a test dependency):
each job's ``python -m repro.chaos`` command lines, with shell
continuations joined, are matched for their ``--profile`` and seed.
The default-profile batches (``--smoke``, ``--protocols all``) cover
``core``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.chaos.schedule import CORE_PROFILE, PROFILES

_WORKFLOW = Path(__file__).resolve().parents[2] / ".github/workflows/ci.yml"
_FIXED = "--seed 0"
_ROTATING = '--seed "${{ steps.seed.outputs.seed }}"'


def _chaos_commands(job: str) -> list[str]:
    """The chaos CLI command lines of one top-level job."""
    text = _WORKFLOW.read_text().replace("\\\n", " ")
    body = re.search(rf"^  {job}:\n(.*?)(?=^  \S|\Z)", text, re.M | re.S)
    assert body is not None, f"no job {job!r} in {_WORKFLOW.name}"
    return [
        " ".join(line.split())
        for line in body.group(1).splitlines()
        if "python -m repro.chaos" in line
    ]


def _profile_of(command: str) -> str:
    found = re.search(r"--profile (\S+)", command)
    return found.group(1) if found else CORE_PROFILE.name


@pytest.mark.parametrize(
    "job,seed",
    [("chaos-smoke", _FIXED), ("chaos-nightly", _ROTATING)],
    ids=["fixed-seed", "rotating-seed"],
)
def test_every_profile_has_a_chaos_step(job, seed):
    commands = [command for command in _chaos_commands(job) if seed in command]
    covered = {_profile_of(command) for command in commands}
    assert sorted(set(PROFILES) - covered) == [], commands
