"""Chaos gate coverage for ring-frame batching.

The batching knob defaults on, so the chaos-checked path *is* the
batched path.  These tests pin that down: core- and scale-profile runs
pass their gates with batching enabled and demonstrably exercise the
batched wire path (``reliable.batched_frames`` in the trace), a
schedule at ``batch_max_messages=1`` really degenerates to one-message
frames, and batching on/off leaves the gate verdict unchanged on the
same schedules.
"""

import dataclasses

from repro.chaos import CORE_PROFILE, SCALE_PROFILE, generate_schedule, run_schedule


def _unbatched(schedule):
    return dataclasses.replace(
        schedule, config=dataclasses.replace(schedule.config, batch_max_messages=1)
    )


def test_core_profile_gates_green_with_batching_enabled():
    """A handful of core schedules at the default (batched) config: all
    pass, and at least one run proves multi-segment frames went over
    the wire."""
    batched_frames = 0
    for index in range(4):
        schedule = generate_schedule(0, index, 4, CORE_PROFILE)
        assert schedule.config.batch_max_messages > 1, (
            "chaos schedules must inherit the batching default — "
            "otherwise the gated path is not the benchmarked path"
        )
        result = run_schedule(schedule, "core")
        assert result.ok, result.describe()
        batched_frames += result.batched_frames
        assert result.batched_messages >= result.batched_frames * 2
    assert batched_frames > 0, "no run ever coalesced a frame"


def test_scale_profile_gates_green_with_batching_enabled():
    """A shrunken scale run (sharded block store) under the default
    batched config: per-block tagged gate green, batched frames seen."""
    base = generate_schedule(0, 0, 4, SCALE_PROFILE)
    small = dataclasses.replace(base, writers=4, readers=6, ops_per_client=12)
    assert small.config.batch_max_messages > 1
    result = run_schedule(small, "sharded")
    assert result.ok, result.describe()
    assert result.tag_coverage == 1.0
    assert result.batched_frames > 0, "sharded ring never coalesced a frame"


def test_gate_verdict_is_batching_invariant():
    """The same schedule passes with and without batching — batching is
    a framing optimisation, not a behaviour change the gate can see."""
    schedule = generate_schedule(3, 1, 4, CORE_PROFILE)
    batched = run_schedule(schedule, "core")
    unbatched = run_schedule(_unbatched(schedule), "core")
    assert batched.ok, batched.describe()
    assert unbatched.ok, unbatched.describe()
    assert unbatched.batched_frames == 0


def test_no_batch_flag_disables_the_batched_path():
    schedule = _unbatched(generate_schedule(0, 0, 4, CORE_PROFILE))
    result = run_schedule(schedule, "core")
    assert result.ok, result.describe()
    assert result.batched_frames == 0
    assert result.batched_messages == 0

