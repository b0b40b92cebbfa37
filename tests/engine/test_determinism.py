"""Firing order of the event engine, checked against a stated oracle.

A randomized self-extending schedule exercises every scheduling pattern
the machine model uses — short delays, zero delays (same-cycle
continuation), bursts on one cycle, cancellation of pending handles and
far-future (refresh-scale) delays — and the fired transcript must obey:

* the fired ``(time, seq)`` pairs strictly increase: global time order,
  FIFO (scheduling order) within a cycle;
* no cancelled handle ever fires;
* every live event (one not cancelled while still queued) fires exactly
  once;
* ``events_fired`` equals the number of callbacks that ran.

Each schedule is drained three ways — one ``run()``, ``run(until=...)``
chunks (the snapshot cadence, where a bound leaves the next event
queued), and ``step()`` — and all three must give the same transcript.
"""

import random

import pytest

from repro.engine import Engine


def _drive(seed, driver, events=3_000):
    """Run one randomized schedule.

    Returns ``(transcript, handles, killed, engine)``: ``killed`` holds
    the tags cancelled while still queued (``Engine.cancel`` takes only
    a queued handle, so a victim that already fired is left alone and
    counts as live).
    """
    engine = Engine()
    rng = random.Random(seed)
    transcript = []  # (now, seq, tag, cancelled-at-fire) per callback
    handles = {}
    pending = []  # tags kept around for later cancellation
    fired = set()
    killed = set()

    def schedule(delay):
        tag = len(handles)
        handles[tag] = engine.schedule(delay, tick, tag)
        return tag

    def tick(tag):
        transcript.append((engine.now, handles[tag], tag, tag in killed))
        fired.add(tag)
        if len(handles) >= events:
            return
        roll = rng.random()
        if roll < 0.40:  # short delay
            schedule(rng.randrange(1, 60))
        elif roll < 0.55:  # same-cycle burst: FIFO within one cycle
            for _ in range(rng.randrange(2, 5)):
                schedule(0)
        elif roll < 0.70:  # keep a handle around for later cancellation
            pending.append(schedule(rng.randrange(1, 300)))
            schedule(1)
        elif roll < 0.85 and pending:  # cancel one pending event
            victim = pending.pop(rng.randrange(len(pending)))
            if victim not in fired:
                killed.add(victim)
                engine.cancel(handles[victim])
            schedule(2)
        else:  # far future, refresh-scale
            schedule(rng.randrange(600, 20_000))

    schedule(0)
    if driver == "run":
        engine.run()
    elif driver == "chunked":
        chunks = random.Random(seed + 1)
        while engine.pending:
            engine.run(until=engine.now + chunks.randrange(1, 700))
    else:
        while engine.step():
            pass
    return transcript, handles, killed, engine


@pytest.mark.parametrize("driver", ["run", "chunked", "step"])
@pytest.mark.parametrize("seed", [11, 1234, 987654])
def test_random_schedules_obey_the_oracle(seed, driver):
    transcript, handles, killed, engine = _drive(seed, driver)
    keys = [(now, seq) for now, seq, _, _ in transcript]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert not any(cancelled for *_, cancelled in transcript)
    fired = [tag for _, _, tag, _ in transcript]
    live = [tag for tag in handles if tag not in killed]
    assert sorted(fired) == live
    assert engine.events_fired == len(transcript)
    assert engine.pending == 0
    # The schedule really exercised cancellation and same-cycle ties.
    assert killed
    assert len({now for now, _ in keys}) < len(keys)


@pytest.mark.parametrize("seed", [11, 1234, 987654])
def test_every_driver_fires_the_same_transcript(seed):
    transcripts = [_drive(seed, driver)[0] for driver in ("run", "chunked", "step")]
    assert transcripts[0] == transcripts[1] == transcripts[2]


def test_far_future_refresh_interleaves_with_short_delays():
    """Refresh-style periodic far events interleave exactly by (time, seq)."""
    engine = Engine()
    fired = []

    def refresh(n):
        fired.append(("refresh", engine.now))
        if n:
            engine.schedule(1_000, refresh, n - 1)

    def work(n):
        fired.append(("work", engine.now))
        if n:
            engine.schedule(37, work, n - 1)

    engine.schedule(1_000, refresh, 5)
    engine.schedule(1, work, 150)
    engine.run()
    expected_times = sorted(t for _, t in fired)
    assert [t for _, t in fired] == expected_times
    assert fired.count(("refresh", 1_000)) == 1
    assert len([1 for kind, _ in fired if kind == "refresh"]) == 6
