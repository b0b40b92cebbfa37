"""``request_stop``: callback-driven run termination.

The fast alternative to a ``stop_when`` predicate — the component that
satisfies the condition calls ``engine.request_stop()`` from inside its
own callback, and the run returns once that callback does.  Events not
yet fired (including later same-cycle siblings) must survive, in order,
for a subsequent run.
"""

from repro.engine import Engine


def test_request_stop_halts_after_current_callback():
    engine = Engine()
    fired = []

    def stopper():
        fired.append("stopper")
        engine.request_stop()

    engine.schedule(5, stopper)
    engine.schedule(10, fired.append, "later")
    engine.run()
    assert fired == ["stopper"]
    assert engine.now == 5
    assert engine.pending == 1


def test_same_cycle_siblings_survive_and_fire_fifo_on_resume():
    engine = Engine()
    fired = []

    def stopper():
        fired.append("stopper")
        engine.request_stop()

    engine.schedule(5, fired.append, "before")
    engine.schedule(5, stopper)
    engine.schedule(5, fired.append, "after-1")
    engine.schedule(5, fired.append, "after-2")
    engine.run()
    assert fired == ["before", "stopper"]
    assert engine.now == 5

    # The un-fired same-cycle tail runs in seq order on the next run.
    engine.run()
    assert fired == ["before", "stopper", "after-1", "after-2"]
    assert engine.now == 5


def test_run_clears_a_prior_stop_request_at_entry():
    engine = Engine()
    engine.schedule(1, engine.request_stop)
    engine.schedule(2, lambda: None)
    engine.run()
    assert engine.now == 1
    # The stale flag must not abort the fresh run before its first event.
    engine.schedule(3, lambda: None)  # fires at absolute time 1 + 3 = 4
    engine.run()
    assert engine.now == 4
    assert engine.pending == 0


def test_stop_interacts_with_later_scheduling_from_resumed_run():
    """Events scheduled after a stop land behind the surviving tail."""
    engine = Engine()
    fired = []

    def stopper():
        fired.append("stopper")
        engine.request_stop()

    engine.schedule(4, stopper)
    engine.schedule(4, fired.append, "tail")
    engine.run()
    engine.schedule_at(4, fired.append, "new-same-cycle")
    engine.run()
    assert fired == ["stopper", "tail", "new-same-cycle"]
