"""The L4's tags-in-SRAM directory: which stack frame each line holds."""

from repro.stack3d.modes import SramTagStore

LINE = 64


def test_frames_are_first_fill_first_within_a_set_then_recycled():
    """Set ``s`` of an ``assoc``-way store owns frames ``s * assoc`` up to
    ``s * assoc + assoc - 1``: its fills take them in order, and once the
    set is full a fill takes its LRU victim's frame."""
    tags = SramTagStore(4 * 2 * LINE, assoc=2, line_size=LINE)  # 4 sets
    # Lines 1, 5, 9 (in line units) map to set 1; line 3 to set 3.
    assert tags.fill(1 * LINE) == (2 * LINE, None)
    assert tags.fill(3 * LINE) == (6 * LINE, None)
    assert tags.fill(5 * LINE, dirty=True) == (3 * LINE, None)
    assert tags.fill(1 * LINE) == (2 * LINE, None)  # refill: same frame
    assert tags.lookup(5 * LINE) == 3 * LINE  # line 1 is now LRU
    assert tags.fill(9 * LINE) == (2 * LINE, (1 * LINE, False, 2 * LINE))
    assert tags.fill(13 * LINE) == (3 * LINE, (5 * LINE, True, 3 * LINE))
    assert tags.lookup(1 * LINE) is None
    assert tags.lookup(3 * LINE) == 6 * LINE
    assert tags.resident_lines == 3
    assert not hasattr(tags, "_set_fill")

