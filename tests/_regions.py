"""The property that convexity.cut's unchecked regions rest on, shared by
the cut and CLI tests."""

import math

from pfms import CutRegion


def assert_canonical(region):
    """Every endpoint of ``region`` is a finite float, every piece is in
    order and starts past the previous piece's end, so CutRegion's checked
    constructor keeps every bit of it, -0.0 included."""
    flat = [x for piece in region.intervals for x in piece]
    assert all(type(x) is float and math.isfinite(x) for x in flat)
    assert all(a <= b for a, b in zip(flat[0::2], flat[1::2]))
    assert all(end < start for end, start in zip(flat[1::2], flat[2::2]))
    checked = CutRegion(region.intervals)
    assert checked == region
    assert [x.hex() for piece in checked.intervals for x in piece] == [x.hex() for x in flat]
