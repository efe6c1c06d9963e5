"""The numpy distance transform against scipy's, which stays the reference in the tests.

``_distance_to_cells(cells, h)`` must equal
``scipy.ndimage.distance_transform_edt(~cells, sampling=h)`` bit for bit, and
``_feature_transform`` must pick scipy's feature for every cell: a one-ulp change
of a distance splits rearrangement atoms and moves suite rows.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage

from symineq.isoperimetry import _distance_to_cells, _feature_transform, disk_mask

MAX_SIDE = {1: 64, 2: 24, 3: 10, 4: 6}
SPACINGS = st.sampled_from([1 / 48, 1 / 40, 3 / 100, 0.1, 1 / 3, 0.7]) | st.integers(-8, 40).map(lambda k: 2.0**-k)


def _cells(rank, side, at):
    cells = np.zeros((side,) * rank, dtype=bool)
    for index in at:
        cells[index] = True
    return cells


def assert_matches_scipy(cells, h):
    with np.errstate(over="ignore"):  # both sides square the offsets in numpy
        want, want_ft = ndimage.distance_transform_edt(~cells, sampling=h, return_indices=True)
        got = _distance_to_cells(cells, h)
    got_ft = _feature_transform(cells, h)
    assert got_ft.dtype == want_ft.dtype and np.array_equal(got_ft, want_ft)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(
    st.integers(1, 4).flatmap(
        lambda rank: arrays(bool, array_shapes(min_dims=rank, max_dims=rank, max_side=MAX_SIDE[rank]))
    ),
    SPACINGS,
)
@example(_cells(2, 9, [(4, 4)]), 1 / 48)  # one cell
@example(_cells(2, 9, [(0, 0)]), 3 / 100)  # one cell in a corner
@example(np.ones((7, 5, 3), dtype=bool), 1 / 40)  # every cell is a feature
@example(np.pad(np.zeros((4, 4, 4), dtype=bool), 1, constant_values=True), 3 / 100)  # the domain faces
@example(_cells(2, 12, [(3, 0), (9, 0)]), 1 / 48)  # features in one column: the other lines have none
@example(_cells(3, 8, [(2, 5, 1)]), 1 / 40)  # whole planes without a feature
# the stack test's terms in another order keep a different feature here
@example(np.isin(np.arange(90).reshape(3, 6, 5), [31, 45, 53]), 3 / 100)
@example(_cells(2, 8, [(1, 2), (6, 5)]), 2.0**-540)  # squared offsets underflow and tie on axis 0
@example(_cells(2, 8, [(1, 2), (6, 5)]), 1e160)  # squared offsets overflow to inf
@settings(max_examples=300, deadline=None)
def test_equals_scipy_bit_for_bit(cells, h):
    assume(cells.any())
    assert_matches_scipy(cells, h)


@pytest.mark.parametrize(
    "extents, h",
    [((48, 48), 1 / 48), ((64, 64), 1 / 64), ((256, 256), 1 / 256), ((40, 40, 40), 1 / 40), ((64, 64, 64), 1 / 64)],
)
def test_disk_masks_of_the_corpus_equal_scipy(extents, h):
    center = (0.5,) * len(extents)
    assert_matches_scipy(disk_mask(extents, h, center, 0.25), h)

