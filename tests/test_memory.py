"""Traced memory bounds: one copy of each rearrangement per function, and kernels with bounded temporaries."""

import tracemalloc

import pytest

import symineq as sq
from symineq.gradient import PreparedFunction
from symineq.measure import BLOCK_CELLS
from symineq.suite import DEFAULT_INEQUALITIES, SuiteConfig

# the 14 entries a suite runs on each function: all but the corpus-free sweep and the pair check
PER_FUNCTION = SuiteConfig(inequalities=tuple(e for e in DEFAULT_INEQUALITIES if e["id"] not in ("binomial_bounds", "oneil")))


def traced_peak(call) -> int:
    """The traced peak, in bytes, of the allocations ``call()`` makes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("function_id, bound", [("smoothed_noise_00", 68), ("mollified_disk_00", 22)])
def test_one_function_through_its_entries(default_corpus, function_id, bound):
    """Bytes per grid cell at the traced peak of one 256^2 function's 14 entries, as the suite runs them.

    The first pass warms the scalar sweep and the t-grid caches, which every
    function shares.  With stored run-length masses, a cached gradient
    modulus and cached powers the peaks were 100.2 and 33.1 B per cell.
    """
    f = dict(default_corpus)[function_id]
    sq.run_suite(PER_FUNCTION, [(function_id, f)])
    peak = traced_peak(lambda: sq.run_suite(PER_FUNCTION, [(function_id, f)]))
    assert peak <= bound * f.values.size, peak / f.values.size


def test_the_chain_rule_holds_two_box_arrays_and_a_few_slabs(default_corpus, cone512):
    """|grad f^r| and |grad f| are the check's box arrays; f^r, the stencil maximum and the ratios go slab by slab.

    A slab has about ``BLOCK_CELLS`` cells, so on the 512^2 grid the check
    stays under 2.5 box arrays; whole-box, it peaked at 5.
    """
    sq.check_chain_rule(cone512, r=2.0)  # the scalar sweep is computed once per r
    for f in (dict(default_corpus)["smoothed_noise_00"], dict(default_corpus)["mollified_disk_00"], cone512):
        pf = PreparedFunction(f)  # |grad f| is built inside the check
        box_array = 8 * f.values[pf.box].size
        peak = traced_peak(lambda: sq.check_chain_rule(pf, r=2.0))
        assert peak <= 2 * box_array + 3 * 8 * BLOCK_CELLS, (peak - 2 * box_array) / (8 * BLOCK_CELLS)
    assert peak <= 2.5 * box_array, peak / box_array


def test_oneil_on_two_full_box_functions(default_corpus):
    """Two prepared 256^2 noise functions, the first profile built: the product is sorted before g's profile is.

    So at most one factor profile is held with the product's build, and the
    right side is read a block of breakpoints at a time.  With both factor
    profiles built first the peak was 69.7 B per cell.
    """
    corpus = dict(default_corpus)
    pf, pg = PreparedFunction(corpus["smoothed_noise_00"]), PreparedFunction(corpus["smoothed_noise_01"])
    pf.profile()
    pf.keep_profile_only()
    cells = pf.grid.values.size
    peak = traced_peak(lambda: sq.check_oneil(pf, pg))
    assert peak <= 40 * cells, peak / cells
