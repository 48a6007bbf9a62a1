"""Peak memory of the verification suite against its largest fixture."""

import tracemalloc

from qlct2d import verify


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_verify_peak_is_its_largest_fixture_build():
    # each claim section frees its grids before the next one builds
    # its own, so a full run peaks at the Example 1 fixture build (four
    # 513^2 component arrays and the field); holding two sections'
    # grids at once reads about 2x
    fixture = _traced_peak(lambda: verify.example1_numerator(513))
    run = _traced_peak(verify.run_verify)
    assert run <= 1.25 * fixture, (run, fixture)
