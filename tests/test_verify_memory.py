"""Peak memory of the verification suite and its fixture builders."""

import tracemalloc

import pytest

from qlct2d import verify


def _traced_peak(fn) -> tuple[int, object]:
    tracemalloc.start()
    try:
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_run_verify_peak_is_its_largest_fixture_build():
    # each section frees its grids once its claims' numbers are taken,
    # and each builder writes a component into its slice before it
    # computes the next, so a full run holds at most the 513^2 Example 1
    # field (8.4 MB) and one of its components (2.1 MB); evaluating all
    # four components before the copy reads about 2.1x the field
    nbytes = verify.example1_numerator(513).values.nbytes
    run, _ = _traced_peak(verify.run_verify)
    assert run <= 1.3 * nbytes, (run, nbytes)


@pytest.mark.parametrize("builder", [
    "example1_numerator", "example2_density", "gaussian_pdf",
    "gaussian_test_field", "bump_field", "uniform_pdf", "correlated_pdf",
    "anticorrelated_pdf", "constant_x1_pdf", "structured_pair",
    "generic_pair"])
def test_fixture_builder_holds_one_component_temporary(builder):
    # at 513^2 one component is a quarter of its field; the pairs hold
    # the first field while they build the second
    peak, out = _traced_peak(lambda: getattr(verify, builder)(513))
    fields = out if isinstance(out, tuple) else (out,)
    nbytes = sum(f.values.nbytes for f in fields)
    assert peak <= nbytes + 0.3 * fields[0].values.nbytes, (peak, nbytes)
