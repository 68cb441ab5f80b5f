"""Property tests over the popularity model's parameter space."""

from hypothesis import given, settings
from hypothesis import strategies as st

from d2d_cachescale import tail_inverse, tail_mass, zipf_pmf
from d2d_cachescale.popularity import CHUNK_RANKS
from test_popularity import assert_matches_dense

taus = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(L=st.integers(min_value=1, max_value=3 * CHUNK_RANKS), tau=taus)
def test_chunked_build_bit_identical_to_dense(L, tau):
    assert_matches_dense(L, tau)


@settings(max_examples=300, deadline=None)
@given(L=st.integers(min_value=1, max_value=20000), tau=taus,
       frac=st.floats(min_value=0.0, max_value=1.0))
def test_tail_inverse_undoes_tail_mass(L, tau, frac):
    pop = zipf_pmf(L, tau)
    x = 1.0 + frac * L
    assert abs(tail_inverse(pop, tail_mass(pop, x)) - x) <= 1e-9 * L
