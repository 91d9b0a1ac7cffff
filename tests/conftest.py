import pytest

from affinekit import adjunction


@pytest.fixture(autouse=True)
def empty_adjunction_caches():
    """Every test starts with empty adjunction caches and rel_closure, so a
    test that patches a seam (adjunction._compose, say) never reads an entry
    that an earlier test computed, whatever the test order."""
    for cached in (adjunction._source_side, adjunction._target_side, adjunction.rel_closure):
        cached.cache_clear()
