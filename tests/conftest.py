import hypothesis
import pytest

import dmaxsat.counting

# brute-force counting inside property bodies makes per-example deadlines noisy
hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")


@pytest.fixture
def split_only():
    """The truth-table step off, so that every search splits down to its
    leaves: the formulas of the step tests span at most TABLE_WIDTH
    variables, and by default are counted from one table and never split."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dmaxsat.counting, "TABLE_WIDTH", 0)
        yield
