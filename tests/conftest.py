import numpy as np
import pytest

import majdet.fuzzing as fuzzing_mod


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture(autouse=True)
def cold_reference_memo():
    """Every test starts with no injected counterexample checked yet, so
    what a test counts does not depend on the tests run before it."""
    fuzzing_mod._reference_memo.cache_clear()
