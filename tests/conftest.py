import numpy as np
import pytest

import majdet.fuzzing as fuzzing_mod


def pytest_report_header(config):
    """Where the golden digests were taken, next to this run's BLAS build
    and CPU level: under another BLAS kernel they differ in their last
    bits."""
    from test_golden import provenance

    return provenance()


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture(autouse=True)
def cold_reference_memo():
    """Every test starts with no injected counterexample checked yet, so
    what a test counts does not depend on the tests run before it."""
    fuzzing_mod._reference_memo.cache_clear()
