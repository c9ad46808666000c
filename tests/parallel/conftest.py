"""Fixtures for the real-backend tests."""

import pytest

from tests.parallel import scalar_oracle


@pytest.fixture
def scalar_kernels():
    """The oracle swap: ``with scalar_kernels(): run_real_join(...)`` runs
    the block's inline joins on the per-record kernels."""
    return scalar_oracle.scalar_kernels
