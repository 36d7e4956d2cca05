"""Service-test isolation: every test starts with a cold tenant cache.

The inline lane and the directly called handlers share this process's
tenant cache, so without the reset a test would see tenants that an
earlier test chased — and miss the chase spans and counters it asserts.
"""

import pytest

from repro.service.tenants import tenant_cache


@pytest.fixture(autouse=True)
def _cold_tenant_cache():
    tenant_cache().clear()
    yield
    tenant_cache().clear()
