import pytest

import ringlab.cli as cli_mod
from ringlab import build_ring

# Specs used by name across the suite; building each carrier once per
# session keeps the cached unit tables and idempotent lists shared.
_SPECS = {}


@pytest.fixture(scope="session")
def rings():
    def get(spec: str):
        if spec not in _SPECS:
            _SPECS[spec] = build_ring(spec)
        return _SPECS[spec]

    return get


@pytest.fixture(autouse=True)
def cold_ring_cache():
    # run_command keeps the rings it built; each test starts and ends with
    # none, so an injected build_ring or check_condition reaches a cold ring
    cli_mod.clear_ring_cache()
    yield
    cli_mod.clear_ring_cache()
