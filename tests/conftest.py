from pathlib import Path

import pytest

# the digest of every pinned output, in sha256sum format: "<digest>  <key>"
PINS = Path(__file__).with_name("pins.sha256")


@pytest.fixture(scope="session")
def pins():
    """The pinned sha256 digests of tests/pins.sha256, by key."""
    table = {}
    for line in PINS.read_text().splitlines():
        digest, key = line.split("  ", 1)
        assert key not in table, "%s is pinned twice" % key
        table[key] = digest
    return table
