import re
from pathlib import Path

import pytest

# the digest of every pinned output, in sha256sum format: "<digest>  <key>"
PINS = Path(__file__).with_name("pins.sha256")
# what the construction builds besides its bytes: "<key> <value>"
COUNTS = Path(__file__).with_name("counts.txt")


@pytest.fixture(scope="session")
def pins():
    """The pinned sha256 digests of tests/pins.sha256, by key."""
    table = {}
    for line in PINS.read_text().splitlines():
        digest, key = line.split("  ", 1)
        assert key not in table, "%s is pinned twice" % key
        table[key] = digest
    return table


@pytest.fixture(scope="session")
def counts():
    """The integers and texts of tests/counts.txt, by key."""
    table = {}
    for line in COUNTS.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.split(" ", 1)
        assert key not in table, "%s is counted twice" % key
        table[key] = int(value) if re.fullmatch(r"-?\d+", value) else value.replace("\\n", "\n")
    return table
