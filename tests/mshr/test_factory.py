"""Unit tests for the MSHR factory."""

import pytest

from repro.mshr.conventional import ConventionalMshr
from repro.mshr.direct_mapped import DirectMappedMshr
from repro.mshr.factory import ORGANIZATIONS, make_mshr
from repro.mshr.vbf_mshr import VbfMshr


@pytest.mark.parametrize(
    "name, cls",
    [
        ("conventional", ConventionalMshr),
        ("direct-mapped", DirectMappedMshr),
        ("vbf", VbfMshr),
    ],
)
def test_factory_builds_each_organization(name, cls):
    assert name in ORGANIZATIONS
    mshr = make_mshr(name, 16)
    assert isinstance(mshr, cls)


@pytest.mark.parametrize("name", ["conventional", "direct-mapped", "vbf"])
def test_capacity_respected(name):
    assert make_mshr(name, 32).capacity == 32


def test_unknown_organization_raises_with_known_names():
    with pytest.raises(ValueError, match="conventional"):
        make_mshr("cam2000", 8)
