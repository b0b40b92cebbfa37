"""Factory for MSHR organizations referenced by system configurations."""

from __future__ import annotations

from .base import MshrFile
from .conventional import ConventionalMshr
from .direct_mapped import DirectMappedMshr
from .vbf_mshr import VbfMshr

#: Registry of organization names accepted in configs.
ORGANIZATIONS = ("conventional", "direct-mapped", "vbf")


def make_mshr(organization: str, capacity: int, line_size: int = 64) -> MshrFile:
    """Build one MSHR bank of the named organization."""
    if organization == "conventional":
        return ConventionalMshr(capacity)
    if organization == "direct-mapped":
        return DirectMappedMshr(capacity, line_size=line_size)
    if organization == "vbf":
        return VbfMshr(capacity, line_size=line_size)
    raise ValueError(
        f"unknown MSHR organization {organization!r}; expected one of {ORGANIZATIONS}"
    )
