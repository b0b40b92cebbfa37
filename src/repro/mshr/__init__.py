"""Miss handling architectures: MSHR files and the Vector Bloom Filter."""

from .base import MshrEntry, MshrFile
from .conventional import ConventionalMshr
from .direct_mapped import DirectMappedMshr
from .dynamic import CAPACITY_FRACTIONS, DynamicMshrTuner
from .factory import ORGANIZATIONS, make_mshr
from .vbf_mshr import VbfMshr
from .vector_bloom_filter import VectorBloomFilter

__all__ = [
    "CAPACITY_FRACTIONS",
    "ConventionalMshr",
    "DirectMappedMshr",
    "DynamicMshrTuner",
    "MshrEntry",
    "MshrFile",
    "ORGANIZATIONS",
    "VbfMshr",
    "VectorBloomFilter",
    "make_mshr",
]
