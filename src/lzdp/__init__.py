"""Sliding-window block compression with differentially private padding.

The package has four layers:

- ``core``: domain types (alphabets, texts, blocks, compressed files) and
  the bit-exact container format.
- ``lz77``: the deterministic greedy compressor and its decompressor, in
  non-overlapping and self-referencing variants.
- ``dp``: the random-padding wrapper whose output length is
  (epsilon, delta)-differentially private, plus closed-form sensitivity
  bounds and the Laplace sampler.
- ``analysis`` / ``quinstr``: the sensitivity laboratory; block-alignment
  classification of neighbor pairs, brute-force local/global sensitivity,
  and the adversarial pair generator with its exact block-count predictions.
"""

from .core import (
    BYTES,
    UNBOUNDED,
    Alphabet,
    Bits,
    Block,
    CompressedFile,
    CompressionConfig,
    CorruptFileError,
    DomainError,
    LzdpError,
    ParseError,
    Text,
    Variant,
    bit_length,
    bits_per_int,
    deserialize_blocks,
    payload_bits,
    serialize_blocks,
)
from .lz77 import block_spans, compress, compress_reference, decompress
from .dp import (
    CorruptPaddingError,
    DPParams,
    dp_pad,
    dp_strip,
    gs_upper_bound,
    laplace_sample,
    pack_padded_container,
    pad_length,
    pad_lengths,
    read_padded_container,
)
from .analysis import (
    BudgetExceededError,
    InvariantViolation,
    PairAnalysis,
    check_counting_identities,
    classify_pair,
    global_sensitivity_exhaustive,
    local_sensitivity,
    pair_report,
    start_inside,
    t2_bound,
)
from .quinstr import (
    QUINARY,
    QuinStrOutput,
    WidthMode,
    build_segment,
    check_f_injective,
    encode_int,
    predicted_b2,
    quinstr,
    verify_lower_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
