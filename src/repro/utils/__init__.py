"""Shared utilities: seeded randomness, bit manipulation, validation."""

from repro.utils.rng import SeedSequenceFactory, as_generator
from repro.utils.bits import (
    bits_to_bytes,
    bytes_to_bits,
    bits_to_int,
    int_to_bits,
    hamming_distance,
    bit_agreement,
    gray_encode,
    gray_decode,
    gray_code_table,
    random_bits,
    flip_bits,
    parity,
)
from repro.utils.validation import (
    require,
    require_positive,
    require_in_range,
    require_one_of,
)

__all__ = [
    "SeedSequenceFactory",
    "as_generator",
    "bits_to_bytes",
    "bytes_to_bits",
    "bits_to_int",
    "int_to_bits",
    "hamming_distance",
    "bit_agreement",
    "gray_encode",
    "gray_decode",
    "gray_code_table",
    "random_bits",
    "flip_bits",
    "parity",
    "require",
    "require_positive",
    "require_in_range",
    "require_one_of",
]
