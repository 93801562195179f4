"""echotag: embed and detect echo watermarks in audio corpora.

Single echoes and time-spread pseudorandom echo patterns are embedded across
whole clips and recovered from the real cepstrum via exclusion z-scores; an
evaluation harness measures robustness through simulated degradation
channels (noise, pitch shift, echo attenuation).
"""

from .audio import DEFAULT_SAMPLE_RATE, AudioClip, load_audio, mix, resample, save_audio
from .detect import (
    DEFAULT_SINGLE_ECHO_BAND,
    DetectionReport,
    ZScoreProfile,
    detect_single_echo,
    detect_spread,
    zscore_profile,
)
from .dsp import convolve, cross_correlate, enhance_correlation, real_cepstrum
from .embed import (
    EchoKey,
    SpreadKey,
    embed,
    embed_single_echo,
    embed_spread,
)
from .harness import (
    BitflipCurve,
    ChannelSpec,
    RocResult,
    apply_channel,
    roc,
    run_bitflip_curve,
    run_duration_sweep,
)
from .keyfiles import load_key_file, load_pattern_set, save_key_file
from .patterns import (
    PatternSet,
    flip_bits,
    generate_pattern,
    generate_pattern_set,
    is_run_valid,
)
from .payload import PayloadConfig, bits_per_second, capacity_bits, decode_payload, encode_payload

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "BitflipCurve",
    "ChannelSpec",
    "DEFAULT_SAMPLE_RATE",
    "DEFAULT_SINGLE_ECHO_BAND",
    "DetectionReport",
    "EchoKey",
    "PatternSet",
    "PayloadConfig",
    "RocResult",
    "SpreadKey",
    "ZScoreProfile",
    "apply_channel",
    "bits_per_second",
    "capacity_bits",
    "convolve",
    "cross_correlate",
    "decode_payload",
    "detect_single_echo",
    "detect_spread",
    "embed",
    "embed_single_echo",
    "embed_spread",
    "encode_payload",
    "enhance_correlation",
    "flip_bits",
    "generate_pattern",
    "generate_pattern_set",
    "is_run_valid",
    "load_audio",
    "load_key_file",
    "load_pattern_set",
    "mix",
    "real_cepstrum",
    "resample",
    "roc",
    "run_bitflip_curve",
    "run_duration_sweep",
    "save_audio",
    "save_key_file",
    "zscore_profile",
]
