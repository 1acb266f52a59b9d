"""MGARD-style error-bounded lossy compression (paper Showcase V-B)."""

from ..parallel.executors import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_workers,
    get_executor,
    set_default_executor,
)
from .fileio import CompressedFileError, load_compressed, save_compressed
from .huffman import huffman_decode, huffman_encode
from .huffman_book import HuffmanCode, build_code
from .lossless import (
    BACKENDS,
    decode_classes,
    encode_classes,
    materialize_classes_header,
)
from .mgard import CompressedData, MgardCompressor, PreparedFrame, StageTimes
from .quantizer import Quantizer
from .timeseries import CompressedSeries, ResidualPlan, TimeSeriesCompressor

__all__ = [
    "BACKENDS",
    "CompressedData",
    "CompressedFileError",
    "CompressedSeries",
    "HuffmanCode",
    "MgardCompressor",
    "PreparedFrame",
    "Quantizer",
    "ResidualPlan",
    "SerialExecutor",
    "StageTimes",
    "TimeSeriesCompressor",
    "available_workers",
    "build_code",
    "decode_classes",
    "encode_classes",
    "get_executor",
    "huffman_decode",
    "huffman_encode",
    "load_compressed",
    "materialize_classes_header",
    "save_compressed",
    "set_default_executor",
]
