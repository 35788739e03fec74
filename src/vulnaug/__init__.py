"""Missing key-aspect augmentation for textual vulnerability descriptions.

The package root exports the names the README's library example uses; every
other name is imported from its own module, such as ``vulnaug.featcorr``.
"""

from .corpus import AspectKind, Corpus, mask_aspect, parse_feed
from .embed import train_embeddings
from .featcorr import build_training_pairs, train_correlation
from .genprompt import MockBackend
from .mapping import build_mapping
from .pipeline import AugmentPipeline

__version__ = "0.1.0"

__all__ = [
    "AspectKind",
    "AugmentPipeline",
    "Corpus",
    "MockBackend",
    "build_mapping",
    "build_training_pairs",
    "mask_aspect",
    "parse_feed",
    "train_correlation",
    "train_embeddings",
]
