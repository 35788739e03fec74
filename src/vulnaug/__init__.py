"""Missing key-aspect augmentation for textual vulnerability descriptions.

The package root exports the names the README's library example uses; every
other name is imported from its own module, such as ``vulnaug.featcorr``.
Each exported name imports its module on first use, so importing the package
(as the CLI does) loads no module that a command does not call.
"""

import importlib

__version__ = "0.1.0"

#: exported name -> the module that defines it
_EXPORTS = {
    "AspectKind": "corpus",
    "AugmentPipeline": "pipeline",
    "Corpus": "corpus",
    "MockBackend": "genprompt",
    "build_mapping": "mapping",
    "build_training_pairs": "featcorr",
    "mask_aspect": "corpus",
    "parse_feed": "corpus",
    "train_correlation": "featcorr",
    "train_embeddings": "embed",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
