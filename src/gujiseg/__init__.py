"""gujiseg: CRF-based sentence segmentation for unpunctuated classical
Chinese text. Characters are labeled M (followed by a mark) or O (ordinary)
by a linear-chain CRF over configurable feature templates."""

__version__ = "0.1.0"

import importlib

# The public names, by the module that defines them. Each is imported on
# first access and then kept in this module's globals (PEP 562), so
# `import gujiseg` and `import gujiseg.corpus` load no numpy; `python -m
# gujiseg.cli` imports this package before cli.py runs.
_SOURCES = {
    "corpus": (
        "DEFAULT_BOUNDARY", "DEFAULT_DISCARD", "LABELS", "M", "O", "CorpusStats",
        "Document", "EmptySequenceError", "LabeledSequence", "corpus_stats",
        "filter_short", "labelize", "parse_corpus",
    ),
    "crf": ("CrfModel", "TrainConfig", "load_model", "save_model", "train", "viterbi"),
    "evaluation": ("ExperimentResult", "Metrics", "SplitSpec", "evaluate", "run_experiment", "split"),
    "features": ("FeatureConfig", "Instance", "extract_features", "extract_instances", "featurize_chars"),
    "lexicons": (
        "EntityLexicon", "LexiconSet", "PmiTable", "RhymeDictionary", "build_pmi_table",
        "load_entity_lexicon", "load_rhyme_dict", "pmi_bin", "tag_entities",
    ),
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = ["__version__", *_SOURCE_OF]


def __getattr__(name: str):
    if name not in _SOURCE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
