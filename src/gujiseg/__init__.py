"""gujiseg: CRF-based sentence segmentation for unpunctuated classical
Chinese text. Characters are labeled M (followed by a mark) or O (ordinary)
by a linear-chain CRF over configurable feature templates."""

__version__ = "0.1.0"

from .corpus import (
    DEFAULT_BOUNDARY,
    DEFAULT_DISCARD,
    LABELS,
    M,
    O,
    CorpusStats,
    Document,
    EmptySequenceError,
    LabeledSequence,
    corpus_stats,
    filter_short,
    labelize,
    parse_corpus,
)
from .crf import CrfModel, TrainConfig, load_model, save_model, train, viterbi
from .evaluation import ExperimentResult, Metrics, SplitSpec, evaluate, run_experiment, split
from .features import FeatureConfig, Instance, extract_features, extract_instances, featurize_chars
from .lexicons import (
    EntityLexicon,
    LexiconSet,
    PmiTable,
    RhymeDictionary,
    build_pmi_table,
    load_entity_lexicon,
    load_rhyme_dict,
    pmi_bin,
    tag_entities,
)

__all__ = [
    "__version__",
    "DEFAULT_BOUNDARY",
    "DEFAULT_DISCARD",
    "LABELS",
    "M",
    "O",
    "CorpusStats",
    "Document",
    "EmptySequenceError",
    "LabeledSequence",
    "corpus_stats",
    "filter_short",
    "labelize",
    "parse_corpus",
    "CrfModel",
    "TrainConfig",
    "load_model",
    "save_model",
    "train",
    "viterbi",
    "ExperimentResult",
    "Metrics",
    "SplitSpec",
    "evaluate",
    "run_experiment",
    "split",
    "FeatureConfig",
    "Instance",
    "extract_features",
    "extract_instances",
    "featurize_chars",
    "EntityLexicon",
    "LexiconSet",
    "PmiTable",
    "RhymeDictionary",
    "build_pmi_table",
    "load_entity_lexicon",
    "load_rhyme_dict",
    "pmi_bin",
    "tag_entities",
]
