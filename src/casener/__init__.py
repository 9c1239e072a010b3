"""casener: NER robustness to capitalization noise.

Trains and evaluates linear-chain CRF named-entity recognizers under four
capitalization strategies (baseline, caseless, truecasing, data
augmentation) and measures robustness on original/lower/upper variants of
the test data.
"""

from .corpus import (
    AnnotatedSentence,
    Corpus,
    CorpusError,
    EntitySpan,
    ParseError,
    Scheme,
    Sentence,
    TagSequence,
    TagValidationError,
    extract_spans,
    parse_conll,
    read_conll_file,
    spans_to_tags,
    write_conll,
    write_conll_file,
)
from .crf import (
    CrfModel,
    ModelFormatError,
    TrainConfig,
    TrainingError,
    decode,
    load,
    log_likelihood_and_gradient,
    log_partition,
    save,
    score_sequence,
    train,
)
from .evaluation import Metrics, evaluate, tag_corpus, variant_grid
from .features import FeatureMap, TemplateSet, extract, fit_feature_map
from .harness import ExperimentConfig, Strategy, run_experiment, run_grid
from .synth import SynthConfig, default_config, generate, vocabulary_overlap
from .transforms import CaseVariant, augment, make_variant, to_lower, to_upper
from .truecase import CaseClass, Truecaser, classify_case, train_truecaser, truecase

__version__ = "0.1.0"
