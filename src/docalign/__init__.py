"""docalign: multilingual web document alignment within web domains.

Documents are projected into a shared pivot-language TF-IDF space through a
lexical translation model and matched by normalized dot product under a
one-to-one constraint. A URL-heuristic baseline, a language-identifier
miner and a recall evaluation harness round out the pipeline.
"""

from .align_cda import (
    AlignmentPair,
    ScoreMatrix,
    align_corpus,
    match_one_to_one,
    score_domain,
)
from .align_url import IdentifierSet, match_urls, strip_identifiers
from .corpus import (
    CorpusPartition,
    DocumentRecord,
    detect_language,
    extract_text,
    group_by_domain,
    parse_record,
    tokenize,
)
from .evaluation import GoldSet, evaluate_recall
from .lexicon import (
    LexiconAlignment,
    TranslationTable,
    build_alignment,
    load_translation_table,
    map_document,
    table_from_embeddings,
)
from .miner import mine_identifiers
from .pipeline import PipelineConfig, run_pipeline
from .vectorspace import (
    IdfModel,
    VectorTable,
    Vocabulary,
    build_vocabulary,
    compute_idf,
    vectorize,
)

__version__ = "0.1.0"
