"""docalign: multilingual web document alignment within web domains.

Documents are projected into a shared pivot-language TF-IDF space through a
lexical translation model and matched by normalized dot product under a
one-to-one constraint. A URL-heuristic baseline, a language-identifier
miner and a recall evaluation harness round out the pipeline.

The API is the submodules, such as ``docalign.pipeline``; the package root
exports nothing.
"""
