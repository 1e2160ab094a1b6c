"""Query surface facade.

The query engine is one mode table and its three consumers:

- :mod:`.plan`        — the mode table: per mode, request parsing, the
  terms it reads, its per-query k, the ``SegmentSearcher`` method that
  runs it and its merge kind; plus the shared planner (duplicate-id
  check), shard-level cut and driver merge;
- :mod:`.scatter`     — one-shot execution: the shared prologue (one
  alias resolve, meta, config, predicate check) and the scatter over
  plain Ray tasks;
- :mod:`.service`     — served execution: resident shard actors and
  QueryService;
- :mod:`.entrypoints` — the one-shot ``*_index`` functions;
- :mod:`.searcher`    — SegmentSearcher: the three exact BM25 scorers
  (sparse/full TAAT, block-max WAND) and one mode kernel per table row,
  each its per-query logic on one skeleton (prologue, match set, top-k
  cut, hit-row gather); plus the driver-side top-k merge;
- :mod:`.fuzzy`       — SymSpell deletion-table + linear-scan fuzzy
  expansion.

This module re-exports the established import surface; new code should
import from the specific submodule.
"""

from __future__ import annotations

from .fuzzy import (_levenshtein_within, expand_fuzzy_terms,
                    expand_fuzzy_terms_scan)
from .scatter import _SearcherStage, validate_predicates
from .searcher import (SegmentSearcher, _collapse_hits_impl,
                       _global_df_for_terms, _merge_topk_driver, idf)
from .service import QueryService, _ShardSearcher
from .entrypoints import (expand_prefix_terms, explain_index,
                          export_matches, facet_counts_index,
                          function_score_index,
                          facet_ranges_index, facet_stats_index,
                          match_counts_index,
                          more_like_this_index, parse_boosted_query,
                          phrase_prefix_search_index,
                          phrase_rank_index, phrase_search_index,
                          proximity_rank_index, search_after_index,
                          search_common_index,
                          sort_by_attr_index,
                          span_first_search_index,
                          search_boolean_index, search_boosted_index,
                          search_boosting_index, top_hits_index,
                          retrieval_eval_index,
                          search_fields_index, search_fuzzy_index,
                          search_federated,
                          search_index, search_like_index,
                          search_prefix_index, search_regex_index,
                          search_synonym_index,
                          expand_like_patterns, expand_regex_patterns,
                          suggest_corrections,
                          suggest_terms,
                          _expand_wildcards, _mlt_plain_queries,
                          _mlt_seed_tfs, _mlt_trim_excluded,
                          _parse_wildcard_queries)

__all__ = [n for n in dir() if not n.startswith("__")]
