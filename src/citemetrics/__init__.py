"""citemetrics: citation-impact indicators over a common record model.

The package splits into the record model (records), vector-only indices
(core), ageing/career indices (temporal), co-authorship corrections
(coauthor), journal/field indicators (venue), group indices plus the theory
layer (aggregate), and report/CLI plumbing (report, cli).

Each name below is imported from its module on first access (PEP 562), so
a command loads only the modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "aggregate": ("CareerSummary", "SimConfig", "TailFunction", "burrell_simulate",
                  "dynamic_h", "glanzel_H", "group_hc", "group_hp", "group_indices",
                  "lotkaian_h", "successive_h"),
    "coauthor": ("AuthoredVector", "authored_vector", "hi_index", "pure_h",
                 "schreiber_hm"),
    "core": ("a_index", "f_index", "g_index", "h2_index", "h_alpha_predict",
             "h_core_cv", "h_core_sum", "h_index", "hw_index", "maxprod", "r_index",
             "rm_index", "rmcv_index", "t_index", "w_index"),
    "errors": ("CitemetricsError", "DegenerateCohortError", "DomainError",
               "FidelityError", "RecordParseError", "RecordValidationError",
               "UndefinedInputError"),
    "records": ("CitationEvent", "CitationRecord", "CitationVector", "IndexConfig",
                "Publication", "citation_vector", "filter_self_citations",
                "parse_record", "record_from_dict", "record_to_dict", "totals",
                "validate_record", "write_record"),
    "report": ("IndexReport", "REPORT_INDEX_KEYS", "compute_report", "format_value",
               "render_json", "report_to_jsonable"),
    "temporal": ("HMatrix", "HSequence", "ar_index", "contemporary_h", "h_matrix",
                 "h_sequence", "m_quotient", "normalized_h_output", "trend_h"),
    "venue": ("CohortPoint", "FieldProfile", "field_factor", "field_normalized_h",
              "impact_factor", "impact_index_hm", "relative_h", "research_status",
              "sri", "theoretical_h_estimate", "vanraan_diagnostic"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
