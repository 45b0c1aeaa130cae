"""citemetrics: citation-impact indicators over a common record model.

The package splits into the record model (records), vector-only indices
(core), ageing/career indices (temporal), co-authorship corrections
(coauthor), journal/field indicators (venue), group indices plus the theory
layer (aggregate), and report/CLI plumbing (report, cli).
"""

from .aggregate import (CareerSummary, SimConfig, TailFunction,
                        burrell_simulate, dynamic_h, glanzel_H, group_hc,
                        group_hp, group_indices, lotkaian_h, successive_h)
from .coauthor import AuthoredVector, authored_vector, hi_index, pure_h, schreiber_hm
from .core import (a_index, f_index, g_index, h2_index, h_alpha_predict,
                   h_core_cv, h_core_sum, h_index, hw_index, maxprod, r_index,
                   rm_index, rmcv_index, t_index, w_index)
from .errors import (CitemetricsError, DegenerateCohortError, DomainError,
                     FidelityError, RecordParseError, RecordValidationError,
                     UndefinedInputError)
from .records import (CitationEvent, CitationRecord, CitationVector,
                      IndexConfig, Publication, citation_vector,
                      filter_self_citations, parse_record, record_from_dict,
                      record_to_dict, resolve_now_year, totals,
                      validate_record, write_record)
from .report import (IndexReport, REPORT_INDEX_KEYS, compute_report,
                     format_value, render_json, report_to_jsonable)
from .temporal import (HMatrix, HSequence, ar_index, contemporary_h,
                       h_matrix, h_sequence, m_quotient,
                       normalized_h_output, trend_h)
from .venue import (CohortPoint, FieldProfile, field_factor,
                    field_normalized_h, impact_factor, impact_index_hm,
                    relative_h, research_status, sri, theoretical_h_estimate,
                    vanraan_diagnostic)

__version__ = "0.1.0"
