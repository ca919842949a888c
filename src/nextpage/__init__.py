"""Category-based next-page prediction engine for web prefetching.

Builds a level/class model of a site from its link graph (PageRank-seeded,
no access logs required), predicts the next requests for any page from the
first request on, adapts the model online from the access stream, and
replays traces to measure hit ratio versus prediction-window size.
"""

from .config import EngineConfig, parse_config
from .errors import (
    ConfigError,
    ConvergenceError,
    EngineError,
    GraphFormatError,
    ModelFormatError,
    ModLogFormatError,
    TraceFormatError,
    UnknownPageError,
    ValidationError,
)
from .model import (
    Model,
    PageRecord,
    assign_classes,
    assign_levels,
    build_model,
    model_from_csv,
    model_to_csv,
    resolve_common_pages,
)
from .predictor import Candidate, LevelRank, Prediction, compare_level_rank, predict
from .ranking import RankAssignment, ordinal_ranks, pagerank, rank_pages
from .service import PredictionServer, PredictionService, serve
from .simulate import (
    HitReport,
    SessionStats,
    generate_trace,
    parse_trace,
    replay,
    report_to_csv,
    trace_to_csv,
)
from .sitegraph import (
    ModificationLog,
    SiteGraph,
    parse_graph,
    parse_modlog,
    render_graph,
)
from .updates import (
    ModificationEvent,
    SessionEvent,
    apply_event,
    demotion_sweep,
    modification_sweep,
    record_access,
    record_modification,
    run_sweeps,
)

__version__ = "0.1.0"
