"""Experiment drivers: one module per paper table/figure (DESIGN.md §2),
and :mod:`.serving`, the drivers of the serving measurements."""

from .common import (
    PAPER_MIN_UTILIZATION,
    PAPER_NODE_SIZE_BYTES,
    TEXT_HISTOGRAM_BINS,
    VECTOR_HISTOGRAM_BINS,
    ExperimentSetup,
    build_text_setup,
    build_vector_setup,
    paper_range_radius,
)
from .figure1 import Figure1Config, Figure1Row, render_figure1, run_figure1
from .figure2 import Figure2Config, Figure2Row, render_figure2, run_figure2
from .figure3 import Figure3Config, Figure3Row, render_figure3, run_figure3
from .figure4 import Figure4Config, Figure4Row, render_figure4, run_figure4
from .figure5 import Figure5Config, render_figure5, run_figure5
from .report import format_percent, format_table, relative_error
from .table1 import Table1Config, Table1Row, render_table1, run_table1
from .vptree_validation import (
    VPValidationConfig,
    VPValidationRow,
    render_vptree_validation,
    run_vptree_validation,
)

__all__ = [
    "ExperimentSetup",
    "build_vector_setup",
    "build_text_setup",
    "paper_range_radius",
    "PAPER_NODE_SIZE_BYTES",
    "PAPER_MIN_UTILIZATION",
    "VECTOR_HISTOGRAM_BINS",
    "TEXT_HISTOGRAM_BINS",
    "format_table",
    "format_percent",
    "relative_error",
    "Table1Config",
    "Table1Row",
    "run_table1",
    "render_table1",
    "Figure1Config",
    "Figure1Row",
    "run_figure1",
    "render_figure1",
    "Figure2Config",
    "Figure2Row",
    "run_figure2",
    "render_figure2",
    "Figure3Config",
    "Figure3Row",
    "run_figure3",
    "render_figure3",
    "Figure4Config",
    "Figure4Row",
    "run_figure4",
    "render_figure4",
    "Figure5Config",
    "run_figure5",
    "render_figure5",
    "VPValidationConfig",
    "VPValidationRow",
    "run_vptree_validation",
    "render_vptree_validation",
]
