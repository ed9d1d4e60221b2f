"""Discrete-event simulation of wavefront-parallel video decoding on
asymmetric (big.LITTLE) multicores, plus the scheduling policies under study.
"""

from wavesched.wpp_graph import (
    CtuCoord,
    GridDims,
    Phase,
    TaskId,
    filter_deps,
    recon_deps,
    wavefront_width,
)

__version__ = "0.1.0"

__all__ = [
    "CtuCoord",
    "GridDims",
    "Phase",
    "TaskId",
    "filter_deps",
    "recon_deps",
    "wavefront_width",
    "__version__",
]
