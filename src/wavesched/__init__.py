"""Discrete-event simulation of wavefront-parallel video decoding on
asymmetric (big.LITTLE) multicores, plus the scheduling policies under study.

This module loads nothing: the `wpp_graph` names below are imported on first
access, and the defaults the CLI parser prints are defined here, so that
`wavesched --help` and a rejected argument run without the simulator.
"""

__version__ = "0.1.0"

# Share of frame work taken by the three filter passes.
DEFAULT_FILTER_FRACTION = 0.15
# Shape parameter of the lognormal per-CTU cost.
DEFAULT_SIGMA = 0.4
# The four scheduling policies, by canonical name.
POLICY_KINDS = ("big-os", "little", "static", "affinity")

_WPP_GRAPH_NAMES = (
    "CtuCoord",
    "GridDims",
    "Phase",
    "TaskId",
    "filter_deps",
    "recon_deps",
    "wavefront_width",
)

__all__ = [
    *_WPP_GRAPH_NAMES,
    "DEFAULT_FILTER_FRACTION",
    "DEFAULT_SIGMA",
    "POLICY_KINDS",
    "__version__",
]


def __getattr__(name: str):
    if name in _WPP_GRAPH_NAMES:
        from wavesched import wpp_graph

        return getattr(wpp_graph, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
