"""Decremental shortest-path toolkit.

Graph structures that answer distance and path queries while edges are
being deleted, built around a layered core decomposition with expander
cores.
"""

__all__ = [
    "graph_core",
    "degree_layers",
    "es_tree",
    "dynamic_forest",
    "expander_tools",
    "expander_oracle",
    "lcd",
    "sssp",
    "heavy_side",
]

__version__ = "0.1.0"
