"""Entity disambiguation over typed heterogeneous graphs.

Builds a query graph from a text snippet's mentions, augments it with
knowledge-base structure, encodes both graphs with one shared-weight GNN
encoder (GraphSAGE, relational GCN, or metapath attention), and ranks KB
candidates for each ambiguous mention.
"""

__version__ = "0.1.0"

from .hetgraph import (Edge, HeteroGraph, HetlinkError, InvertedIndex, Metapath,
                       Node, Schema, build_inverted_index, load_graph)
from .termembed import WordVectorStore, init_node_features, term_embedding
from .encoders import Encoder, EncoderConfig
from .querygraph import (Mention, QueryGraph, TextSnippet,
                         augment_query_graph, fully_connected_query_graph)
from .negsample import HardNegativeSampler, ged_1hop, structural_similarity
from .matcher import (MatchingHead, SiameseModel, TrainConfig, disambiguate,
                      load_model, save_model, train)
from .evalgen import (EvalReport, SynthConfig, generate_synthetic_kb,
                      precision_recall_f1, split_dataset)

__all__ = [
    "Edge", "HeteroGraph", "HetlinkError", "InvertedIndex", "Metapath", "Node",
    "Schema", "build_inverted_index", "load_graph",
    "WordVectorStore", "init_node_features", "term_embedding",
    "Encoder", "EncoderConfig",
    "Mention", "QueryGraph", "TextSnippet", "augment_query_graph",
    "fully_connected_query_graph",
    "HardNegativeSampler", "ged_1hop", "structural_similarity",
    "MatchingHead", "SiameseModel", "TrainConfig", "disambiguate",
    "load_model", "save_model", "train",
    "EvalReport", "SynthConfig", "generate_synthetic_kb",
    "precision_recall_f1", "split_dataset",
]
