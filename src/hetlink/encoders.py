"""Graph encoders producing node embeddings from a HeteroGraph.

Three interchangeable kinds share one interface:

* ``graphsage`` -- mean-aggregate neighbors, concat with self, linear, ELU.
* ``rgcn``      -- relation-specific weight matrices with 1/|N_v^r| norms.
* ``magnn``     -- metapath-instance encoding with intra-metapath multi-head
  attention and inter-metapath attention fusion.

Attention logits use LeakyReLU; aggregation outputs use ELU.  All forward
passes are built from ndiff ops so gradients flow to every parameter.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from . import ndiff
from .hetgraph import (HeteroGraph, HetlinkError, Metapath, SELF_EDGE_TYPE, read_settings,
                       undirected_adjacency)
from .ndiff import Parameter, Tensor

ENCODER_KINDS = ("graphsage", "rgcn", "magnn")


@dataclass(frozen=True)
class EncoderConfig:
    kind: str = "graphsage"
    num_layers: int = 2
    dim: int = 128
    heads: int = 2
    dropout: float = 0.5
    metapaths: tuple[Metapath, ...] = ()
    leaky_slope: float = 0.01
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "metapaths", tuple(self.metapaths))
        if self.kind not in ENCODER_KINDS:
            raise HetlinkError(f"unknown encoder kind {self.kind!r}")
        if not 1 <= self.num_layers <= 4:
            raise HetlinkError("num_layers must be in [1, 4]")
        if self.dim < 1:
            raise HetlinkError("dim must be >= 1")
        if not 0 <= self.dropout < 1:
            raise HetlinkError("dropout must be in [0, 1)")
        if self.heads < 1:
            raise HetlinkError("heads must be >= 1")
        if self.seed < 0:
            raise HetlinkError("seed must be >= 0")
        if self.kind == "magnn":
            if not self.metapaths:
                raise HetlinkError("magnn needs at least one metapath")
            if self.dim % self.heads != 0:
                raise HetlinkError("dim must be divisible by heads")

    @classmethod
    def from_dict(cls, data) -> "EncoderConfig":
        # "layers" is the CLI's name; older manifests carry attn_dim, never read
        keys = {**{f.name: f.name for f in fields(cls)}, "layers": "num_layers", "attn_dim": None}
        return cls(**read_settings(cls, data, keys, "encoder config"))


@dataclass
class AttentionRecord:
    """Attention weights exposed for inspection: one probability vector each."""
    kind: str                  # "intra" or "inter"
    label: str
    weights: np.ndarray        # concatenation of per-group softmax outputs
    segments: np.ndarray       # group id per weight


# A graph of at most SHAPE_NODE_LIMIT nodes (a query graph has 3-5) shares its
# operators with every graph of its typed shape, kept for the SHAPE_CACHE_SIZE
# shapes used last (about 12 KB each).  A larger graph (a KB, a batch) keeps
# its own: its shape seldom repeats, and its key costs about what its
# operators do to build.
SHAPE_NODE_LIMIT = 8
SHAPE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape_entry(shape: tuple) -> dict:
    """The operator dict that the graphs of typed shape `shape` share."""
    return {}


def _graph_cache(graph: HeteroGraph) -> dict:
    """The dict of `graph`'s operators, resolved once and kept on the graph.

    Every operator is a function of the typed graph in row space, so graphs
    of one shape share one dict (two threads missing a shape at once may
    each get an equal one of their own); a race on a key builds it twice and
    keeps the first.  Each array in it is read-only."""
    cache = getattr(graph, "_encoder_cache", None)
    if cache is None:
        cache = {} if len(graph) > SHAPE_NODE_LIMIT else _shape_entry(graph.typed_shape())
        graph._encoder_cache = cache
    return cache


def _relation_adjacency(graph: HeteroGraph, relation: str | None) -> ndiff.SparseOperator:
    """Row v holds 1/|N_v^r| over N_v^r, the neighbors through `relation`
    (through every relation when it is None, the graph's kept undirected
    adjacency); zero row if there are none.  N_v^r ignores direction, so each
    edge links both of its ends, and a pair linked twice counts once."""
    cache = _graph_cache(graph).setdefault("rel_adj", {})
    if relation not in cache:
        if relation is None:
            bounds, cols = graph.undirected
        else:
            src, dst, codes, types = graph.edge_columns()
            keep = codes == (types.index(relation) if relation in types else -1)
            bounds, cols = undirected_adjacency(src[keep], dst[keep], len(graph))
        # each row's neighbours ascending, which is CSR order
        degree = np.diff(bounds)
        cache.setdefault(relation, ndiff.constant_csr(1.0 / np.repeat(degree, degree), cols,
                                                      degree, len(graph)))
    return cache[relation]


def _magnn_plan(graph: HeteroGraph, metapaths: list[Metapath], key: tuple) -> tuple:
    """Every sparse operator a MAGNN layer multiplies by on `graph`, built once
    per metapath list, which `key` (the metapaths' labels) names:
    `(per_path, covered, segments, indicator)`.

    `per_path` holds `(label, avg, gather, segments, indicator)` for each metapath
    with a simple end-anchored instance, in metapath order: `avg` averages the
    rows of each instance, `gather` picks its target's row, `segments` numbers
    its target among that metapath's targets (ascending), and `indicator`
    sums per target.  Instances come target by target, so `segments` never
    decreases: each target's instances are one run of rows.  The fusion stacks
    those metapaths' target rows and sums them per node: `covered` are the rows
    with any instance, ascending, and `segments` maps each stacked row to its
    index in `covered`."""
    cache = _graph_cache(graph).setdefault("magnn", {})
    if key not in cache:
        n = len(graph)
        per_path, positions = [], [np.zeros(0, dtype=np.int64)]
        for path in metapaths:
            table = graph.metapath_table(path)
            # simple instances only: cyclic ones re-inject the target's own
            # feature, which drowns the neighborhood signal being compared
            ordered = np.sort(table, axis=1)
            simple = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
            if not simple.any():
                continue
            table, ordered = table[simple], ordered[simple]
            m, width = table.shape
            targets = table[:, -1]                  # an instance ends at its target
            covered, segments = np.unique(targets, return_inverse=True)
            segments.flags.writeable = False
            # built in CSR order, each row's columns ascending as scipy's COO
            # conversion leaves them, so every product adds in the same order
            avg = ndiff.constant_csr(np.full(m * width, 1.0 / width), ordered.ravel(),
                                     np.full(m, width), n)
            gather = ndiff.constant_csr(np.ones(m), targets, np.ones(m, dtype=np.int64), n)
            per_path.append((path.label(), avg, gather, segments,
                             ndiff.segment_indicator(segments, len(covered))))
            positions.append(covered)
        covered, segments = np.unique(np.concatenate(positions), return_inverse=True)
        covered.flags.writeable = segments.flags.writeable = False
        cache.setdefault(key, (per_path, covered, segments,
                               ndiff.segment_indicator(segments, len(covered))))
    return cache[key]


class Encoder:
    """One parameter set usable on any graph over the given type registries.

    The same instance encodes both the reference and the query graph, which
    is what makes the Siamese pairing weight-shared by construction.
    """

    # the types load_model reads these as from a model manifest
    feature_dim: int
    node_types: list[str]
    edge_types: list[str]

    def __init__(self, config: EncoderConfig, feature_dim: int,
                 node_types, edge_types):
        if feature_dim < 1:
            raise HetlinkError("feature_dim must be >= 1")
        self.config = config
        self.feature_dim = feature_dim
        self.node_types = sorted(node_types)
        self.edge_types = sorted(edge_types)
        self._params: dict[str, Parameter] = {}
        rng = np.random.default_rng(config.seed)
        d = config.dim
        K = config.num_layers

        # Identity-residual initialization: shrink the random part and add
        # identity blocks so the untrained network is already a similarity-
        # preserving neighborhood average.  The first layer reads only the
        # aggregated neighbors (a node's own surface form may be arbitrarily
        # corrupted); later layers keep their input and blend in structure.
        def par(name, shape, init="glorot", eye=0.0):
            data = 0.1 * ndiff.glorot(rng, shape) if init == "glorot" else np.zeros(shape)
            if eye:
                data = data + eye * np.eye(shape[0], shape[-1])
            p = Parameter(data, name)
            self._params[name] = p
            return p

        n_rel = max(1, len(self.edge_types))
        if config.kind == "graphsage":
            for k in range(K):
                d_in = feature_dim if k == 0 else d
                p = par(f"graphsage.W[{k}]", (2 * d_in, d))
                self_w, nbr_w = (0.0, 1.0) if k == 0 else (1.0, 0.3)
                p.data[:d_in] += self_w * np.eye(d_in, d)
                p.data[d_in:] += nbr_w * np.eye(d_in, d)
        elif config.kind == "rgcn":
            for k in range(K):
                d_in = feature_dim if k == 0 else d
                par(f"rgcn.W0[{k}]", (d_in, d), eye=0.0 if k == 0 else 1.0)
                for r in self.edge_types:
                    # the SELF relation would reinject the node's own (possibly
                    # corrupted) surface feature, so it starts at noise level
                    w = 0.0 if r == SELF_EDGE_TYPE else (1.0 if k == 0 else 0.3) / n_rel
                    par(f"rgcn.W[{r}][{k}]", (d_in, d), eye=w)
        else:
            for path in config.metapaths:
                path_types = set(path.node_types)
                missing = path_types - set(self.node_types)
                if missing:
                    raise HetlinkError(f"metapath uses unknown node types {missing}")
            d_head = d // config.heads
            for t in self.node_types:
                par(f"magnn.in_proj[{t}]", (feature_dim, d), eye=1.0)
            # _magnn_plan's cache key, and per layer each metapath's
            # (W_p, per-head attention vectors): resolved once, not per call
            self._magnn_key = tuple(path.label() for path in config.metapaths)
            self._magnn_params = []
            for k in range(K):
                self._magnn_params.append({
                    label: (par(f"magnn.W_p[{label}][{k}]", (d, d_head), eye=1.0),
                            [par(f"magnn.a[{label}][{k}][h{h}]", (d + d_head,), init="zeros")
                             for h in range(config.heads)])
                    for label in self._magnn_key})
                par(f"magnn.beta[{k}]", (d,), init="zeros")

    # -- parameter access --------------------------------------------------

    def parameters(self) -> list[Parameter]:
        """Every parameter, in the order the constructor made them."""
        return list(self._params.values())

    # -- forward -----------------------------------------------------------

    def encode(self, graph: HeteroGraph, features, targets=None,
               training: bool = False, rng: np.random.Generator | None = None,
               collect: list[AttentionRecord] | None = None) -> Tensor:
        """Embed all nodes, returning rows for `targets` (default: all nodes).

        `features` is an (n, feature_dim) array/tensor in node-id order.
        Dropout is applied to the input of every layer in training mode.
        """
        x = features if isinstance(features, Tensor) else Tensor(features)
        if x.shape != (len(graph), self.feature_dim):
            raise HetlinkError(
                f"features shape {x.shape} != ({len(graph)}, {self.feature_dim})")
        unknown_types = graph.node_types - set(self.node_types)
        if unknown_types:
            raise HetlinkError(f"graph has unregistered node types {sorted(unknown_types)}")

        if self.config.kind == "magnn":
            x = self._project_types(graph, x)
        for k in range(self.config.num_layers):
            x = ndiff.dropout(x, self.config.dropout, training, rng)
            if self.config.kind == "graphsage":
                x = self._graphsage_layer(graph, x, k)
            elif self.config.kind == "rgcn":
                x = self._rgcn_layer(graph, x, k)
            else:
                x = self._magnn_layer(graph, x, k, collect)
        if targets is not None:
            x = ndiff.gather_rows(x, graph.rows(targets))
        return x

    def _graphsage_layer(self, graph, x, k) -> Tensor:
        agg = ndiff.sparse_matmul(_relation_adjacency(graph, None), x)
        cat = ndiff.concat([x, agg], axis=1)
        return ndiff.elu(ndiff.matmul(cat, self._params[f"graphsage.W[{k}]"]))

    def _rgcn_layer(self, graph, x, k) -> Tensor:
        unseen = graph.edge_types - set(self.edge_types)
        if unseen:
            raise HetlinkError(f"unseen relations at forward time: {sorted(unseen)}")
        out = ndiff.matmul(x, self._params[f"rgcn.W0[{k}]"])
        # a relation the graph has links at least one pair of rows
        for r in sorted(graph.edge_types):
            msg = ndiff.sparse_matmul(_relation_adjacency(graph, r),
                                      ndiff.matmul(x, self._params[f"rgcn.W[{r}][{k}]"]))
            out = ndiff.add(out, msg)
        return ndiff.elu(out)

    def _project_types(self, graph, x) -> Tensor:
        """Type-specific input projection into the shared latent space."""
        out = Tensor(np.zeros((len(graph), self.config.dim)))
        for t in sorted(graph.node_types):
            idx = graph.rows(graph.ids_of_type(t))
            proj = ndiff.matmul(ndiff.gather_rows(x, idx), self._params[f"magnn.in_proj[{t}]"])
            out = ndiff.scatter_rows(out, idx, proj)
        return out

    def _magnn_layer(self, graph, x, k, collect) -> Tensor:
        cfg = self.config
        slope = cfg.leaky_slope
        per_path, covered, fusion_segments, fusion_indicator = _magnn_plan(
            graph, cfg.metapaths, self._magnn_key)
        if not per_path:
            return x
        intras = []
        for label, avg, gather, segments, indicator in per_path:
            w_p, heads = self._magnn_params[k][label]
            intra, alpha = _metapath_attention(x, w_p, heads, avg, gather, segments, indicator,
                                               slope)
            if collect is not None:
                collect.extend(AttentionRecord("intra", f"{label}/layer{k}/head{h}",
                                               alpha[:, h].copy(), segments.copy())
                               for h in range(cfg.heads))
            intras.append(intra)

        stacked = ndiff.concat(intras, axis=0)
        logits = ndiff.leaky_relu(ndiff.matmul(stacked, self._params[f"magnn.beta[{k}]"]), slope)
        beta = ndiff.segment_softmax(logits, fusion_segments, len(covered))
        if collect is not None:
            collect.append(AttentionRecord("inter", f"layer{k}", beta.data.copy(),
                                           fusion_segments.copy()))
        fused = ndiff.segment_sum(ndiff.mul(ndiff.reshape(beta, (-1, 1)), stacked),
                                  fusion_indicator, len(covered))
        return ndiff.scatter_rows(x, covered, fused)


def _metapath_attention(x: Tensor, w_p: Parameter, heads: list[Parameter],
                        avg: ndiff.SparseOperator, gather: ndiff.SparseOperator,
                        segments: np.ndarray, indicator: ndiff.SparseOperator,
                        slope: float) -> tuple[Tensor, np.ndarray]:
    """One metapath's intra-metapath attention on every head, as one tape node.

    Each instance is encoded as `avg @ x @ w_p`; head h scores it by
    LeakyReLU([gather @ x, encoding] . heads[h]), softmaxes the scores over
    the instances of each target and takes ELU of the weighted sum of
    encodings: the (targets, H * d_head) result holds the heads side by side.
    Returns it with the (instances, H) attention weights.

    Every value and gradient is bit for bit what the per-head chain of ndiff
    ops (matmul, leaky_relu, segment_softmax, mul, segment_sum, elu) gives:
    each step does the same float operations in the same order, a head's
    scores take one matrix-vector product each (one (D, H) product adds in
    another order), and gradients that chain summed are summed in its order."""
    n_heads = len(heads)
    h_mean = avg @ x.data
    cat = np.concatenate([gather @ x.data, h_mean @ w_p.data], axis=1)
    h_inst = cat[:, x.shape[1]:]        # a view: the closure keeps no second copy
    m, d_head = h_inst.shape
    z = np.empty((m, n_heads))
    for h, a in enumerate(heads):
        z[:, h] = cat @ a.data
    logits = np.where(z >= 0, z, slope * z)
    # each target's instances are one run of rows (see _magnn_plan)
    starts = np.searchsorted(segments, np.arange(indicator.shape[0]))
    e = np.exp(logits - np.maximum.reduceat(logits, starts)[segments])
    alpha = e / (indicator @ e)[segments]
    summed = indicator @ (alpha[:, :, None] * h_inst[:, None, :]).reshape(m, -1)
    out = np.where(summed > 0, summed, np.expm1(np.minimum(summed, 0.0)))

    def back(g):
        # ELU's derivative: out > 0 exactly where summed > 0, so summed is not kept
        g_weighted = indicator.T @ (g * np.where(out > 0, 1.0, out + 1.0))
        g_weighted = g_weighted.reshape(m, n_heads, d_head)
        g_alpha = (g_weighted * h_inst[:, None, :]).sum(axis=2)
        g_logits = alpha * (g_alpha - (indicator @ (g_alpha * alpha))[segments])
        g_z = g_logits * np.where(z >= 0, 1.0, slope)
        g_heads, g_cat = [], None
        for h, a in enumerate(heads):
            g_zh = np.ascontiguousarray(g_z[:, h])    # the chain's vector was contiguous
            g_heads.append(cat.T @ g_zh)
            g_cat = np.outer(g_zh, a.data) if g_cat is None else g_cat + np.outer(g_zh, a.data)
        # the chain adds h_inst's gradient over the heads' products, then the
        # concat's part; x's comes from gather, then from avg
        g_by_head = g_weighted * alpha[:, :, None]
        g_inst = g_by_head[:, 0]
        for h in range(1, n_heads):
            g_inst = g_inst + g_by_head[:, h]
        g_tgt, g_inst_cat = np.split(g_cat, [x.shape[1]], axis=1)
        g_inst = g_inst + g_inst_cat
        return (gather.T @ g_tgt, avg.T @ (g_inst @ w_p.data.T),
                h_mean.T @ g_inst, *g_heads)
    return ndiff.tape_node(out, (x, x, w_p, *heads), back), alpha


def build_encoder_for_graph(config: EncoderConfig, graph: HeteroGraph,
                            feature_dim: int) -> Encoder:
    """Encoder registered for exactly the node and edge types of `graph`."""
    return Encoder(config, feature_dim, graph.node_types, graph.edge_types)
