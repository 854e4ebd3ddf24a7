"""Initial node feature vectors from composite terms.

Features are SIF-style frequency-weighted means of per-token word vectors:
weight(w) = a / (a + p(w)) with a = DEFAULT_SIF_A.  Out-of-vocabulary tokens
get a unit vector from a hash of the token seeded with FALLBACK_SEED, so
lookups are total and every store embeds them alike.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

from .hetgraph import HeteroGraph, HetlinkError, column_lines, open_text, text_column, tokenize

DEFAULT_SIF_A = 1e-3
DEFAULT_UNSEEN_P = 1e-4
FALLBACK_SEED = 0
# names whose token vectors init_node_features gathers at once: 1,024 names of
# 3 tokens at 128 dimensions are 3 MB
FEATURE_CHUNK = 1024


def fallback_vector(token: str, d_w: int, seed: int) -> np.ndarray:
    """Unit-norm vector from a seeded hash of the token; stable across runs."""
    if d_w <= 0:
        raise HetlinkError("dimension must be positive")
    digest = hashlib.sha256(f"{seed}:{token}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    vec = rng.standard_normal(d_w)
    norm = np.linalg.norm(vec)
    if norm == 0.0:  # unreachable for continuous draws, kept for safety
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


class WordVectorStore:
    """token -> vector map with a deterministic fallback for OOV tokens."""

    def __init__(self, vectors: dict[str, np.ndarray], dim: int):
        for tok, vec in vectors.items():
            if vec.shape != (dim,):
                raise HetlinkError(f"vector for {tok!r} has dim {vec.shape}, expected ({dim},)")
        self._vectors = {t: np.asarray(v, dtype=np.float64) for t, v in vectors.items()}
        self.dim = dim

    def __contains__(self, token: str) -> bool:
        return token in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def get(self, token: str) -> np.ndarray:
        vec = self._vectors.get(token)
        if vec is None:
            vec = fallback_vector(token, self.dim, FALLBACK_SEED)
        return vec

    def columns(self, path) -> dict[str, np.ndarray]:
        """The store as the arrays of the .npz file `path`: `tokens`, a text
        column (hetgraph.text_column) of its tokens in sorted order, and
        `vectors`, a float64 matrix with one row per token.  HetlinkError
        for a token with a line break."""
        tokens = sorted(self._vectors)
        return {"tokens": text_column(tokens, "tokens", path),
                "vectors": np.array([self._vectors[t] for t in tokens]).reshape(-1, self.dim)}

    @classmethod
    def from_columns(cls, arrays: dict[str, np.ndarray], path) -> "WordVectorStore":
        """The store of `columns`' arrays, read from the .npz file `path`
        with their dtypes and dimensions checked: exactly what was stored.
        Arrays that `columns` could not have written end in HetlinkError
        "<path>: <what is wrong>"."""
        vectors = arrays["vectors"]
        if vectors.shape[1] < 1:
            raise HetlinkError(f"{path}: 'vectors' has no columns")
        names = column_lines(arrays, "tokens", len(vectors), path)
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise HetlinkError(f"{path}: row {row} ({names[row]!r}): non-finite float")
        store = cls(dict(zip(names, vectors)), vectors.shape[1])
        if len(store) != len(names):
            raise HetlinkError(f"{path}: duplicate token {Counter(names).most_common(1)[0][0]!r}")
        return store


def load_word_vectors(path) -> WordVectorStore:
    """Load text-format word vectors: one `token f1 f2 ...` line per token.
    `ingest --wordvecs` reads this format; a bundle holds WordVectorStore.columns'."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            tok, floats = parts[0], parts[1:]
            try:
                vec = np.array(list(map(float, floats)), dtype=np.float64)
            except ValueError:
                raise HetlinkError(f"{path}:{lineno}: unparsable float") from None
            if not np.isfinite(vec).all():
                raise HetlinkError(f"{path}:{lineno}: non-finite float")
            if dim is None:
                dim = len(vec)
                if dim == 0:
                    raise HetlinkError(f"{path}:{lineno}: no floats on first line")
            elif len(vec) != dim:
                raise HetlinkError(f"{path}:{lineno}: dim {len(vec)} != {dim}")
            if tok in vectors:
                raise HetlinkError(f"{path}:{lineno}: duplicate token {tok!r}")
            vectors[tok] = vec
    if dim is None:
        raise HetlinkError(f"{path}: empty word-vector file")
    return WordVectorStore(vectors, dim)


def sif_weight(token: str, freqs: dict[str, float]) -> float:
    """Unseen tokens count as DEFAULT_UNSEEN_P."""
    return DEFAULT_SIF_A / (DEFAULT_SIF_A + freqs.get(token, DEFAULT_UNSEEN_P))


def term_embedding(term, store: WordVectorStore, freqs: dict[str, float]) -> np.ndarray:
    """Frequency-weighted mean of the constituent word vectors.

    No program path calls it: init_node_features computes the same rows in
    batches, and tests compare the two bit for bit."""
    tokens = tokenize(term) if isinstance(term, str) else list(term)
    if not tokens:
        raise HetlinkError("empty term")
    weights = np.array([sif_weight(t, freqs) for t in tokens])
    vecs = np.stack([store.get(t) for t in tokens])
    return weights @ vecs / weights.sum()


def init_node_features(graph: HeteroGraph, store: WordVectorStore,
                       freqs: dict[str, float]) -> np.ndarray:
    """One row per node (in node-id order): term_embedding of the node's
    name, bit for bit.  The names of one token count are weighted together,
    FEATURE_CHUNK at a time, as one batched product over the vectors and SIF
    weights of the tokens the names use.  The array is read-only, so
    encodings computed from it can be reused."""
    names = graph.node_columns()[2]
    out = np.zeros((len(names), store.dim))
    vocab: dict[str, int] = {}
    by_count: dict[int, tuple[list, list]] = {}     # token count -> (rows, token ids)
    for row, name in enumerate(names):
        tokens = name.split(" ")        # names are normalized: tokens one space apart
        rows, toks = by_count.setdefault(len(tokens), ([], []))
        rows.append(row)
        toks.append([vocab.setdefault(t, len(vocab)) for t in tokens])
    vectors = np.array([store.get(t) for t in vocab]).reshape(len(vocab), store.dim)
    weights = np.array([sif_weight(t, freqs) for t in vocab])
    for rows, toks in by_count.values():
        rows, toks = np.array(rows), np.array(toks)
        for lo in range(0, len(rows), FEATURE_CHUNK):
            chunk = toks[lo:lo + FEATURE_CHUNK]
            w = weights[chunk]
            out[rows[lo:lo + FEATURE_CHUNK]] = ((w[:, None, :] @ vectors[chunk])[:, 0]
                                                / w.sum(1, keepdims=True))
    out.flags.writeable = False
    return out


def random_word_vectors(vocab, dim: int, seed: int = 0) -> WordVectorStore:
    """Gaussian vectors for a known vocabulary, drawn from `seed`; handy for
    synthetic corpora."""
    rng = np.random.default_rng(seed)
    vectors = {tok: rng.standard_normal(dim) / np.sqrt(dim) for tok in sorted(set(vocab))}
    return WordVectorStore(vectors, dim)
