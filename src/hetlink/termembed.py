"""Initial node feature vectors from composite terms.

Features are SIF-style frequency-weighted means of per-token word vectors:
weight(w) = a / (a + p(w)) with a = DEFAULT_SIF_A.  Out-of-vocabulary tokens
get a unit vector from a hash of the token seeded with FALLBACK_SEED, so
lookups are total and every store embeds them alike.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .hetgraph import HeteroGraph, tokenize

DEFAULT_SIF_A = 1e-3
DEFAULT_UNSEEN_P = 1e-4
FALLBACK_SEED = 0


class TermEmbedError(Exception):
    pass


def fallback_vector(token: str, d_w: int, seed: int) -> np.ndarray:
    """Unit-norm vector from a seeded hash of the token; stable across runs."""
    if d_w <= 0:
        raise TermEmbedError("dimension must be positive")
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
                raise TermEmbedError(f"vector for {tok!r} has dim {vec.shape}, expected ({dim},)")
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

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in sorted(self._vectors):
                floats = " ".join(map(repr, self._vectors[tok].tolist()))
                fh.write(f"{tok} {floats}\n")


def load_word_vectors(path) -> WordVectorStore:
    """Load text-format word vectors: one `token f1 f2 ...` line per token."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            tok, floats = parts[0], parts[1:]
            try:
                vec = np.array(list(map(float, floats)), dtype=np.float64)
            except ValueError:
                raise TermEmbedError(f"{path}:{lineno}: unparsable float") from None
            if not np.isfinite(vec).all():
                raise TermEmbedError(f"{path}:{lineno}: non-finite float")
            if dim is None:
                dim = len(vec)
                if dim == 0:
                    raise TermEmbedError(f"{path}:{lineno}: no floats on first line")
            elif len(vec) != dim:
                raise TermEmbedError(f"{path}:{lineno}: dim {len(vec)} != {dim}")
            vectors[tok] = vec  # duplicate tokens: last wins
    if dim is None:
        raise TermEmbedError(f"{path}: empty word-vector file")
    return WordVectorStore(vectors, dim)


class FrequencyTable:
    """Normalized unigram frequencies p(w); unseen tokens get DEFAULT_UNSEEN_P."""

    def __init__(self, freqs: dict[str, float]):
        for tok, p in freqs.items():
            if p < 0:
                raise TermEmbedError(f"negative frequency for {tok!r}")
        self._freqs = dict(freqs)

    def p(self, token: str) -> float:
        return self._freqs.get(token, DEFAULT_UNSEEN_P)

    @classmethod
    def from_corpus(cls, token_lists) -> "FrequencyTable":
        counts: dict[str, int] = {}
        total = 0
        for tokens in token_lists:
            for tok in tokens:
                counts[tok] = counts.get(tok, 0) + 1
                total += 1
        if total == 0:
            return cls({})
        return cls({t: c / total for t, c in counts.items()})

    @classmethod
    def from_graph(cls, graph: HeteroGraph) -> "FrequencyTable":
        """Frequencies from the KB's own name/synonym corpus."""
        lists = []
        for node in graph.nodes():
            lists.append(node.name)
            lists.extend(node.synonyms)
        return cls.from_corpus(lists)

    @classmethod
    def load_tsv(cls, path) -> "FrequencyTable":
        freqs = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    tok, p = line.split("\t")
                    freqs[tok] = float(p)
                except ValueError:
                    raise TermEmbedError(f"{path}:{lineno}: expected token<TAB>p") from None
                if not 0 <= freqs[tok] < np.inf:
                    raise TermEmbedError(
                        f"{path}:{lineno}: frequency must be finite and >= 0, got {p!r}")
        return cls(freqs)

    def save_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in sorted(self._freqs):
                fh.write(f"{tok}\t{self._freqs[tok]:.12g}\n")


def sif_weight(token: str, freqs: FrequencyTable) -> float:
    return DEFAULT_SIF_A / (DEFAULT_SIF_A + freqs.p(token))


def term_embedding(term, store: WordVectorStore, freqs: FrequencyTable) -> np.ndarray:
    """Frequency-weighted mean of the constituent word vectors."""
    tokens = tokenize(term) if isinstance(term, str) else list(term)
    if not tokens:
        raise TermEmbedError("empty term")
    weights = np.array([sif_weight(t, freqs) for t in tokens])
    vecs = np.stack([store.get(t) for t in tokens])
    return weights @ vecs / weights.sum()


def init_node_features(graph: HeteroGraph, store: WordVectorStore,
                       freqs: FrequencyTable) -> np.ndarray:
    """One row per node (in node-id order); explicit node features win.

    The array is read-only, so encodings computed from it can be reused."""
    if not graph.frozen:
        raise TermEmbedError("graph must be frozen")
    rows = []
    for node in graph.nodes():
        if node.features is not None:
            vec = np.asarray(node.features, dtype=np.float64)
            if vec.shape != (store.dim,):
                raise TermEmbedError(
                    f"node {node.id} preset features have dim {len(vec)}, expected {store.dim}")
            rows.append(vec)
        else:
            rows.append(term_embedding(node.name, store, freqs))
    out = np.stack(rows) if rows else np.zeros((0, store.dim))
    out.flags.writeable = False
    return out


def random_word_vectors(vocab, dim: int, seed: int = 0) -> WordVectorStore:
    """Gaussian vectors for a known vocabulary, drawn from `seed`; handy for
    synthetic corpora."""
    rng = np.random.default_rng(seed)
    vectors = {tok: rng.standard_normal(dim) / np.sqrt(dim) for tok in sorted(set(vocab))}
    return WordVectorStore(vectors, dim)
