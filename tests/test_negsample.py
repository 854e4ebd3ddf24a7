"""Tests for semantic x structural hard-negative sampling.

The 1-hop edit distance is validated against an exhaustive edit-script
search over the two neighborhood multisets.
"""

import itertools
from collections import Counter

import numpy as np
import pytest

from hetlink import negsample
from hetlink.negsample import (
    HardNegativeSampler,
    ged_1hop,
    neighborhood_signature,
    semantic_similarity,
    draw_excluding,
    structural_similarity,
    uniform_negatives,
)

from conftest import random_hetero_graph


def brute_force_ged(sig_u, sig_v):
    """Cheapest edit script turning sig_u's triple multiset into sig_v's.

    Operations: delete a triple (cost 1), insert a triple (cost 1).  Equal
    triples can be kept for free; the optimal script keeps a maximum
    common sub-multiset, which we find by trying every subset size of the
    intersection (small inputs make this affordable).
    """
    a, b = Counter(sig_u.triples), Counter(sig_v.triples)
    best = None
    common = list((a & b).elements())
    # keep any sub-multiset of the common part; keeping more is never worse,
    # but enumerate everything to stay assumption-free
    for r in range(len(common) + 1):
        for kept in set(itertools.combinations(sorted(common), r)):
            kept_c = Counter(kept)
            if kept_c - a or kept_c - b:
                continue
            cost = (sum((a - kept_c).values())   # deletions
                    + sum((b - kept_c).values()))  # insertions
            best = cost if best is None else min(best, cost)
    if sig_u.center_type != sig_v.center_type:
        best += 1
    return best


# ---------------------------------------------------------------------------
# signatures and distance


def test_signature_collects_typed_neighbor_triples(toy_kb):
    sig = neighborhood_signature(toy_kb, toy_kb.ids["nausea"])
    assert sig.center_type == "AdverseEffect"
    assert ("CAUSE", "Drug", "aspirin") in sig.triples
    assert ("INDICATE", "Finding", "nephrotoxicity") in sig.triples
    assert len(sig.triples) == 4


def test_signature_without_names_blanks_surface(toy_kb):
    sig = neighborhood_signature(toy_kb, toy_kb.ids["nausea"], use_names=False)
    assert all(name == "" for _, _, name in sig.triples)


def test_ged_identical_signatures_is_zero(toy_kb):
    sig = neighborhood_signature(toy_kb, toy_kb.ids["Fever"])
    assert ged_1hop(sig, sig) == 0


def test_ged_center_type_mismatch_adds_one(toy_kb):
    sig_d = neighborhood_signature(toy_kb, toy_kb.ids["Aspirin"])
    sig_f = neighborhood_signature(toy_kb, toy_kb.ids["proteinuria"])
    # proteinuria's single triple differs from both of Aspirin's: all three
    # must be rewritten, plus one for the differing center type.
    assert ged_1hop(sig_d, sig_f) == 2 + 1 + 1


@pytest.mark.parametrize("graph_seed", range(20))
def test_ged_matches_exhaustive_edit_search(graph_seed):
    rng = np.random.default_rng(1000 + graph_seed)
    g = random_hetero_graph(rng, n_nodes=10, n_types=3, n_edge_types=2,
                            edge_prob=0.18, max_degree=5)
    ids = g.node_ids
    u, v = rng.choice(ids, size=2, replace=False)
    sig_u = neighborhood_signature(g, int(u))
    sig_v = neighborhood_signature(g, int(v))
    assert ged_1hop(sig_u, sig_v) == brute_force_ged(sig_u, sig_v)


def test_ged_is_symmetric_and_triangle_like(toy_kb):
    sigs = [neighborhood_signature(toy_kb, v) for v in toy_kb.node_ids]
    for a in sigs:
        for b in sigs:
            assert ged_1hop(a, b) == ged_1hop(b, a)


# ---------------------------------------------------------------------------
# similarity scores


def test_semantic_similarity_bounds_and_extremes():
    emb = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
    assert semantic_similarity(0, 1, emb) == pytest.approx(1.0)
    assert semantic_similarity(0, 2, emb) == pytest.approx(0.0)
    assert semantic_similarity(0, 3, emb) == 0.0   # zero vector -> 0 with warning


def test_structural_similarity_self_is_one(toy_kb):
    for v in toy_kb.node_ids:
        assert structural_similarity(v, v, toy_kb) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# samplers


@pytest.fixture
def toy_emb(toy_kb):
    return np.random.default_rng(3).standard_normal((len(toy_kb), 8))


def test_hard_sampler_ranks_neighbors_by_score(toy_kb, toy_emb):
    sampler = HardNegativeSampler(toy_kb, toy_emb)
    gold = toy_kb.ids["nausea"]
    ranked = sampler.ranked(gold)
    assert [c.node for c in ranked] != []
    sims = [c.sim for c in ranked]
    assert sims == sorted(sims, reverse=True)
    assert {c.node for c in ranked} == toy_kb.neighbors(gold)


@pytest.mark.parametrize("graph_seed", range(5))
def test_hard_sampler_ranks_as_the_per_pair_oracle_with_one_gold_signature(
        graph_seed, monkeypatch):
    rng = np.random.default_rng(2000 + graph_seed)
    g = random_hetero_graph(rng, n_nodes=30, n_types=3, n_edge_types=3, edge_prob=0.2)
    emb = rng.standard_normal((len(g), 8))
    oracle = {}
    for gold in g.node_ids:
        cands = []
        for c in sorted(g.neighbors(gold) - {gold}):
            se = semantic_similarity(*g.rows([gold, c]).tolist(), emb)
            st = structural_similarity(gold, c, g)
            cands.append((c, se, st, se * st))
        oracle[gold] = sorted(cands, key=lambda c: (-c[3], c[0]))
    built = []
    signature = negsample.neighborhood_signature
    monkeypatch.setattr(negsample, "neighborhood_signature",
                        lambda kb, v: (built.append(v), signature(kb, v))[1])
    sampler = HardNegativeSampler(g, emb)
    for gold in g.node_ids:
        built.clear()
        got = [(c.node, c.sim_se, c.sim_st, c.sim) for c in sampler.ranked(gold)]
        assert [tuple(float(x).hex() for x in row) for row in got] == \
            [tuple(float(x).hex() for x in row) for row in oracle[gold]]
        assert sorted(built) == sorted([gold] + [c for c, *_ in got])


def _relabeled(kb, new_id):
    """A copy of `kb` with every node id v renamed new_id(v)."""
    from hetlink.hetgraph import HeteroGraph

    return HeteroGraph.from_rows(
        [(new_id(n.id), n.type, n.surface, [" ".join(s) for s in n.synonyms])
         for n in kb.nodes()],
        [(new_id(e.src), new_id(e.dst), e.type) for e in kb.edges])


def test_hard_sampler_reads_feature_rows_not_node_ids(toy_kb, toy_emb):
    # gapped ids in the same order: node_ids order, and so the feature rows,
    # stay those of toy_kb, but row != id
    def new_id(v):
        return 7 * v + 3

    dense = HardNegativeSampler(toy_kb, toy_emb)
    sparse = HardNegativeSampler(_relabeled(toy_kb, new_id), toy_emb)
    for gold in toy_kb.node_ids:
        want = {new_id(c.node): (c.sim_se, c.sim_st, c.sim) for c in dense.ranked(gold)}
        got = {c.node: (c.sim_se, c.sim_st, c.sim) for c in sparse.ranked(new_id(gold))}
        assert got == want


def test_hard_sampler_tops_up_with_uniform_when_few_neighbors(toy_kb, toy_emb):
    sampler = HardNegativeSampler(toy_kb, toy_emb)
    gold = toy_kb.ids["proteinuria"]          # single neighbor
    negatives, provenance = sampler.sample(gold, 4, np.random.default_rng(0))
    assert len(negatives) == 4
    assert provenance.count("hard") == 1
    assert provenance.count("uniform") == 3
    assert gold not in negatives
    assert len(set(negatives)) == 4
    # the uniform top-up draws what the list-based loop draws, as Python ints
    top = [c.node for c in sampler.ranked(gold)]
    remaining = [n for n in toy_kb.node_ids if n not in set(top) | {gold}]
    picks = np.random.default_rng(0).choice(len(remaining), size=3, replace=False)
    assert negatives == top + [remaining[i] for i in sorted(picks)]
    assert all(type(n) is int for n in negatives)


def test_hard_sampler_top_up_ignores_excluded_ids_outside_the_kb(toy_kb, toy_emb):
    sampler = HardNegativeSampler(toy_kb, toy_emb)
    gold = toy_kb.ids["proteinuria"]
    plain = sampler.sample(gold, 4, np.random.default_rng(0))
    outside = frozenset({max(toy_kb.node_ids) + 1, -1})
    assert sampler.sample(gold, 4, np.random.default_rng(0), exclude=outside) == plain
    # an excluded KB node leaves the top-up pool; the outside ids change nothing
    dropped = toy_kb.ids["Aspirin"]
    top = [c.node for c in sampler.ranked(gold) if c.node != dropped]
    remaining = [n for n in toy_kb.node_ids if n not in set(top) | {gold, dropped}]
    picks = np.random.default_rng(0).choice(len(remaining), size=4 - len(top),
                                            replace=False)
    negatives, _ = sampler.sample(gold, 4, np.random.default_rng(0),
                                  exclude=outside | {dropped})
    assert negatives == top + [remaining[i] for i in sorted(picks)]


def test_hard_sampler_exclude_drops_known_false_negatives(toy_kb, toy_emb):
    sampler = HardNegativeSampler(toy_kb, toy_emb)
    gold = toy_kb.ids["nausea"]
    exclude = frozenset({toy_kb.ids["Aspirin"]})
    rng = np.random.default_rng(0)
    for _ in range(20):
        negatives, _ = sampler.sample(gold, 2, rng, exclude=exclude)
        assert toy_kb.ids["Aspirin"] not in negatives



def test_hard_sampler_is_deterministic_per_seed(toy_kb, toy_emb):
    sampler = HardNegativeSampler(toy_kb, toy_emb)
    golds = [toy_kb.ids["nausea"], toy_kb.ids["Fever"]]

    def draws(seed):
        rng = np.random.default_rng(seed)
        return [sampler.sample(gold, 2, rng)[0] for gold in golds]
    assert draws(5) == draws(5)
    assert draws(5) != draws(6)


def list_draw(kb, gold, k, rng):
    """The uniform epoch's draw as matcher.train made it before
    uniform_negatives: a fresh list of the KB ids but the gold, then one
    rng.choice over it."""
    pool = [n for n in kb.node_ids if n != gold]
    picks = rng.choice(len(pool), size=min(k, len(pool)), replace=False)
    return [pool[j] for j in sorted(picks)]


def mask_draw(rng, n, excluded, k):
    """The draw as the generator's edge draw and uniform_negatives made it
    before draw_excluding: a mask over range(n), a copy of the positions it
    keeps, then one rng.choice over the copy."""
    keep = np.ones(n, dtype=bool)
    keep[excluded] = False
    remaining = np.arange(n)[keep]
    picks = rng.choice(len(remaining), size=min(k, len(remaining)), replace=False)
    return [int(remaining[i]) for i in sorted(picks)]


def test_draw_excluding_equals_the_mask_and_copy_draw():
    cases = np.random.default_rng(11)
    for s in range(400):
        # small ranges, mostly excluded, and a Finding-sized one with a few
        n = int(cases.integers(0, 40)) if s % 2 else 4000
        n_excluded = int(cases.integers(0, n + 1)) if s % 2 else int(cases.integers(0, 3))
        excluded = sorted(cases.choice(n, size=n_excluded, replace=False).tolist())
        k = int(cases.integers(0, n + 3)) if s % 2 else int(cases.integers(0, 4))
        rng, ref = np.random.default_rng(s), np.random.default_rng(s)
        got = draw_excluding(rng, n, excluded, k)
        assert got == mask_draw(ref, n, excluded, k), (n, excluded, k)
        assert all(type(p) is int for p in got)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_uniform_draw_equals_list_reference_with_gold_excluded(toy_kb):
    n = len(toy_kb)
    for k in (1, 3, n - 1, n + 4):
        for gold in toy_kb.node_ids:
            for epoch in range(3):
                rng = np.random.default_rng([7, epoch])
                ref_rng = np.random.default_rng([7, epoch])
                got = uniform_negatives(toy_kb, k, rng, {gold})
                assert got == list_draw(toy_kb, gold, k, ref_rng)
                assert all(type(v) is int for v in got)
                assert gold not in got and len(set(got)) == min(k, n - 1)
                # the generator is left where the reference leaves it, so
                # the epoch's later draws (dropout) are unchanged too
                assert rng.random() == ref_rng.random()


def test_uniform_draw_returns_every_remaining_id_when_fewer_than_k_remain(toy_kb, toy_emb):
    gold = toy_kb.ids["proteinuria"]          # single neighbor
    n = len(toy_kb)
    rest = sorted(set(toy_kb.node_ids) - {gold})
    for k in (n - 1, n, n + 5):
        assert uniform_negatives(toy_kb, k, np.random.default_rng(0), {gold}) == rest
    assert uniform_negatives(toy_kb, 2, np.random.default_rng(0), set(toy_kb.node_ids)) == []
    sampler = HardNegativeSampler(toy_kb, toy_emb)
    for k in (n - 1, n):
        negatives, labels = sampler.sample(gold, k, np.random.default_rng(0))
        assert sorted(negatives) == rest
        # the one neighbor is hard; the top-up's draws, all it returned, uniform
        assert labels == ["hard"] + ["uniform"] * (n - 2)


