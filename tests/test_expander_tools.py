import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

import oracles as orc
from corepath import expander_tools as xt
from corepath.graph_core import DynamicGraph, GraphView, UnknownEdge, cut_stats


def view(n, edges):
    return GraphView(DynamicGraph.from_edges(n, edges))


def induced(edges, keep):
    return [(u, v) for u, v in edges if u in keep and v in keep]


def boundary_initial(p, s):
    """Edges of the pruning's initial graph that leave s."""
    return sum(1 for u in s for v in p.adj0[u] if v not in s)


def remainder_edges(p):
    """Live edges between unpruned vertices."""
    rem = set(p.remainder())
    return [(u, v) for u in rem for v in p.adj[u] if v in rem and u < v]


def cross_edges(edges, clusters):
    """Edges whose endpoints sit in different clusters."""
    cidx = {v: i for i, cl in enumerate(clusters) for v in cl}
    return sum(1 for u, v in edges if cidx[u] != cidx[v])


def witness_conductance(w):
    """Exact conductance of a witness multigraph, parallel copies counted."""
    return orc.conductance_exact(w.vertex_list(), w.edge_list())[0]


def embedding_caps(emb):
    """(length, congestion) measured from the embedding's paths."""
    usage = Counter(frozenset(e) for path in emb.guest_edges.values()
                    for e in zip(path, path[1:]))
    length = max((len(path) - 1 for path in emb.guest_edges.values()), default=0)
    return length, max(usage.values(), default=0)


# EXACT_CAP enumerates every cut at these sizes; 4 sends the same inputs
# through the sampled cut family
CAPS = (xt.EXACT_CAP, 4)


class TestParams:
    def test_for_size_uses_polylog_gamma(self):
        p = xt.ExpanderParams.for_size(8)
        assert p.gamma == Fraction(64)  # (1 + log2 8)^3
        assert p.phi == Fraction(1, 256)
        assert xt.gamma_value(1) == 1

    def test_invalid_combinations_rejected(self):
        with pytest.raises(ValueError):
            xt.ExpanderParams(phi=Fraction(3, 2), gamma=Fraction(1))
        with pytest.raises(ValueError):
            xt.ExpanderParams(phi=Fraction(1, 2), gamma=Fraction(4))  # phi*gamma > 1


class TestCutOrCertify:
    def test_k8_certified_with_exact_sparsity(self):
        res = xt.cut_or_certify(view(8, orc.gen_complete(8)))
        assert isinstance(res, xt.Certified)
        assert res.s == frozenset(range(8))
        got, _ = orc.sparsity_exact(sorted(res.s), orc.gen_complete(8))
        assert got == Fraction(4)  # |S|=4 cut: 16 crossing / 4

    def test_two_cliques_split_along_bridge(self):
        res = xt.cut_or_certify(view(10, orc.gen_two_cliques_bridge(5)))
        assert isinstance(res, xt.BalancedCut)
        assert {res.a, res.b} == {frozenset(range(5)), frozenset(range(5, 10))}
        assert res.crossing == 1

    def test_single_edge_certified(self):
        res = xt.cut_or_certify(view(2, [(0, 1)]))
        assert isinstance(res, xt.Certified)
        assert res.s == frozenset({0, 1})

    def test_singleton_graph(self):
        res = xt.cut_or_certify(view(1, []))
        assert isinstance(res, xt.Certified)

    def test_branch_contracts_on_random_graphs(self):
        for cap, seed in product(CAPS, range(25)):
            n = 3 + seed % 12
            edges = orc.gen_gnp_connected(n, 0.4, 100 + seed)
            params = xt.ExpanderParams.for_size(n, exact_cap=cap)
            res = xt.cut_or_certify(view(n, edges), params)
            if isinstance(res, xt.BalancedCut):
                assert res.a | res.b == frozenset(range(n)) and not (res.a & res.b)
                assert len(res.a) >= 2 and len(res.a) <= len(res.b)
                assert 4 * len(res.a) >= n
                assert res.crossing <= max(1, n // 100)
                assert res.crossing == len(
                    [e for e in edges if (e[0] in res.a) != (e[1] in res.a)]
                )
            else:
                assert 2 * len(res.s) >= n
                assert len(xt._components(sorted(res.s), [
                    (u, v, 1) for u, v in induced(edges, res.s)])) == 1
                if n > cap:
                    continue  # a sampled family can misjudge the peel
                # the peel starts at the whole graph and keeps its best set
                got, _ = orc.sparsity_exact(sorted(res.s), induced(edges, res.s))
                assert got >= orc.sparsity_exact(range(n), edges)[0]


def no_sweep_cuts(monkeypatch):
    """The sampled family without its sweep prefixes: singletons and
    radius-1/2 balls only."""
    family = xt._candidate_cuts
    monkeypatch.setattr(xt, "_candidate_cuts",
                        lambda verts, adj, order: family(verts, adj, []))


class TestDisconnectedCertificate:
    """A family without a zero-boundary split can leave the peel with a
    disconnected set; cut_or_certify checks components itself."""

    @pytest.mark.parametrize("n,edges,parts", [
        (25, [(2 * i, 2 * i + 1) for i in range(12)], 13),
        (24, [(6 * k + i, 6 * k + (i + 1) % 6)
              for k in range(4) for i in range(6)], 4),
    ], ids=["12-edges-and-a-lone-vertex", "four-6-cycles"])
    def test_whole_components_make_a_balanced_cut(self, monkeypatch, n,
                                                  edges, parts):
        no_sweep_cuts(monkeypatch)
        verts = list(range(n))
        triples = [(u, v, 1) for u, v in edges]
        comps = xt._components(verts, triples)
        assert len(comps) == parts
        # the peel alone keeps the whole graph
        half = math.ceil(n / 2)
        assert xt._peel(frozenset(verts), triples, half,
                        xt.EXACT_CAP) == frozenset(verts)
        res = xt.cut_or_certify(view(n, edges))
        assert isinstance(res, xt.BalancedCut)
        assert res.crossing == 0 and not (res.a & res.b)
        assert res.a | res.b == frozenset(verts)
        assert len(res.b) >= len(res.a) >= max(2, math.ceil(n / 4))
        assert all(c <= res.a or c <= res.b for c in comps)

    def test_unbalanced_components_peel_inside_the_largest(self):
        # three lone vertices: no split leaves two on each side, and no
        # connected set holds half of them
        res = xt.cut_or_certify(xt.MultiGraph(range(3)))
        assert res == xt.Certified(frozenset({0}))


class TestCutPlayerRound:
    def test_empty_witness_splits_evenly(self):
        move = xt.cut_player_round(xt.MultiGraph(range(8)))
        assert not move.terminal
        assert move.a == frozenset(range(4)) and move.b == frozenset(range(4, 8))

    def test_expander_witness_is_terminal(self):
        w = xt.MultiGraph(range(8))
        for u, v in orc.gen_complete(8):
            w.add_edge(u, v)
        move = xt.cut_player_round(w)
        assert move.terminal
        assert move.a == frozenset() and move.b == frozenset(range(8))

    def test_game_terminates_under_adversarial_matchings(self):
        # random pairing adversary; witness quality checked exactly
        for n, trials in ((8, 12), (16, 8)):
            params = xt.ExpanderParams.for_size(n)
            cap = xt.C_ROUNDS * max(1, (n - 1).bit_length())
            for seed in range(trials):
                rng = random.Random(7000 + 31 * seed + n)
                w = xt.MultiGraph(range(n))
                played = None
                for r in range(cap):
                    move = xt.cut_player_round(w, params)
                    if move.terminal:
                        played = r + 1
                        break
                    assert len(move.a) == n // 2
                    bs = sorted(move.b)
                    rng.shuffle(bs)
                    for av, bv in zip(sorted(move.a), bs):
                        w.add_edge(av, bv)
                assert played is not None
                assert witness_conductance(w) >= Fraction(1) / params.gamma

    def test_certified_sets_are_connected_halves(self):
        """embed_expander plays the cut player on 4 or more terminals.
        Over every simple graph on 4 and 5 vertices, and over seeded
        G(n, 0.3) draws and unions of random matchings on 7 to 30
        vertices, a certified set is connected and holds at least half
        the vertices; three lone vertices certify one (above)."""
        graphs = [xt.MultiGraph(range(n), [e for j, e in enumerate(pairs)
                                           if mask >> j & 1])
                  for n in (4, 5)
                  for pairs in [list(combinations(range(n), 2))]
                  for mask in range(1 << len(pairs))]
        for seed in range(30):
            rng = random.Random(900 + seed)
            n = rng.randint(7, 30)
            w = xt.MultiGraph(range(n))
            if seed % 2:
                for u, v in combinations(range(n), 2):
                    if rng.random() < 0.3:
                        w.add_edge(u, v)
            else:
                for _ in range(1 + seed % 5):
                    order = list(range(n))
                    rng.shuffle(order)
                    for a, b in zip(order[::2], order[1::2]):
                        w.add_edge(a, b)
            graphs.append(w)
        certified = Counter()
        for w in graphs:
            res = xt.cut_or_certify(w)
            if isinstance(res, xt.Certified):
                edges = w.edge_list()
                idx = {v: i for i, v in enumerate(sorted(res.s))}
                inside = [(idx[u], idx[v]) for u, v in edges
                          if u in idx and v in idx]
                assert 2 * len(idx) >= w.n, (edges, res)
                assert orc.is_connected(len(idx), inside), (edges, res)
                certified[w.n > 5] += 1
        assert certified[False] and certified[True]

    def test_terminal_move_keeps_half_from_four_vertices(self):
        """On 4 or more vertices the terminal move (V - S, S) has S of at
        least ceil(n/2) vertices, so a move like the b = {0} of three lone
        vertices cannot reach embed_expander.  300 seeded multigraphs on 4
        to 14 vertices, parallel edges allowed; a move that is not
        terminal splits V into n // 2 and the rest."""
        moves = Counter()
        for seed in range(300):
            rng = random.Random(4100 + seed)
            n = rng.randint(4, 14)
            w = xt.MultiGraph(range(n))
            for _ in range(rng.randint(0, 3 * n)):
                w.add_edge(*rng.sample(range(n), 2))
            move = xt.cut_player_round(w)
            assert move.a | move.b == frozenset(range(n)), seed
            assert not move.a & move.b, seed
            if move.terminal:
                assert 2 * len(move.b) >= n, (seed, w.edge_list(), move)
                moves["certified part" if move.a else "certified all"] += 1
            else:
                assert len(move.a) == n // 2, seed
                moves["cut"] += 1
        assert moves["certified part"] and moves["certified all"] and \
            moves["cut"], moves

    def test_witness_conductance_agrees_with_oracle(self):
        w = xt.MultiGraph(range(6))
        for u, v in [(0, 3), (1, 4), (2, 5), (0, 4), (1, 5), (2, 3)]:
            w.add_edge(u, v)
        want = witness_conductance(w)
        assert want == Fraction(1, 3)
        for cap, target in product(CAPS, (want - Fraction(1, 12), want,
                                          want + Fraction(1, 12))):
            ok = xt._witness_ok(w, target, cap)
            if cap >= 6:
                assert ok == (want >= target)
            else:  # a sampled family only sees some cuts: it may overaccept
                assert ok or want < target

    def test_witness_check_matches_exact_conductance(self):
        # unions of random matchings with parallel copies, a lone vertex
        # of degree 0, and an edgeless witness
        checked = Counter()
        for cap, seed in product(CAPS, range(12)):
            rng = random.Random(400 + seed)
            n = 4 + seed % 5
            w = xt.MultiGraph(range(n))
            for _ in range(1 + seed % 3):
                order = list(range(n))
                rng.shuffle(order)
                for a, b in zip(order[::2], order[1::2]):
                    w.add_edge(a, b)
            if seed % 4 == 3:
                w.add_vertex(n)  # degree 0
            want = witness_conductance(w)
            for target in {Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), want}:
                if target <= 0:
                    continue
                ok = xt._witness_ok(w, target, cap)
                if w.n <= cap:
                    assert ok == (want >= target), (cap, seed, target)
                    checked[ok] += 1
                else:
                    assert ok or want < target, (cap, seed, target)
            if seed % 4 == 3:
                assert not xt._witness_ok(w, Fraction(1, 100), cap)
        assert checked[True] and checked[False]
        for cap in CAPS:
            assert not xt._witness_ok(xt.MultiGraph(range(5)), Fraction(1, 100), cap)


class TestMatchingOrCut:
    def test_k8_full_matching_single_call(self):
        g = view(8, orc.gen_complete(8))
        out = xt.matching_or_cut(g, {0, 1}, {2, 3}, 12)
        assert isinstance(out, xt.MatchOutcome)
        assert out.pairs == ((0, 2), (1, 3))
        assert out.paths == ((0, 2), (1, 3))  # direct edges

    def test_bridged_cliques_small_ell_returns_cut(self):
        g = view(8, orc.gen_two_cliques_bridge(4))
        out = xt.matching_or_cut(g, {0, 1}, {4, 5}, 2)
        assert isinstance(out, xt.CutOutcome)
        assert out.x == {1}
        assert out.x and out.y and not (out.x & out.y)
        assert out.conductance == cut_stats(g, out.x).conductance
        # lg(13) floors at 3.7; the stated bound is vacuous here but must hold
        assert out.conductance <= Fraction(24 * 4, 2)

    def test_cut_grows_without_the_harvested_bridge(self):
        # the one harvested path 0-4 crosses the bridge; the leftover seeds
        # 1 and 5 are 3 <= ell apart through it, so the ball cut is only
        # sound in the graph minus the harvested edges
        g = view(8, orc.gen_two_cliques_bridge(4))
        out = xt.matching_or_cut(g, {0, 1}, {4, 5}, 3)
        assert isinstance(out, xt.CutOutcome)
        assert out.x == {1}
        assert out.conductance == cut_stats(g, out.x).conductance

    def test_empty_a_side(self):
        g = view(6, orc.gen_complete(6))
        out = xt.matching_or_cut(g, set(), {1, 2}, 8)
        assert out.pairs == () and out.paths == ()

    def test_preconditions(self):
        g = view(6, orc.gen_complete(6))
        with pytest.raises(ValueError):
            xt.matching_or_cut(g, {0, 1}, {1, 2}, 8)
        with pytest.raises(ValueError):
            xt.matching_or_cut(g, {0, 1, 2}, {3, 4}, 8)

    def test_ell_below_one_rejected(self):
        g = view(4, orc.gen_path(4))
        for ell in (0, -1):
            with pytest.raises(ValueError, match="ell"):
                xt.matching_or_cut(g, {0}, {3}, ell)

    def test_match_paths_are_short_and_edge_disjoint(self):
        for seed in range(15):
            n = 8 + seed % 5
            edges = orc.gen_gnp_connected(n, 0.5, 300 + seed)
            g = view(n, edges)
            rng = random.Random(seed)
            verts = list(range(n))
            rng.shuffle(verts)
            a, b = set(verts[:2]), set(verts[2:5])
            ell = 3 * n
            out = xt.matching_or_cut(g, a, b, ell)
            assert isinstance(out, xt.MatchOutcome)
            eset = {frozenset(e) for e in edges}
            seen = set()
            for (av, bv), path in zip(out.pairs, out.paths):
                assert path[0] == av and path[-1] == bv
                assert len(path) - 1 <= ell
                for u, v in zip(path, path[1:]):
                    assert frozenset((u, v)) in eset
                    assert frozenset((u, v)) not in seen  # congestion 1
                    seen.add(frozenset((u, v)))
            assert {p[0] for p in out.pairs} == a


class TestBallCut:
    def test_long_path_prefix_ball(self):
        g = view(12, orc.gen_path(12))
        z = xt.ball_cut(g, {0}, {11}, 9)
        assert z == frozenset({0})
        st_ = cut_stats(g, z)
        assert st_.conductance < Fraction(8 * 4, 9)  # lg(11) < 4
        assert min(st_.vol_s, st_.vol_rest) == st_.vol_s

    def test_distance_precondition(self):
        g = view(5, orc.gen_path(5))
        with pytest.raises(xt.DistancePreconditionViolated):
            xt.ball_cut(g, {0}, {4}, 6)

    def test_ell_below_one_rejected(self):
        g = view(4, orc.gen_path(4))
        for ell in (0, -1):
            with pytest.raises(ValueError, match="ell"):
                xt.ball_cut(g, {0}, {3}, ell)

    def test_disconnected_returns_whole_component(self):
        edges = orc.gen_path(4) + [(u + 4, v + 4) for u, v in orc.gen_path(6)]
        g = view(10, edges)
        z = xt.ball_cut(g, {0}, {9}, 150)
        assert z == frozenset({0, 1, 2, 3})
        assert cut_stats(g, z).conductance == 0

    def test_postconditions_on_grids(self):
        edges = orc.gen_grid(3, 7)
        g = view(21, edges)
        for ell in (3, 4, 6):
            z = xt.ball_cut(g, {0}, {20}, ell)
            st_ = cut_stats(g, z)
            vol = sum(g.degree(v) for v in range(21))
            assert 2 * st_.vol_s <= vol or 2 * st_.vol_rest <= vol
            assert {0} <= z or {20} <= z
            side_vol = st_.vol_s if 0 in z else st_.vol_rest
            assert st_.boundary * ell < 8 * 6 * side_vol  # lg(32) < 6


class TestTerminalMatching:
    def test_k6_direct_edges(self):
        g = view(6, orc.gen_complete(6))
        pairs, emb = xt.terminal_matching(g, {0, 1}, {2, 3}, Fraction(1, 2))
        assert pairs == [(0, 2), (1, 3)]
        assert embedding_caps(emb) == (1, 1)

    def test_caps_hold(self):
        g = view(6, orc.gen_complete(6))
        _, emb = xt.terminal_matching(g, {0, 1, 2}, {3, 4, 5}, Fraction(1, 2))
        ell = -(-32 * 4 // 1) * 2  # generous: ceil(32 lg(15)/ phi)
        length, congestion = embedding_caps(emb)
        assert length <= ell and congestion <= ell * ell

    def test_false_expander_claim_surfaces_cut(self):
        edges = orc.gen_complete(3) + [(u + 3, v + 3) for u, v in orc.gen_complete(3)]
        g = view(6, edges)
        with pytest.raises(xt.UnexpectedSparseCut) as ei:
            xt.terminal_matching(g, {0}, {3}, Fraction(1, 2))
        x, y = ei.value.cut
        assert {x, y} == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
        assert ei.value.conductance == 0
        assert cut_stats(g, x).conductance < Fraction(1, 2)

    def test_overlap_rejected(self):
        g = view(4, orc.gen_complete(4))
        with pytest.raises(ValueError):
            xt.terminal_matching(g, {0}, {0, 1}, Fraction(1, 2))


class TestEmbedExpander:
    def test_two_terminals(self):
        res = xt.embed_expander(view(8, orc.gen_complete(8)), {0, 5}, Fraction(1, 2))
        assert res.witness.distinct_edges() == [(0, 5, 1)]
        assert res.rounds == 1
        assert list(res.embedding.guest_edges.values()) == [(0, 5)]

    def test_all_of_k8(self):
        res = xt.embed_expander(view(8, orc.gen_complete(8)), set(range(8)), Fraction(1, 2))
        assert res.rounds == 4
        w = res.witness
        cond = witness_conductance(w)
        assert cond == Fraction(1, 3) and cond >= Fraction(1) / xt.gamma_value(8)
        assert max(w.degree(u) for u in w.vertex_list()) <= res.rounds
        assert embedding_caps(res.embedding) == (1, 1)

    def test_single_terminal(self):
        res = xt.embed_expander(view(8, orc.gen_complete(8)), {3}, Fraction(1, 2))
        assert res.rounds == 0
        assert res.witness.vertex_list() == [3]
        assert not res.embedding.guest_edges

    def test_sparse_cut_propagates(self):
        edges = orc.gen_complete(3) + [(u + 3, v + 3) for u, v in orc.gen_complete(3)]
        with pytest.raises(xt.UnexpectedSparseCut):
            xt.embed_expander(view(6, edges), {0, 3}, Fraction(1, 2))

    def test_witness_quality_on_random_expanders(self):
        for seed in (1, 2, 3):
            n = 10
            edges = orc.gen_random_regular(n, 4, seed)
            g = view(n, edges)
            res = xt.embed_expander(g, set(range(n)), Fraction(1, 4))
            assert witness_conductance(res.witness) >= Fraction(1) / xt.gamma_value(n)
            params = xt.ExpanderParams.for_size(n)
            length, congestion = embedding_caps(res.embedding)
            assert length <= math.ceil(xt.C_L * math.log2(g.m) / float(params.phi))
            assert congestion <= params.congestion_cap(g.m)


class TestDecompose:
    def test_k6_single_cluster(self):
        res = xt.expander_decompose(view(6, orc.gen_complete(6)), Fraction(1, 4))
        assert res.clusters == (frozenset(range(6)),)
        assert res.quality_ok

    def test_bridged_cliques_split(self):
        for cap in CAPS:
            params = xt.ExpanderParams(phi=Fraction(1, 4), gamma=Fraction(4), exact_cap=cap)
            edges = orc.gen_two_cliques_bridge(5)
            res = xt.expander_decompose(view(10, edges), Fraction(1, 4), params)
            assert set(res.clusters) == {frozenset(range(5)), frozenset(range(5, 10))}
            assert cross_edges(edges, res.clusters) == 1
            assert res.quality_ok

    def test_star_contract_post_hoc(self):
        edges = [(0, i) for i in range(1, 9)]
        g = view(9, edges)
        res = xt.expander_decompose(g, Fraction(1, 2))
        vol = {v: g.degree(v) for v in range(9)}
        for cl in res.clusters:
            ok, _ = orc.is_strong_expander_exact(sorted(cl), induced(edges, cl), vol, Fraction(1, 2))
            assert ok
        # default params: gamma = 1/phi, so the budget is m
        assert res.quality_ok and cross_edges(edges, res.clusters) <= len(edges)

    def test_contract_on_random_graphs(self):
        # the sparse draws have cuts below phi, the dense ones do not
        splits = {cap: 0 for cap in CAPS}
        for cap, seed, p in product(CAPS, range(12), (0.35, 0.15)):
            n = 6 + seed % 7
            edges = orc.gen_gnp_connected(n, p, 900 + seed)
            g = view(n, edges)
            phi = Fraction(1, 4)
            params = xt.ExpanderParams(phi=phi, gamma=Fraction(4), exact_cap=cap)
            res = xt.expander_decompose(g, phi, params)
            splits[cap] += len(res.clusters) > 1
            allv = set()
            for cl in res.clusters:
                assert not (cl & allv)
                allv |= cl
            assert allv == set(range(n))
            vol = {v: g.degree(v) for v in range(n)}
            for cl in res.clusters:
                if len(cl) > cap:
                    continue  # certified by the sampled family only
                ok, _ = orc.is_strong_expander_exact(sorted(cl), induced(edges, cl), vol, phi)
                assert ok
            budget = params.gamma * phi * len(edges)
            assert res.quality_ok == (cross_edges(edges, res.clusters) <= budget)
        assert all(splits.values()), splits


class TestPruning:
    def test_zero_deletions(self):
        p = xt.prune_init(view(5, orc.gen_complete(5)), Fraction(1, 2))
        assert p.pruned_set == frozenset()

    def test_k5_single_deletion_within_bullets(self):
        p = xt.prune_init(view(5, orc.gen_complete(5)), Fraction(1, 2))
        newly = xt.prune_delete(p, (0, 1))
        s = p.pruned_set
        assert set(newly) == s
        assert p.vol_initial(s) <= 16  # 8*1/phi
        assert boundary_initial(p, s) <= 4

    def test_budget_exhaustion_destroys(self):
        p = xt.prune_init(view(5, orc.gen_complete(5)), Fraction(1, 2))
        xt.prune_delete(p, (0, 1))
        with pytest.raises(xt.DeletionBudgetExhausted):
            xt.prune_delete(p, (2, 3))
        assert p.pruned_set == frozenset(range(5))

    def test_unknown_edge_at_budget_limit_changes_nothing(self):
        p = xt.prune_init(view(5, orc.gen_complete(5)), Fraction(1, 2))
        xt.prune_delete(p, (0, 1))
        pruned, adj = p.pruned_set, {u: set(vs) for u, vs in p.adj.items()}
        for e in ((0, 1), (1, 0), (0, 9)):
            with pytest.raises(UnknownEdge):
                xt.prune_delete(p, e)
            assert (p.pruned_set, p.adj, p.t) == (pruned, adj, 1)
        with pytest.raises(xt.DeletionBudgetExhausted):
            xt.prune_delete(p, (2, 3))
        assert p.pruned_set == frozenset(range(5))

    def test_bullets_and_remainder_under_fuzz(self):
        phi = Fraction(1, 2)
        for cap, seed in product(CAPS, (5, 6)):
            exact = cap >= 16
            edges = orc.gen_complete(16)
            g = view(16, edges)
            p = xt.prune_init(g, phi, xt.ExpanderParams(phi=phi, gamma=Fraction(2),
                                                        exact_cap=cap))
            assert p.budget == 6
            rng = random.Random(seed)
            alive = sorted(edges)
            prev = frozenset()
            for t in range(1, p.budget + 1):
                e = alive.pop(rng.randrange(len(alive)))
                xt.prune_delete(p, e)
                s = p.pruned_set
                assert prev <= s
                prev = s
                rem = p.remainder()
                comps = orc.connected_components(16, remainder_edges(p))
                assert len(rem) <= 1 or any(set(rem) <= set(c) for c in comps)
                if exact:
                    assert p.vol_initial(s) <= 8 * t / phi
                    assert boundary_initial(p, s) <= 4 * t
            if exact:
                vol0 = {v: 15 for v in range(16)}
                ok, _ = orc.is_strong_expander_exact(
                    rem, remainder_edges(p), vol0, phi / 6
                )
                assert ok

    def test_sampled_pruning_takes_the_least_volume_side(self, monkeypatch):
        # two cliques joined by two bridges; once one bridge goes, the
        # other one is a cut below phi/6 and the smaller clique is the
        # least-volume violating side, found here by the sampled family
        sampled_hits = []
        rows_of = xt._violation_rows

        def spy(tab, phi):
            rows = rows_of(tab, phi)
            if tab.nv > 4 and rows.size:  # above exact_cap: sampled
                sampled_hits.append(rows.size)
            return rows

        monkeypatch.setattr(xt, "_violation_rows", spy)
        phi = Fraction(1, 2)
        for big, small_first in product((7, 8), (True, False)):
            n = 6 + big
            small = list(range(6)) if small_first else list(range(big, n))
            large = [v for v in range(n) if v not in small]
            edges = [(part[a], part[b]) for part in (small, large)
                     for a, b in orc.gen_complete(len(part))]
            edges += [(small[0], large[0]), (small[1], large[1])]
            p = xt.prune_init(view(n, edges), phi, xt.ExpanderParams(
                phi=phi, gamma=Fraction(2), exact_cap=4))
            sampled_hits.clear()
            newly = xt.prune_delete(p, (small[0], large[0]))
            assert sampled_hits
            assert set(newly) == set(small) == p.pruned_set

    def test_sampled_tables_hold_each_cut_once(self, monkeypatch):
        # a side and its complement are one cut; a sampled family that
        # holds both counts its boundary and volume twice
        tables = []
        real = xt._cut_tables

        def spy(*args, **kwargs):
            tab = real(*args, **kwargs)
            if tab.nv > 4:  # above exact_cap: sampled
                tables.append(tab)
            return tab

        monkeypatch.setattr(xt, "_cut_tables", spy)
        small, large = list(range(6)), list(range(6, 13))
        edges = [(part[a], part[b]) for part in (small, large)
                 for a, b in orc.gen_complete(len(part))]
        edges += [(small[0], large[0]), (small[1], large[1])]
        phi = Fraction(1, 2)
        p = xt.prune_init(view(13, edges), phi, xt.ExpanderParams(
            phi=phi, gamma=Fraction(2), exact_cap=4))
        xt.prune_delete(p, (small[0], large[0]))
        assert tables
        for tab in tables:
            rows = {tuple(r) for r in tab.mem.tolist()}
            assert len(rows) == len(tab.mem)
            assert not any(tuple(not b for b in r) in rows for r in rows)

    def test_bullets_on_sparse_graph(self):
        edges = orc.gen_gnp_connected(12, 0.5, 42)
        g = view(12, edges)
        phi = Fraction(1, 2)
        p = xt.prune_init(g, phi)
        rng = random.Random(3)
        alive = sorted(edges)
        for t in range(1, p.budget + 1):
            xt.prune_delete(p, alive.pop(rng.randrange(len(alive))))
            s = p.pruned_set
            assert p.vol_initial(s) <= 8 * t / phi
            assert boundary_initial(p, s) <= 4 * t


class TestSparsityWithMatching:
    def test_cycle_plus_pendant_matching(self):
        # C8 has sparsity 1/2; gluing a pendant matching of 8 fresh
        # vertices keeps it within a factor 2
        c8 = orc.gen_cycle(8)
        base, _ = orc.sparsity_exact(range(8), c8)
        assert base == Fraction(1, 2)
        aug = c8 + [(i, 8 + i) for i in range(8)]
        got, _ = orc.sparsity_exact(range(16), aug)
        assert got == Fraction(1, 4)
        assert got >= base / 4

    def test_random_witnesses_keep_sparsity(self):
        for seed in (0, 1):
            n = 7
            edges = orc.gen_gnp_connected(n, 0.6, 50 + seed)
            base, _ = orc.sparsity_exact(range(n), edges)
            aug = edges + [(i, n + i) for i in range(n)]
            got, _ = orc.sparsity_exact(range(2 * n), aug)
            assert got >= base / 4


def no_count_certificate(monkeypatch):
    monkeypatch.setattr(xt, "_count_certified", lambda *args: False)


def certificate_phis(vol):
    """phi on both sides of phi * vol = 2, equality included, plus the
    blunt 1/4 the other tests use."""
    out = {Fraction(1, 4), Fraction(2, vol), Fraction(2, vol + 1)}
    if vol > 2:
        out.add(Fraction(2, vol - 1))
    return sorted(p for p in out if p <= 1)


def host_with_strays(seed, second_component=True):
    """A seeded G(n, 0.45) draw plus an isolated vertex, and with
    second_component a path on three more vertices, so that pieces hold
    zero-degree vertices, vertices whose host edges all leave the piece,
    and more than one component.  Even seeds draw a connected G(n, 0.45),
    which certifies whole at phi * vol <= 2."""
    n = 7 + seed % 4
    if seed % 2:
        rng = random.Random(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.45]
    else:
        edges = orc.gen_gnp_connected(n, 0.45, seed)
    if not second_component:
        return n + 1, edges  # n stays isolated
    return n + 4, edges + [(n + 1, n + 2), (n + 2, n + 3)]


class TestCountCertificate:
    def test_certified_pieces_have_no_violating_row(self):
        # the certificate against the exact table it stands in for, and
        # its two conditions against a fresh component count
        hits = Counter()
        for seed in range(40):
            n, edges = host_with_strays(seed)
            g = view(n, edges)
            host_deg = {v: g.degree(v) for v in range(n)}
            rng = random.Random(100 + seed)
            piece = sorted(rng.sample(range(n), rng.randint(2, min(n, 10))))
            triples = [(u, v, 1) for u, v in induced(edges, set(piece))]
            vol = sum(host_deg[v] for v in piece)
            live = [v for v in piece if host_deg[v] > 0]
            comps = [c for c in orc.connected_components(
                n, [(u, v) for u, v, _ in triples]) if set(c) & set(live)]
            for phi in certificate_phis(max(vol, 1)):
                got = xt._count_certified(piece, triples, host_deg, phi)
                assert got == (len(comps) <= 1 and phi * vol <= 2), \
                    (seed, piece, phi)
                hits[got, phi * vol == 2] += 1
                if got:
                    tab = xt._CutTables(piece, triples, host_deg)
                    assert xt._violation_rows(tab, phi).size == 0
        # certified at equality, and refused on both counts
        assert hits[True, True] and hits[False, True] and hits[False, False]

    def test_lone_positive_vertex_certifies(self):
        # a piece whose only positive-degree vertex has all its host
        # edges outside the piece, next to a zero-degree vertex
        host_deg = {0: 3, 1: 0}
        assert xt._count_certified([0, 1], [], host_deg, Fraction(2, 3))
        assert not xt._count_certified([0, 1], [], host_deg, Fraction(3, 4))
        assert not xt._count_certified([0, 1, 2], [], {0: 1, 1: 0, 2: 1},
                                       Fraction(1, 100))

    def test_decompose_matches_without_certificate(self, monkeypatch):
        cases = []
        for cap, seed, second in product(CAPS, range(10), (True, False)):
            n, edges = host_with_strays(seed, second)
            g = view(n, edges)
            for phi in certificate_phis(2 * len(edges)):
                params = xt.ExpanderParams(phi=phi, gamma=min(Fraction(4), 1 / phi),
                                           exact_cap=cap)
                cases.append((g, phi, params, xt.expander_decompose(g, phi, params)))
        no_count_certificate(monkeypatch)
        for g, phi, params, res in cases:
            assert xt.expander_decompose(g, phi, params) == res

    def test_pruning_teardown_matches_without_certificate(self, monkeypatch):
        def teardown(edges, n, phi, cap, seed):
            p = xt.prune_init(view(n, edges), phi, xt.ExpanderParams(
                phi=phi, gamma=min(Fraction(2), 1 / phi), exact_cap=cap))
            order = sorted(edges)
            random.Random(seed).shuffle(order)
            out = []
            for e in order:
                try:
                    out.append(xt.prune_delete(p, e))
                except xt.DeletionBudgetExhausted:
                    out.append("exhausted")
                    break
            return out, p.pruned_set

        runs = []
        for cap, seed, second in product(CAPS, range(6), (True, False)):
            n, edges = host_with_strays(seed, second)
            vol0 = 2 * len(edges)
            # pruning certifies at phi/6, so these put phi/6 * vol on
            # both sides of 2
            for phi in sorted({Fraction(1, 2)} | {
                    Fraction(12, v) for v in (vol0 - 1, vol0, vol0 + 1)
                    if Fraction(12, v) <= 1}):
                runs.append(((edges, n, phi, cap, seed),
                             teardown(edges, n, phi, cap, seed)))
        no_count_certificate(monkeypatch)
        for args, got in runs:
            assert teardown(*args) == got, args


def blobs_or_gnp(seed):
    """A seeded connected graph on 8-14 vertices: G(n, p) for even seeds,
    two G(n/2, 0.6) blobs joined by one or two bridges for odd ones."""
    rng = random.Random(seed)
    n = 8 + seed % 7
    if seed % 2 == 0:
        return n, orc.gen_gnp_connected(n, rng.choice([0.25, 0.35, 0.5]), seed)
    a = n // 2
    right = orc.gen_gnp_connected(n - a, 0.6, seed + 1)
    bridges = {(rng.randrange(a), rng.randrange(a, n))
               for _ in range(1 + seed // 2 % 2)}
    return n, (orc.gen_gnp_connected(a, 0.6, seed)
               + [(u + a, v + a) for u, v in right] + sorted(bridges))


class TestSampledFamily:
    def test_cheeger_bound_against_the_exact_table(self):
        # with host degrees equal to piece degrees, the family's least
        # ordinary conductance is at most 2*sqrt(phi_exact): Cheeger's
        # hard direction, which a sweep of the exact second eigenvector
        # guarantees and the power-iteration sweep is held to here
        # (worst ratio to the bound about 0.4 over 300 such graphs)
        for seed in range(40):
            n, edges = blobs_or_gnp(seed)
            triples = [(u, v, 1) for u, v in edges]
            tab = xt._cut_tables(list(range(n)), triples, 4)
            assert tab.nv > 4 and len(tab.size) < 2 ** (n - 1)  # sampled
            den = tab.min_vol()
            got = min(Fraction(int(b), int(d))
                      for b, d in zip(tab.boundary, den) if d > 0)
            exact = orc.conductance_exact(list(range(n)), edges)[0]
            assert got ** 2 <= 4 * exact, (seed, got, exact)

    def test_sweep_cuts_find_the_bridge_between_two_cubes(self):
        # two 4-cubes joined by the edge (15, 16): each cube has diameter
        # 4, so no ball of radius 2 covers one, and only a sweep prefix
        # holds the bridge cut; without the sweeps the least boundary is 4
        cube = [(v, v ^ (1 << k)) for v in range(16) for k in range(4)
                if v < v ^ (1 << k)]
        edges = cube + [(u + 16, v + 16) for u, v in cube] + [(15, 16)]
        tab = xt._cut_tables(list(range(32)), [(u, v, 1) for u, v in edges],
                             xt.EXACT_CAP)
        assert tab.nv > xt.EXACT_CAP  # sampled
        assert any(int(b) == 1 and int(k) == 16
                   for b, k in zip(tab.boundary, tab.size))
