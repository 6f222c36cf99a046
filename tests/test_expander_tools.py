import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from corepath import expander_tools as xt
from corepath.graph_core import DynamicGraph, GraphView, cut_stats


def view(n, edges):
    return GraphView(DynamicGraph.from_edges(n, edges))


def induced(edges, keep):
    return [(u, v) for u, v in edges if u in keep and v in keep]


# EXACT_CAP enumerates every cut at these sizes; 4 sends the same inputs
# through the seeded sampled cut family
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

    def test_path_len_cap_formula(self):
        p = xt.ExpanderParams(phi=Fraction(1, 2), gamma=Fraction(2))
        # ceil(32 * lg(16) / (1/2)) = ceil(32 * 4 * 2)
        assert p.path_len_cap(16) == 256


class TestStrongExpander:
    def test_k4_is_two_thirds_expander(self):
        g = view(4, orc.gen_complete(4))
        ok, wit = xt.is_strong_expander(g, g, Fraction(2, 3))
        assert ok and wit is None

    def test_k4_fails_at_three_quarters_with_valid_witness(self):
        g = view(4, orc.gen_complete(4))
        ok, wit = xt.is_strong_expander(g, g, Fraction(3, 4))
        assert not ok
        st_ = cut_stats(g, wit)
        assert Fraction(st_.boundary, min(st_.vol_s, st_.vol_rest)) < Fraction(3, 4)

    def test_path_inside_clique_uses_host_volumes(self):
        host = view(4, orc.gen_complete(4))
        sub = view(3, [(0, 1), (1, 2)])
        ok, wit = xt.is_strong_expander(sub, host, Fraction(1, 2))
        # endpoint {0}: one sub edge over host volume 3
        assert not ok
        assert wit in (frozenset({0}), frozenset({2}))

    def test_single_vertex_vacuous(self):
        host = view(4, orc.gen_complete(4))
        sub = view(1, [])
        assert xt.is_strong_expander(sub, host, Fraction(1)) == (True, None)

    def test_cap_enforced(self):
        g = view(22, orc.gen_path(22))
        with pytest.raises(xt.TooLargeForExactCheck):
            xt.is_strong_expander(g, g, Fraction(1, 2))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), num=st.integers(1, 4))
    def test_verdict_matches_enumeration(self, seed, num):
        n = 5 + seed % 3
        edges = orc.gen_gnp_connected(n, 0.55, seed)
        g = view(n, edges)
        phi = Fraction(num, 4)
        ok, wit = xt.is_strong_expander(g, g, phi)
        vol = {v: g.degree(v) for v in range(n)}
        exp_ok, _ = orc.is_strong_expander_exact(list(range(n)), edges, vol, phi)
        assert ok == exp_ok
        if not ok:
            bnd = len([e for e in edges if (e[0] in wit) != (e[1] in wit)])
            lo = min(sum(vol[v] for v in wit), sum(vol[v] for v in range(n) if v not in wit))
            assert lo == 0 or Fraction(bnd, lo) < phi


class TestCutOrCertify:
    def test_k8_certified_with_exact_sparsity(self):
        res = xt.cut_or_certify(view(8, orc.gen_complete(8)))
        assert isinstance(res, xt.Certified)
        assert res.s == frozenset(range(8))
        assert res.psi_star == Fraction(4)  # |S|=4 cut: 16 crossing / 4
        assert res.psi_star >= 2

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
                sub = induced(edges, res.s)
                got, _ = orc.sparsity_exact(sorted(res.s), sub)
                assert res.sampled == (n > cap)
                # a sampled family only sees some cuts, so it can overestimate
                assert got <= res.psi_star if res.sampled else got == res.psi_star


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
        assert move.certificate == Fraction(4)

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
                cond, exact = xt.multigraph_conductance(w)
                assert exact and cond >= Fraction(1) / params.gamma

    def test_witness_conductance_agrees_with_oracle(self):
        w = xt.MultiGraph(range(6))
        for u, v in [(0, 3), (1, 4), (2, 5), (0, 4), (1, 5), (2, 3)]:
            w.add_edge(u, v)
        vol = {v: w.degree(v) for v in range(6)}
        want, _ = orc.conductance_exact(range(6), w.edge_list(), vol=vol)
        for cap in CAPS:
            cond, exact = xt.multigraph_conductance(w, cap=cap)
            assert exact == (cap >= 6)
            assert cond == want if exact else cond >= want


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
        assert out.x and out.y and not (out.x & out.y)
        assert out.conductance == cut_stats(g, out.x).conductance
        # lg(13) floors at 3.7; the stated bound is vacuous here but must hold
        assert out.conductance <= Fraction(24 * 4, 2)

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
        assert emb.length == 1 and emb.congestion == 1
        assert emb.recompute() == (1, 1)

    def test_caps_hold(self):
        g = view(6, orc.gen_complete(6))
        _, emb = xt.terminal_matching(g, {0, 1, 2}, {3, 4, 5}, Fraction(1, 2))
        ell = -(-32 * 4 // 1) * 2  # generous: ceil(32 lg(15)/ phi)
        assert emb.length <= ell and emb.congestion <= ell * ell

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
        assert res.exact and res.conductance == Fraction(1, 3)
        assert res.conductance >= Fraction(1) / xt.gamma_value(8)
        assert res.witness.max_degree() <= res.rounds
        assert (res.embedding.length, res.embedding.congestion) == res.embedding.recompute()

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
            assert res.conductance >= Fraction(1) / xt.gamma_value(n)
            params = xt.ExpanderParams.for_size(n)
            assert res.embedding.length <= params.path_len_cap(g.m)
            assert res.embedding.congestion <= params.congestion_cap(g.m)


class TestDecompose:
    def test_k6_single_cluster(self):
        res = xt.expander_decompose(view(6, orc.gen_complete(6)), Fraction(1, 4))
        assert res.clusters == (frozenset(range(6)),)
        assert res.boundary_edges == 0 and res.quality_ok

    def test_bridged_cliques_split(self):
        for cap in CAPS:
            params = xt.ExpanderParams(phi=Fraction(1, 4), gamma=Fraction(4), exact_cap=cap)
            g = view(10, orc.gen_two_cliques_bridge(5))
            res = xt.expander_decompose(g, Fraction(1, 4), params)
            assert set(res.clusters) == {frozenset(range(5)), frozenset(range(5, 10))}
            assert res.boundary_edges == 1
            assert res.quality_ok

    def test_star_contract_post_hoc(self):
        edges = [(0, i) for i in range(1, 9)]
        g = view(9, edges)
        res = xt.expander_decompose(g, Fraction(1, 2))
        vol = {v: g.degree(v) for v in range(9)}
        for cl in res.clusters:
            ok, _ = orc.is_strong_expander_exact(sorted(cl), induced(edges, cl), vol, Fraction(1, 2))
            assert ok
        assert res.boundary_edges <= res.budget

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
            cidx = {v: i for i, cl in enumerate(res.clusters) for v in cl}
            cross = len([e for e in edges if cidx[e[0]] != cidx[e[1]]])
            assert res.boundary_edges == cross
            assert res.quality_ok == (cross <= res.budget)
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
        assert p.boundary_initial(s) <= 4

    def test_budget_exhaustion_destroys(self):
        p = xt.prune_init(view(5, orc.gen_complete(5)), Fraction(1, 2))
        xt.prune_delete(p, (0, 1))
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
                comps = orc.connected_components(16, p.remainder_edge_list())
                assert len(rem) <= 1 or any(set(rem) <= set(c) for c in comps)
                if exact:
                    assert p.vol_initial(s) <= 8 * t / phi
                    assert p.boundary_initial(s) <= 4 * t
            if exact:
                vol0 = {v: 15 for v in range(16)}
                ok, _ = orc.is_strong_expander_exact(
                    rem, p.remainder_edge_list(), vol0, phi / 6
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
            if not tab.exact and rows.size:
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
            assert p.boundary_initial(s) <= 4 * t


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
