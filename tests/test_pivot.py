import random

import pytest

from pivotsmt.phrasetab import PhraseEntry, PhraseTable, moses_dumps, read_moses, write_moses
from pivotsmt.pivot import TriangulationConfig, triangulate

from oracles import triangulate_reference

LOOSE = TriangulationConfig(min_score=0.0, top_k=10 ** 6)


def table_from(entries, **kwargs):
    table = PhraseTable(**kwargs)
    for (src, tgt), scores in entries.items():
        table.add(PhraseEntry(tuple(src.split()), tuple(tgt.split()), *scores))
    return table


def as_dict(table):
    return {(e.source, e.target): e.scores() for e in table}


def random_table(rng, n_src, n_tgt, max_entries, src_prefix, tgt_prefix):
    entries = {}
    for _ in range(max_entries):
        src = f"{src_prefix}{rng.randrange(n_src)}"
        tgt = f"{tgt_prefix}{rng.randrange(n_tgt)}"
        entries[(src, tgt)] = tuple(rng.random() for _ in range(4))
    return entries


class TestTriangulate:
    def test_identity_chain(self):
        src_pivot = table_from({("e1", "u1"): (1.0, 1.0, 1.0, 1.0)})
        pivot_tgt = table_from({("h1", "e1"): (1.0, 1.0, 1.0, 1.0)})
        out = triangulate(src_pivot, pivot_tgt, LOOSE)
        assert as_dict(out) == {(("h1",), ("u1",)): (1.0, 1.0, 1.0, 1.0)}

    def test_two_pivot_sum(self):
        src_pivot = table_from({
            ("e1", "u1"): (0.5,) * 4,
            ("e2", "u1"): (0.5,) * 4,
        })
        pivot_tgt = table_from({
            ("h1", "e1"): (0.4,) * 4,
            ("h1", "e2"): (0.6,) * 4,
        })
        out = triangulate(src_pivot, pivot_tgt, LOOSE)
        entry = out.get(("h1",))[0]
        assert entry.phi_tgt_given_src == pytest.approx(0.5 * 0.4 + 0.5 * 0.6)
        assert entry.phi_tgt_given_src == pytest.approx(0.5)

    def test_moses_round_trip_with_lexical_weights_above_one(self, tmp_path):
        # two pivots: the phrase probabilities sum to 1, the lexical weights to 1.62
        pivot_tgt = table_from({("e1", "u1"): (1.0, 0.9, 1.0, 0.9),
                                ("e2", "u1"): (1.0, 0.9, 1.0, 0.9)})
        src_pivot = table_from({("h1", "e1"): (0.5, 0.9, 0.5, 0.9),
                                ("h1", "e2"): (0.5, 0.9, 0.5, 0.9)})
        out = triangulate(pivot_tgt, src_pivot, LOOSE)
        assert as_dict(out)[(("h1",), ("u1",))] == pytest.approx((1.0, 1.62, 1.0, 1.62))
        path = str(tmp_path / "triangulated.moses")
        write_moses(out, path)
        back = read_moses(path)
        assert moses_dumps(back) == moses_dumps(out)
        entry, = back
        assert entry.scores() == pytest.approx((1.0, 1.62, 1.0, 1.62))

    def test_disjoint_pivots_empty(self):
        src_pivot = table_from({("e1", "u1"): (1.0,) * 4})
        pivot_tgt = table_from({("h1", "e9"): (1.0,) * 4})
        assert len(triangulate(src_pivot, pivot_tgt, LOOSE)) == 0

    def test_matches_double_loop_oracle(self):
        rng = random.Random(2024)
        for _ in range(50):
            sp_entries = random_table(rng, 8, 8, rng.randint(1, 60), "e", "u")
            pt_entries = random_table(rng, 8, 8, rng.randint(1, 60), "h", "e")
            out = triangulate(table_from(sp_entries), table_from(pt_entries), LOOSE)
            want = triangulate_reference(
                {(s, t): v for (s, t), v in sp_entries.items()},
                {(s, t): v for (s, t), v in pt_entries.items()},
            )
            got = {(src[0], tgt[0]): scores for (src, tgt), scores in as_dict(out).items()}
            assert set(got) == set(want)
            for key, scores in got.items():
                for a, b in zip(scores, want[key]):
                    assert a == pytest.approx(b, abs=1e-12)

    def test_mass_bound_on_stochastic_inputs(self):
        rng = random.Random(7)
        pivots = [f"e{i}" for i in range(5)]
        outs = [f"u{i}" for i in range(4)]
        srcs = [f"h{i}" for i in range(3)]

        def stochastic(rows, cols):
            entries = {}
            for row in rows:
                raw = [rng.random() + 0.01 for _ in cols]
                total = sum(raw)
                for col, value in zip(cols, raw):
                    p = value / total
                    entries[(row, col)] = (p, p, p, p)
            return entries

        # conditioning rows: src_pivot conditions on pivot phrases,
        # pivot_tgt conditions on output-source phrases
        sp = table_from(stochastic(pivots, outs))
        pt = table_from(stochastic(srcs, pivots))
        out = triangulate(sp, pt, LOOSE)
        for src in out.sources():
            total = sum(e.phi_tgt_given_src for e in out.get(src))
            assert total == pytest.approx(1.0, abs=1e-9)
        # after thresholding the mass can only shrink
        thresholded = triangulate(sp, pt, TriangulationConfig(min_score=0.05, top_k=10 ** 6))
        for src in thresholded.sources():
            total = sum(e.phi_tgt_given_src for e in thresholded.get(src))
            assert total <= 1.0 + 1e-9

    def test_threshold_monotone(self):
        rng = random.Random(3)
        sp = table_from(random_table(rng, 5, 5, 40, "e", "u"))
        pt = table_from(random_table(rng, 5, 5, 40, "h", "e"))
        sizes = []
        for threshold in (0.0, 0.05, 0.2, 0.5):
            out = triangulate(sp, pt, TriangulationConfig(min_score=threshold,
                                                          top_k=10 ** 6))
            sizes.append(len(out))
        assert sizes == sorted(sizes, reverse=True)

    def test_transpose_symmetry(self):
        rng = random.Random(11)
        sp_entries = random_table(rng, 4, 4, 25, "e", "u")
        pt_entries = random_table(rng, 4, 4, 25, "h", "e")

        def transpose(entries):
            return {(t, s): (v[2], v[3], v[0], v[1])
                    for (s, t), v in entries.items()}

        out = triangulate(table_from(sp_entries), table_from(pt_entries), LOOSE)
        flipped = triangulate(table_from(transpose(pt_entries)),
                              table_from(transpose(sp_entries)), LOOSE)
        got = as_dict(out)
        via_transpose = {
            (tgt, src): (v[2], v[3], v[0], v[1])
            for (src, tgt), v in as_dict(flipped).items()
        }
        assert set(got) == set(via_transpose)
        for key in got:
            for a, b in zip(got[key], via_transpose[key]):
                assert a == pytest.approx(b, abs=1e-12)

    def test_top_k_applied(self):
        sp = table_from({(f"e0", f"u{i}"): (0.1 * (i + 1),) * 4 for i in range(5)})
        pt = table_from({("h0", "e0"): (1.0,) * 4})
        out = triangulate(sp, pt, TriangulationConfig(min_score=0.0, top_k=2))
        assert len(out.get(("h0",))) == 2

    def test_role_marked(self):
        sp = table_from({("e1", "u1"): (1.0,) * 4})
        pt = table_from({("h1", "e1"): (1.0,) * 4})
        assert triangulate(sp, pt, LOOSE).role == "triangulated"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TriangulationConfig(min_score=1.5)
        with pytest.raises(ValueError):
            TriangulationConfig(top_k=0)

