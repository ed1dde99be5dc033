from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import LEVELS_DIR, corpus_paths
from puzznic import engine, levels
from puzznic.engine import LEFT, RIGHT, Move

A13_DOC = "#####\n#R.R#\n#P.B#\n##.##\n#...#\n#B.P#\n#####\n"
A13_SPACES = "#####\n#R R#\n#P B#\n## ##\n#   #\n#B P#\n#####\n"
# `render_trace` of 7x6-desk-cascade after Move(3, 5, LEFT): a move, then
# two rounds of fall and match; B is pattern 1 and R pattern 2.
CASCADE_TRACE = (
    "    0 #######\n"
    "    0 #.....#\n"
    "    0 #.B.R.#\n"
    "    0 ##R.#.#\n"
    "    0 #.B#..#\n"
    "    0 #######\n"
    "\n"
    "M   1 #######\n"
    "M   1 #.....#\n"
    "M   1 #.BR..#\n"
    "M   1 ##R.#.#\n"
    "M   1 #.B#..#\n"
    "M   1 #######\n"
    "\n"
    "F   2 #######\n"
    "F   2 #.....#\n"
    "F   2 #.B...#\n"
    "F   2 ##RR#.#\n"
    "F   2 #.B#..#\n"
    "F   2 #######\n"
    "\n"
    "*   3 #######\n"
    "*   3 #.....#\n"
    "*   3 #.B...#\n"
    "*   3 ##..#.#\n"
    "*   3 #.B#..#\n"
    "*   3 #######\n"
    "\n"
    "F   4 #######\n"
    "F   4 #.....#\n"
    "F   4 #.....#\n"
    "F   4 ##B.#.#\n"
    "F   4 #.B#..#\n"
    "F   4 #######\n"
    "\n"
    "*   5 #######\n"
    "*   5 #.....#\n"
    "*   5 #.....#\n"
    "*   5 ##..#.#\n"
    "*   5 #..#..#\n"
    "*   5 #######\n"
)

# The same trace without its symbol table: ids take the canonical letters.
CASCADE_TRACE_CANONICAL = (
    "    0 #######\n"
    "    0 #.....#\n"
    "    0 #.R.O.#\n"
    "    0 ##O.#.#\n"
    "    0 #.R#..#\n"
    "    0 #######\n"
    "\n"
    "M   1 #######\n"
    "M   1 #.....#\n"
    "M   1 #.RO..#\n"
    "M   1 ##O.#.#\n"
    "M   1 #.R#..#\n"
    "M   1 #######\n"
    "\n"
    "F   2 #######\n"
    "F   2 #.....#\n"
    "F   2 #.R...#\n"
    "F   2 ##OO#.#\n"
    "F   2 #.R#..#\n"
    "F   2 #######\n"
    "\n"
    "*   3 #######\n"
    "*   3 #.....#\n"
    "*   3 #.R...#\n"
    "*   3 ##..#.#\n"
    "*   3 #.R#..#\n"
    "*   3 #######\n"
    "\n"
    "F   4 #######\n"
    "F   4 #.....#\n"
    "F   4 #.....#\n"
    "F   4 ##R.#.#\n"
    "F   4 #.R#..#\n"
    "F   4 #######\n"
    "\n"
    "*   5 #######\n"
    "*   5 #.....#\n"
    "*   5 #.....#\n"
    "*   5 ##..#.#\n"
    "*   5 #..#..#\n"
    "*   5 #######\n"
)


class TestParseLevel:
    def test_all_wall(self):
        lf = levels.parse_level("###\n###\n###\n")
        assert all(v == engine.WALL for row in lf.grid.cells for v in row)

    def test_dot_on_border_rejected(self):
        with pytest.raises(levels.NoPerimeter):
            levels.parse_level("##.\n#.#\n###\n")

    def test_a13_counts(self):
        lf = levels.parse_level(A13_DOC)
        by_char = {
            ch: engine.pattern_counts(lf.grid)[pid] for ch, pid in lf.symbol_table.items()
        }
        assert by_char == {"R": 2, "P": 2, "B": 2}

    def test_spaces_equal_dots(self):
        assert levels.parse_level(A13_SPACES).grid == levels.parse_level(A13_DOC).grid

    def test_digit_aliases(self):
        # digit k is the k-th canonical pattern letter
        a = levels.parse_level("####\n#11#\n####\n", pre_resolve=True)
        b = levels.parse_level("####\n#RR#\n####\n", pre_resolve=True)
        assert a.grid == b.grid

    def test_bad_char_position(self):
        with pytest.raises(levels.BadChar) as exc:
            levels.parse_level("####\n#x.#\n####\n")
        assert (exc.value.row, exc.value.col) == (2, 2)

    def test_short_lines_padded_with_walls(self):
        lf = levels.parse_level("####\n#.#\n####\n")
        assert lf.grid.at(2, 4) == engine.WALL

    def test_too_large(self):
        doc = "\n".join(["#" * 40] * 5) + "\n"
        with pytest.raises(levels.TooLarge):
            levels.parse_level(doc)

    def test_floating_block_rejected(self):
        with pytest.raises(levels.NotQuiescent):
            levels.parse_level("####\n#R.#\n#..#\n####\n")

    def test_pending_match_rejected(self):
        with pytest.raises(levels.NotQuiescent):
            levels.parse_level("####\n#RR#\n####\n")

    def test_pre_resolve_clears_the_pending_match(self):
        lf = levels.parse_level("####\n#RR#\n####\n", pre_resolve=True)
        assert engine.is_goal(lf.grid)

    def test_bom_stripped(self):
        lf = levels.parse_level("﻿###\n#.#\n###\n")
        assert lf.grid.at(2, 2) == engine.EMPTY

    @settings(max_examples=120, deadline=None)
    @given(st.binary(max_size=200))
    def test_parser_totality_on_bytes(self, raw):
        text = raw.decode("utf-8", errors="replace")
        try:
            levels.parse_level(text)
        except levels.LevelError:
            pass  # exactly one structured diagnostic is acceptable


class TestEmitLevel:
    def test_round_trip_canonical_docs(self):
        for path in corpus_paths():
            doc = path.read_text()
            lf = levels.parse_level(doc)
            assert levels.emit_level(lf.grid, lf.symbol_table) == doc

    def test_all_wall_grid(self):
        lf = levels.parse_level("###\n###\n###\n")
        assert levels.emit_level(lf.grid) == "###\n###\n###\n"

    def test_a13_golden(self):
        bundled = (LEVELS_DIR / "5x7-ps1-a13.txt").read_text()
        lf = levels.parse_level(bundled)
        assert levels.emit_level(lf.grid, lf.symbol_table) == bundled == A13_DOC

    def test_canonical_symbols_without_table(self):
        lf = levels.parse_level("####\n#PP#\n####\n", pre_resolve=True)
        g = lf.grid.replace({(2, 2): 1, (2, 3): engine.EMPTY})
        g2, _, _ = engine.resolve(g)
        assert "R" in levels.emit_level(g2.grid)

    def test_remapped_symbols_pinned(self):
        # digits read as their letters; ids follow first appearance, not
        # the alphabet, so the canonical rendering renames every pattern
        lf = levels.parse_level("#######\n#3.B..#\n#L#6.1#\n#######\n")
        assert lf.symbol_table == {"Y": 1, "B": 2, "L": 3, "V": 4, "R": 5}
        assert levels.emit_level(lf.grid, lf.symbol_table) == "#######\n#Y.B..#\n#L#V.R#\n#######\n"
        assert levels.emit_level(lf.grid) == "#######\n#R.O..#\n#Y#G.B#\n#######\n"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip_random_quiescent(self, seed):
        # identity holds up to renaming ids into first-appearance order
        state = oracles.random_quiescent(random.Random(seed))
        relabel: dict[int, int] = {}
        for r, c in state.grid.interior():
            v = state.grid.at(r, c)
            if v > engine.EMPTY and v not in relabel:
                relabel[v] = len(relabel) + 1
        canonical = state.grid.replace(
            {
                (r, c): relabel[state.grid.at(r, c)]
                for r, c in state.grid.interior()
                if state.grid.at(r, c) > engine.EMPTY
            }
        )
        doc = levels.emit_level(state.grid)
        assert levels.parse_level(doc).grid == canonical
        assert levels.parse_level(doc).grid == levels.parse_level(
            levels.emit_level(levels.parse_level(doc).grid)
        ).grid


class TestPlans:
    def test_empty_document(self):
        assert levels.parse_plan("") == []

    def test_single_move(self):
        assert levels.parse_plan("3 2 R\n") == [Move(3, 2, RIGHT)]

    def test_comments_and_blanks_ignored(self):
        assert levels.parse_plan("# header\n\n3 2 L\n") == [Move(3, 2, LEFT)]

    def test_bad_line_reports_number(self):
        with pytest.raises(levels.BadMoveLine) as exc:
            levels.parse_plan("3 2 R\n3 2 X\n")
        assert exc.value.lineno == 2

    def test_round_trip_ten_moves(self):
        rng = random.Random(7)
        moves = [
            Move(rng.randint(2, 9), rng.randint(2, 9), rng.choice([LEFT, RIGHT]))
            for _ in range(10)
        ]
        assert levels.parse_plan(levels.emit_plan(moves)) == moves


class TestRenderTrace:
    def test_empty_trace_initial_only(self):
        lf = levels.parse_level("###\n#.#\n###\n")
        text = levels.render_trace(engine.Trace(initial=lf.grid, events=()))
        assert text == "    0 ###\n    0 #.#\n    0 ###\n"

    def test_move_event_tagged_m(self, corpus):
        lf = corpus["5x3-desk-corridor"]
        state = engine.QuiescentState(lf.grid)
        _, trace, _ = engine.apply_move(state, Move(2, 2, RIGHT))
        text = levels.render_trace(trace, lf.symbol_table)
        assert "M   1 " in text

    def test_cascade_shows_match_blocks_in_order(self, corpus):
        lf = corpus["7x6-desk-cascade"]
        state = engine.QuiescentState(lf.grid)
        _, trace, matches = engine.apply_move(state, Move(3, 5, LEFT))
        assert matches == 2
        text = levels.render_trace(trace, lf.symbol_table)
        stars = [ln for ln in text.splitlines() if ln.startswith("*")]
        assert stars  # match steps rendered with '*'
        assert text.index("M   1") < text.index("*")

    def test_cascade_text_pinned(self, corpus):
        lf = corpus["7x6-desk-cascade"]
        _, trace, _ = engine.apply_move(engine.QuiescentState(lf.grid), Move(3, 5, LEFT))
        assert levels.render_trace(trace, lf.symbol_table) == CASCADE_TRACE
        assert levels.render_trace(trace) == CASCADE_TRACE_CANONICAL

    def test_deterministic(self, corpus):
        lf = corpus["6x3-desk-gap3"]
        state = engine.QuiescentState(lf.grid)
        _, trace, _ = engine.apply_move(state, Move(2, 2, RIGHT))
        assert levels.render_trace(trace) == levels.render_trace(trace)
