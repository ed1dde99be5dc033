from __future__ import annotations

import os
import pathlib
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from puzznic import levels

# CI sets HYPOTHESIS_PROFILE=ci: a failing property then prints the
# `@reproduce_failure` blob that replays it locally.
settings.register_profile("ci", print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

LEVELS_DIR = pathlib.Path(__file__).parent.parent / "src" / "puzznic" / "levels"

# Optimal move counts established by the exhaustive BFS oracle
# (tests/oracles.py); None marks instances proved unsolvable.
CORPUS_OPTIMA: dict[str, int | None] = {
    "3x3-desk-solved": 0,
    "4x3-desk-singleton": None,
    "5x3-desk-corridor": 1,
    "5x5-desk-triple": 1,
    "5x7-ps1-a13": 4,
    "6x3-desk-gap3": 2,
    "6x3-desk-sealed": None,
    "6x5-desk-pit": 1,
    "6x5-desk-stack": 2,
    "7x6-desk-cascade": 1,
    "7x6-desk-walls": 2,
    "8x4-desk-twopat": 3,
    "8x8-desk-big": 3,
}


def corpus_paths() -> list[pathlib.Path]:
    return sorted(LEVELS_DIR.glob("*.txt"))


@pytest.fixture(scope="session")
def corpus() -> dict[str, levels.LevelFile]:
    return {p.stem: levels.load_level(p) for p in corpus_paths()}


@pytest.fixture(scope="session")
def a13(corpus) -> levels.LevelFile:
    return corpus["5x7-ps1-a13"]
