"""PDDL export: a fixed domain document plus per-level problem files.

The domain models block patterns as predicates over location objects; walls
are simply not exported, which keeps the grounded state space small.  The
grid is described declaratively through `next` adjacency facts.  Gravity and
matching are forced by flag predicates derived from the current state: falls
fire while anything is floating, matches fire next, and only then may the
player move a block; only moves increase the plan metric.
"""

from __future__ import annotations

from puzznic import engine
from puzznic.engine import WALL, Grid
from puzznic.levels import char_table

DOMAIN_NAME = "puzznic"

_DOMAIN = """\
(define (domain puzznic)
  (:requirements :typing :equality :adl :derived-predicates :action-costs)
  (:types location direction pattern)
  (:constants up down left right - direction)
  (:predicates
    (patterned ?l - location ?p - pattern)
    (next ?from ?to - location ?dir - direction)
    (free ?l - location)
    (falling_flag)
    (matching_flag))
  (:functions (total-cost) - number)

  ; a location is free if no pattern occupies it
  (:derived (free ?l - location)
    (forall (?p - pattern) (not (patterned ?l ?p))))

  ; is there something that needs to fall?
  (:derived (falling_flag)
    (exists (?l1 ?l2 - location)
      (and (next ?l1 ?l2 down) (not (free ?l1)) (free ?l2))))

  ; is there something that needs to match?
  (:derived (matching_flag)
    (exists (?l1 ?l2 - location ?p - pattern ?d - direction)
      (and (next ?l1 ?l2 ?d) (patterned ?l1 ?p) (patterned ?l2 ?p))))

  (:action fall_block
    :parameters (?l1 ?l2 - location ?p - pattern)
    :precondition (and
      (falling_flag)
      (next ?l1 ?l2 down)
      (patterned ?l1 ?p)
      (free ?l2))
    :effect (and
      (not (patterned ?l1 ?p))
      (patterned ?l2 ?p)))

  (:action match_blocks
    :parameters ()
    :precondition (and
      (not (falling_flag))
      (matching_flag))
    :effect (and
      (forall (?l1 - location ?p - pattern)
        (when
          (exists (?l2 - location ?d - direction)
            (and (next ?l1 ?l2 ?d) (patterned ?l1 ?p) (patterned ?l2 ?p)))
          (not (patterned ?l1 ?p))))))

  (:action move_block
    :parameters (?l ?tl - location ?d - direction ?p - pattern)
    :precondition (and
      (not (falling_flag))
      (not (matching_flag))
      (or (= ?d right) (= ?d left))
      (patterned ?l ?p)
      (next ?l ?tl ?d)
      (free ?tl))
    :effect (and
      (not (patterned ?l ?p))
      (patterned ?tl ?p)
      (increase (total-cost) 1))))
"""

_DIRS = (("right", 0, 1), ("left", 0, -1), ("up", -1, 0), ("down", 1, 0))


def export_pddl_domain() -> str:
    """The fixed domain document (byte-stable)."""
    return _DOMAIN


def _loc(r: int, c: int) -> str:
    return f"loc_{r}_{c}"


def adjacency_facts(grid: Grid) -> list[tuple[str, str, str]]:
    """(from, to, dir) triples for orthogonal non-wall neighbours."""
    cells = [(r, c) for r, c in grid.interior() if grid.at(r, c) != WALL]
    facts = []
    for r, c in cells:
        for dname, dr, dc in _DIRS:
            if grid.at(r + dr, c + dc) != WALL:  # the perimeter is all wall
                facts.append((_loc(r, c), _loc(r + dr, c + dc), dname))
    return facts


def export_pddl_problem(level: Grid, name: str, symbols=None) -> str:
    """Problem document: one location object per non-wall cell, adjacency
    facts, the initial patterned facts, the clear-everything goal, and the
    move-count metric."""
    engine.QuiescentState(level)  # raises EngineError unless quiescent
    cells = [(r, c) for r, c in level.interior() if level.at(r, c) != WALL]
    chars = char_table(symbols)
    pat = {p: f"pat_{chars[p].lower()}" for p in sorted(engine.pattern_counts(level))}
    facts = adjacency_facts(level)

    lines = [f"(define (problem {name})", f"  (:domain {DOMAIN_NAME})"]
    objects = ["  (:objects"]
    if cells:
        objects.append("    " + " ".join(_loc(r, c) for r, c in cells) + " - location")
    if pat:
        objects.append("    " + " ".join(pat.values()) + " - pattern")
    objects.append("  )")
    lines.extend(objects)
    lines.append("  (:init")
    lines.append("    (= (total-cost) 0)")
    for a, b, d in facts:
        lines.append(f"    (next {a} {b} {d})")
    for r, c in cells:
        v = level.at(r, c)
        if v > engine.EMPTY:
            lines.append(f"    (patterned {_loc(r, c)} {pat[v]})")
    lines.append("  )")
    lines.append(
        "  (:goal (forall (?l - location)"
        " (not (exists (?p - pattern) (patterned ?l ?p)))))"
    )
    lines.append("  (:metric minimize (total-cost)))")
    return "\n".join(lines) + "\n"
