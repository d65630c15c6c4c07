"""Seeded inputs for the three benchmark workloads.

Every generator takes the benchmark seed and returns :class:`Item` lists;
the program under test only ever sees the rendered source text (or the AST
parsed from it).  Each item carries its ground truth, the injected fault,
so message quality can be graded with ``repro.corpus.grading``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.corpus.generator import generate_corpus
from repro.corpus.mutations import MUTATORS, MutatedProgram, Mutation
from repro.miniml.infer import typecheck_program
from repro.miniml.ast_nodes import Program
from repro.miniml.parser import parse_program
from repro.miniml.pretty import pretty
from repro.tree import get_at, replace_at

#: Study corpora pooled into one fig7-corpus run, and the stride between
#: their seeds (larger than any seed a run is given, so runs never share one).
FIG7_COURSES = 2
COURSE_SEED_STRIDE = 1_000_003
#: The course of a course-batch run: a corpus of this scale, from which
#: :data:`COURSE_LOOPS_PER_ASSIGNMENT` recompile loops are taken per
#: assignment, :data:`COURSE_LOOP_FILES` files from each.  A paper-scale
#: (1.0) corpus has 95 to 110 loops of two or more files, but as few as 8 of
#: them for one assignment, and the later assignments' programs take longer:
#: taking the first loops of the course let the seed move the median by a
#: fifth through the assignment mix alone.  At scale 2.0 every assignment has
#: at least 17 loops.  A fixed count also makes every seed put as many
#: verdicts into the store, whose per-file cost grows with its size.
COURSE_SCALE = 2.0
COURSE_LOOPS_PER_ASSIGNMENT = 16
COURSE_LOOP_FILES = 2
#: Decl counts of the deep weak-variable programs.
DEEP_MIN_DECLS = 60
DEEP_MAX_DECLS = 200
#: Deep programs per run at scale 1.0.
DEEP_PROGRAMS = 48
#: The ill-typed decl sits in the first or the last fifth of a program.
DEEP_SIDE_FRACTION = 5
#: One program in this many has it early.  Not half: early and late files
#: form two latency clusters, and the median must not sit between them.
DEEP_EARLY_EVERY = 3
#: Fault families the deep programs' ill-typed decl is drawn from; each
#: applies to the decl template below.
DEEP_FAMILIES = (
    "wrong-literal",
    "swap-args",
    "operator-confusion",
    "missing-arg",
    "extra-arg",
    "branch-mismatch",
)


@dataclass
class Item:
    """One input file of a workload."""

    label: str
    #: The file's source text.
    source: str
    #: ``source`` parsed during set-up, for workloads that pass ASTs.
    program: Optional[Program]
    #: The injected fault(s): the ground truth messages are graded against.
    truth: MutatedProgram


def _item(label: str, truth: MutatedProgram, parse: bool) -> Item:
    source = pretty(truth.program)
    return Item(label, source, parse_program(source) if parse else None, truth)


def fig7_items(seed: int, scale: float = 1.0) -> List[Item]:
    """Every representative of :data:`FIG7_COURSES` study corpora (the files
    Fig. 7 times).  One paper-scale corpus holds about 170 files, so which
    files a seed draws moves its 90th percentile by a tenth; pooling two
    corpora halves that."""
    items = []
    for course in range(FIG7_COURSES):
        corpus = generate_corpus(seed=seed + COURSE_SEED_STRIDE * course, scale=scale)
        items += [
            _item(f"{course}:{f.programmer}/{f.assignment}/{f.class_id}",
                  f.mutated, parse=True)
            for f in corpus.representatives
        ]
    return items


def course_items(seed: int, scale: float = 1.0) -> List[Item]:
    """The students' recompile loops: of each assignment, the first
    :data:`COURSE_LOOPS_PER_ASSIGNMENT` same-problem classes of the course
    with at least :data:`COURSE_LOOP_FILES` files (all of them, should an
    assignment have fewer), each with its first
    :data:`COURSE_LOOP_FILES` files, in timestamp order.  Every file after
    the first of its loop repeats the loop's source.  Fixed loop lengths
    give every seed the same share of repeats, which sets how often the
    store answers."""
    corpus = generate_corpus(seed=seed, scale=COURSE_SCALE * scale)
    loops: Dict[int, list] = {}
    for f in sorted(corpus.files, key=lambda f: f.timestamp):
        loops.setdefault(f.class_id, []).append(f)
    per_assignment = max(1, round(COURSE_LOOPS_PER_ASSIGNMENT * scale))
    taken: Dict[str, int] = {}
    kept = []
    for files in loops.values():
        assignment = files[0].assignment
        if len(files) >= COURSE_LOOP_FILES and taken.get(assignment, 0) < per_assignment:
            taken[assignment] = taken.get(assignment, 0) + 1
            kept.append(files)
    return [
        _item(f"{f.programmer}/{f.assignment}/{f.class_id}.{f.sequence_index}",
              f.mutated, parse=False)
        for files in kept
        for f in files[:COURSE_LOOP_FILES]
    ]


def _deep_bad_decl(i: int, funcs: List[str], rng: random.Random) -> str:
    """A well-typed two-argument function over earlier int functions; every
    family in :data:`DEEP_FAMILIES` has a site in it that breaks it."""
    a, c, d, e = (rng.choice(funcs) for _ in range(4))
    return (
        f"let bad{i} x y = let g n s = n + String.length s in "
        f"if {a} x > g ({c} y) \"ab\" then {d} (x + y) else {e} (x * 2) + {i}"
    )


def _deep_lines(n: int, bad: int, rng: random.Random) -> List[str]:
    """``n`` decls, every fifth a weak ``ref []``; some int functions pin a
    weak cell's type, so value-restriction cliques span decls.  Decl
    ``bad`` is a well-typed function the caller then breaks."""
    lines = []
    funcs: List[str] = []
    cells: List[str] = []
    for i in range(n):
        if i == bad:
            lines.append(_deep_bad_decl(i, funcs, rng))
        elif i % 5 == 0:
            lines.append(f"let r{i} = ref []")
            cells.append(f"r{i}")
        else:
            if cells and rng.random() < 0.2:
                body = f"({rng.choice(cells)} := [x]); x + {i}"
            elif funcs and rng.random() < 0.5:
                body = f"{rng.choice(funcs)} x + {i}"
            else:
                body = f"x * {i}"
            lines.append(f"let f{i} x = {body}")
            funcs.append(f"f{i}")
    return lines


def _break_decl(decl_line: str, family: str, site: int, label: str,
                rng: random.Random) -> Optional[MutatedProgram]:
    """Inject a ``family`` fault into one decl: the ``site``-th (cyclically)
    of the family's rewrites that leaves the decl ill-typed.  The rewrite
    is checked in a scaffold that declares each function the decl calls as
    ``int -> int`` (the type every int function of a deep program has), so
    set-up need not re-check the whole program per candidate site."""
    called = sorted(set(re.findall(r"\bf\d+\b", decl_line)))
    stubs = [f"let {name} x = x" for name in called]
    scaffold = parse_program("\n".join(stubs + [decl_line]) + "\n")
    at = ("decls", len(stubs))
    rewrites = sorted(
        (rewrite for rewrite in MUTATORS[family](scaffold, rng) if rewrite[0][0] == at),
        key=lambda rewrite: repr(rewrite[0]),
    )
    for turn in range(len(rewrites)):
        path, replacement, description = rewrites[(site + turn) % len(rewrites)]
        mutated = replace_at(scaffold, path, replacement)
        if not typecheck_program(mutated).ok:
            mutation = Mutation(family, description, path, get_at(scaffold, path), replacement)
            return MutatedProgram(mutated, label, [mutation])
    return None


def _deep_bad_position(n: int, early: bool, rng: random.Random) -> int:
    side = max(1, n // DEEP_SIDE_FRACTION)
    # Position 6 is the first with at least four int functions before it.
    if early:
        return rng.randint(6, max(6, side))
    return rng.randint(n - side, n - 1)


def deep_items(seed: int, scale: float = 1.0) -> List[Item]:
    """Long programs with one ill-typed decl, in the first fifth (a long
    suffix the decl-table replay covers) for one file in
    :data:`DEEP_EARLY_EVERY` and in the last fifth (a long prefix the
    snapshot and trail cover) for the rest.

    Sizes, sides, fault families and fault sites are stratified rather
    than drawn independently, so every seed covers the same mix; the seed
    picks the exact size within each stratum, the fault's position, and
    the program text."""
    rng = random.Random(seed)
    count = max(2, round(DEEP_PROGRAMS * scale))
    width = (DEEP_MAX_DECLS - DEEP_MIN_DECLS + 1) / count
    items: List[Item] = []
    for k in range(count):
        low = DEEP_MIN_DECLS + int(k * width)
        n = rng.randint(low, max(low, DEEP_MIN_DECLS + int((k + 1) * width) - 1))
        early = k % DEEP_EARLY_EVERY == 0
        bad = _deep_bad_position(n, early, rng)
        lines = _deep_lines(n, bad, rng)
        label = f"deep{k}-{'early' if early else 'late'}-{bad}of{n}"
        # Each early program shares its family with the late ones after it,
        # so both sides get every family.
        start = (k // DEEP_EARLY_EVERY) % len(DEEP_FAMILIES)
        for family in DEEP_FAMILIES[start:] + DEEP_FAMILIES[:start]:
            mutated = _break_decl(lines[bad], family, k, label, rng)
            if mutated is not None:
                break
        else:
            raise RuntimeError(f"no fault family applies to {label}")
        lines[bad] = pretty(mutated.program.decls[-1])
        source = "\n".join(lines) + "\n"
        program = parse_program(source)
        mutations = [
            Mutation(m.family, m.description, (("decls", bad),) + tuple(m.path[1:]),
                     m.original, m.mutated)
            for m in mutated.mutations
        ]
        truth = MutatedProgram(program, label, mutations)
        items.append(Item(label, source, program, truth))
    return items


def deep_side(item: Item) -> str:
    """Whether a deep program's fault is in its first or last fifth."""
    return "early" if "-early-" in item.label else "late"
