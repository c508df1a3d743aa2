"""Seeded model generators for the benchmark.

Every generator returns a `Model`: the benchmark's own record of the
states, labels, atoms and state-level transition weights, plus the
partition planted at construction time.  `Model.text()` writes the
`.nlmp` file straight from those dictionaries, so the library under
test never produces its own inputs.  Only `random.Random(seed)` is used,
and iteration is always over lists, so one seed gives byte-identical
files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

Weights = dict[str, Fraction]  # state -> weight; sums to 1

WEIGHT_DENOMINATORS = (1, 2, 3, 4)


@dataclass
class Model:
    name: str
    kind: str  # "nlmp" | "lmp"
    states: list[str]
    labels: list[str]
    atoms: list[list[str]] | None  # None means the powerset
    rows: dict[tuple[str, str], list[Weights]]
    planted: list[list[str]]  # a known bisimulation: its classes
    valid: bool = True

    def atom_of(self) -> dict[str, int]:
        atoms = self.atoms or [[s] for s in self.states]
        return {s: i for i, atom in enumerate(atoms) for s in atom}

    def text(self) -> str:
        lines = [self.kind, "states " + " ".join(self.states), "labels " + " ".join(self.labels)]
        if self.atoms is None:
            lines.append("sigma powerset")
        else:
            lines.append("sigma gen " + " ".join("{" + " ".join(a) + "}" for a in self.atoms))
        for s in self.states:
            for a in self.labels:
                for w in self.rows.get((s, a), []):
                    if len(w) == 1:
                        lines.append(f"trans {s} {a} -> {next(iter(w))}")
                    else:
                        lines.append(f"trans {s} {a} " + " ".join(f"{x}:{v}" for x, v in w.items()))
        return "\n".join(lines) + "\n"


def _split(rng: random.Random, w: Fraction, targets: list) -> dict:
    """Put weight w on one target, or halve it over two."""
    if len(targets) == 1 or rng.random() < 0.5:
        return {rng.choice(targets): w}
    x, y = rng.sample(targets, 2)
    return {x: w / 2, y: w / 2}


def _add(into: Weights, more: Weights) -> None:
    for x, v in more.items():
        into[x] = into.get(x, Fraction(0)) + v


def _quotient_measure(rng: random.Random, q: int) -> dict[int, Fraction]:
    """A measure over q classes with support 1-3 and small denominators."""
    support = rng.sample(range(q), min(q, rng.randint(1, 3)))
    den = rng.choice(WEIGHT_DENOMINATORS) if len(support) > 1 else 1
    units = [1] * len(support)
    for _ in range(max(0, den * len(support) - len(support))):
        units[rng.randrange(len(support))] += 1
    total = sum(units)
    return {k: Fraction(u, total) for k, u in zip(support, units)}


def planted(rng: random.Random, name: str, q: int, c: int, n_labels: int, coarse: bool) -> Model:
    """q behaviour classes, each blown up into c bisimilar copies.

    Each class gets, per label, 0-2 measures over classes from a
    three-measure pool per label.  Every copy lifts those measures by splitting each
    class weight over the target class's copies in its own way, so the
    planted partition is a bisimulation.  On a coarse sigma-algebra the
    copies of a class are grouped into atoms of up to two states, the
    split over atoms is shared by the states of one atom, and only the
    split inside a target atom differs: rows are then constant on atoms
    at the atom level, which makes the model valid.
    """
    labels = "abc"[:n_labels]
    copies = [[f"s{k}_{j}" for j in range(c)] for k in range(q)]
    states = [s for block in copies for s in block]
    rng.shuffle(states)
    if coarse:
        atoms_of_class = [[block[j : j + 2] for j in range(0, c, 2)] for block in copies]
        atoms = [atom for group in atoms_of_class for atom in group]
        rng.shuffle(atoms)
    else:
        atoms_of_class = [[[s] for s in block] for block in copies]
        atoms = None
    # Fixed pool and row sizes keep the cost of one size close across seeds.
    pool = {a: [_quotient_measure(rng, q) for _ in range(3)] for a in labels}
    keys = [(k, a) for k in range(q) for a in labels]
    counts = [(0, 1, 1, 2)[i % 4] for i in range(len(keys))]
    rng.shuffle(counts)
    chosen = {key: rng.sample(pool[key[1]], n) for key, n in zip(keys, counts)}
    rows: dict[tuple[str, str], list[Weights]] = {}
    for k in range(q):
        source_atoms = atoms_of_class[k]
        for atom in source_atoms:
            for a in labels:
                for mu in chosen[(k, a)]:
                    # One split over target atoms per source atom and measure.
                    by_atom: list[tuple[list[str], Fraction]] = []
                    for target, w in mu.items():
                        group = atoms_of_class[target]
                        for idx, v in _split(rng, w, list(range(len(group)))).items():
                            by_atom.append((group[idx], v))
                    for s in atom:
                        weights: Weights = {}
                        for target_atom, v in by_atom:
                            _add(weights, _split(rng, v, target_atom))
                        rows.setdefault((s, a), []).append(weights)
    return Model(name, "nlmp", states, list(labels), atoms, rows, copies)


def chain(rng: random.Random, name: str, n: int, n_labels: int = 2) -> Model:
    """Point-mass chain s0 -> s1 -> ... -> s(n-1) with seeded labels;
    every state has its own distance to the end, so bisimilarity is the
    identity and refinement needs one round per state."""
    labels = "abc"[:n_labels]
    states = [f"c{i}" for i in range(n)]
    rows = {(states[i], rng.choice(labels)): [{states[i + 1]: Fraction(1)}] for i in range(n - 1)}
    return Model(name, "nlmp", states, list(labels), None, rows, [[s] for s in states])


def ladder(rng: random.Random, name: str, rungs: int) -> Model:
    """Two rails u_i, v_i joined by b-rungs both ways; an a-step moves
    one rung down with a seeded split over the two rails.  u_i and v_i
    are bisimilar, different rungs are not."""
    us = [f"u{i}" for i in range(rungs)]
    vs = [f"v{i}" for i in range(rungs)]
    rows: dict[tuple[str, str], list[Weights]] = {}
    for i in range(rungs):
        rows[(us[i], "b")] = [{vs[i]: Fraction(1)}]
        rows[(vs[i], "b")] = [{us[i]: Fraction(1)}]
        if i + 1 < rungs:
            for s in (us[i], vs[i]):
                rows[(s, "a")] = [_split(rng, Fraction(1), [us[i + 1], vs[i + 1]])]
    states = [x for pair in zip(us, vs) for x in pair]
    return Model(name, "nlmp", states, ["a", "b"], None, rows, [[u, v] for u, v in zip(us, vs)])


def atom_split(rng: random.Random, name: str, q: int, c: int) -> Model:
    """A valid coarse planted model with one defect: one state of a
    two-state atom gets an extra point mass that its atom-mate lacks at
    the atom level, so the set of states hitting it splits the atom."""
    m = planted(rng, name, q, c, 2, coarse=True)
    pairs = [atom for atom in m.atoms if len(atom) == 2]
    s, mate = rng.choice(pairs)
    label = rng.choice(m.labels)
    atom_of = m.atom_of()

    def atom_level(w: Weights) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for x, v in w.items():
            out[atom_of[x]] = out.get(atom_of[x], Fraction(0)) + v
        return out

    mate_row = [atom_level(w) for w in m.rows.get((mate, label), [])]
    target = next(x for x in rng.sample(m.states, len(m.states)) if {atom_of[x]: 1} not in mate_row)
    m.rows.setdefault((s, label), []).append({target: Fraction(1)})
    m.valid = False
    m.planted = [[x] for x in m.states]
    return m


def lmp(rng: random.Random, name: str, n: int, n_labels: int, coarse: bool) -> Model:
    """A deterministic model: one kernel per state and label.  On a
    coarse sigma-algebra the kernels of one atom agree at the atom
    level, which is what validity requires."""
    labels = "abc"[:n_labels]
    states = [f"l{i}" for i in range(n)]
    if coarse:
        atoms = [states[i : i + 2] for i in range(0, n, 2)]
    else:
        atoms = [[s] for s in states]
    rows: dict[tuple[str, str], list[Weights]] = {}
    for atom in atoms:
        for a in labels:
            mu = _quotient_measure(rng, len(atoms))
            for s in atom:
                weights: Weights = {}
                for k, w in mu.items():
                    _add(weights, _split(rng, w, atoms[k]))
                rows[(s, a)] = [weights]
    return Model(name, "lmp", states, list(labels), atoms if coarse else None, rows, [[s] for s in states])
