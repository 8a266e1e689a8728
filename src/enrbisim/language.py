"""Truncated word languages, the base of the paper's automata, with
their own free construction and composition law check.  Their documents
are read here, and Aldebaran automaton files straight into their free
enrichment, so only a request that names a language base or an
automaton imports this module.
"""

from __future__ import annotations

import itertools
import re
from pathlib import Path
from typing import Callable

from .documents import MAX_OBJECTS, _read_text
from .errors import ParseError, SizeLimit, UnknownLabel, require_valid
from .quantaloid import Quantaloid
from .sets import PowersetLattice, SetQuantaloid
from .vcat import EnrichedGraph, VCategory, free_vcategory, validate_vcategory

# Most words a language quantale may hold
MAX_WORDS = 1 << 20


class LanguageQuantale(SetQuantaloid):
    """Sets of words of length at most ``k`` under truncated concatenation.

    One object; elements are frozensets of words (tuples of symbols) and
    composition concatenates pointwise, discarding words longer than
    ``k``.  Both bracketings of a triple give the words of the full
    concatenation that fit, so truncation keeps composition associative.
    The unit is the singleton empty word.
    """

    member_order = staticmethod(lambda word: (len(word), word))

    def __init__(self, alphabet: list[str] | tuple[str, ...], k: int):
        super().__init__(["*"])
        if not isinstance(alphabet, (list, tuple)):  # a string is not read as its letters
            raise ValueError(f"the alphabet must be a list of letters, not {alphabet!r}")
        self.alphabet = tuple(alphabet)
        if not all(isinstance(letter, str) for letter in self.alphabet):
            raise ValueError(f"a letter must be a string: {self.alphabet!r}")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet contains duplicates")
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise ValueError(f"k must be an integer >= 0, not {k!r}")
        self.k = k
        # over an empty alphabet only the empty word exists, whatever k is
        longest = self.k if self.alphabet else 0
        n_words = symbols = 0
        for length in range(longest + 1):  # ends at the first length over a cap
            count = len(self.alphabet) ** length
            n_words, symbols = n_words + count, symbols + length * count
            # within the word cap, a word over two or more letters has at most
            # log2(MAX_WORDS) symbols, so the symbol cap binds on one letter only
            if n_words > MAX_WORDS or symbols > 32 * MAX_WORDS:
                raise SizeLimit(f"the words up to length {self.k} exceed the cap {MAX_WORDS}")
        self.words = [
            word
            for length in range(longest + 1)
            for word in itertools.product(self.alphabet, repeat=length)
        ]

    def _make_hom(self, u, v):
        return PowersetLattice(self.words)

    def compose(self, u, v, w, f, g):
        k = self.k
        return frozenset(a + b for a in f for b in g if len(a) + len(b) <= k)

    def unit(self, u):
        return frozenset({()})

    def construction_doc(self, name_of) -> dict:
        return {"construction": "language", "alphabet": list(self.alphabet), "k": self.k}

    def free_homs(self, extents, edges):
        return self.path_homs(len(extents), edges)

    def path_homs(
        self, n_vertices: int, edges: list[tuple[int, int, frozenset]]
    ) -> list[dict[int, frozenset]]:
        """Hom rows of the free enrichment on a labelled graph.

        A forward sweep from each source over the out-edge lists.  Level
        ``l`` lists the pairs (vertex, word of length ``l`` reaching it),
        each pair once; level 0 holds the source and the empty word.
        Walking a level extends each pair along every out-edge label: an
        empty-word label appends to the level being walked, so each level
        is closed under those before the next one starts, and any other
        label appends to a later level.  This equals the generic ascending
        closure but never concatenates two large languages, and it touches
        only what the source reaches within ``k`` letters.  A row maps
        each reached target, in target order, to its words and leaves out
        the rest, whose hom is the empty set.
        """
        k = self.k
        out: list[list[tuple[int, tuple, int]]] = [[] for _ in range(n_vertices)]
        for s, t, lab in edges:
            out[s].extend((t, word, len(word)) for word in lab if len(word) <= k)
        table = []
        for a in range(n_vertices):
            reached: dict[int, set] = {a: {()}}
            levels: list[list[tuple[int, tuple]]] = [[] for _ in range(k + 1)]
            levels[0].append((a, ()))
            for level, pending in enumerate(levels):
                room = k - level
                for s, w in pending:
                    for t, word, length in out[s]:
                        if length <= room:
                            longer = w + word
                            have = reached.get(t)
                            if have is None:
                                reached[t] = {longer}
                            elif longer in have:
                                continue
                            else:
                                have.add(longer)
                            levels[level + length].append((t, longer))
            table.append({t: frozenset(reached[t]) for t in sorted(reached)})
        return table

    def composition_law_holds(self, rows) -> bool:
        """Whether ``hom(i,j) . hom(j,l) <= hom(i,l)`` for all ``i, j, l``.

        ``rows`` are an enrichment's non-bottom rows (``VCategory.rows``).
        Row ``i`` becomes a map ``masks[i]`` from each word to the bitmask of
        the targets ``l`` whose hom contains it.  The law holds exactly when
        ``masks[j][w] <= masks[i][u.w]`` (as bit sets) for every word ``u`` in
        ``hom(i,j)`` and every word ``w`` of row ``j`` with ``|u| + |w| <= k``.
        Each row's words are bucketed by length, so only those pairs are
        visited.  Each concatenation comes from ``self.compose`` on
        singletons, once per word pair, so truncation is defined in one place.
        """
        cutoff = self.k
        masks: list[dict[tuple, int]] = []
        by_length: list[list[list[tuple[tuple, int]]]] = []
        for row in rows:
            mask: dict[tuple, int] = {}
            for t, words, _ in row:
                bit = 1 << t
                for w in words:
                    mask[w] = mask.get(w, 0) | bit
            buckets: list[list[tuple[tuple, int]]] = [[] for _ in range(cutoff + 1)]
            for w, m in mask.items():
                buckets[len(w)].append((w, m))
            masks.append(mask)
            by_length.append(buckets)
        concat: dict[tuple, dict[tuple, tuple]] = {}
        for i, (row, mask_i) in enumerate(zip(rows, masks)):
            for j, words, _ in row:
                buckets = by_length[j]
                for u in words:
                    if j == i and not u:
                        continue  # the unit at i composes to each word of row i itself
                    after_u = concat.setdefault(u, {})
                    for length in range(cutoff - len(u) + 1):
                        for w, m in buckets[length]:
                            uw = after_u.get(w)
                            if uw is None:
                                (uw,) = self.compose(0, 0, 0, frozenset((u,)), frozenset((w,)))
                                after_u[w] = uw
                            if m & ~mask_i.get(uw, 0):
                                return False
        return True


def build_language_quantale(alphabet: list[str] | tuple[str, ...], k: int) -> LanguageQuantale:
    """Truncated word languages over ``alphabet`` with cutoff ``k``."""
    return LanguageQuantale(alphabet, k)


def quantaloid_from_doc(doc, resolve) -> LanguageQuantale:
    """The base of a ``language`` document, its letters and ``k`` taken as given."""
    return build_language_quantale(doc["alphabet"], doc["k"])


# ---------------------------------------------------------------------------
# Aldebaran automata

_AUT_HEADER = re.compile(r"des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
_AUT_LINE = re.compile(r'\(\s*(\d+)\s*,\s*"([^"]*)"\s*,\s*(\d+)\s*\)\s*$')


def parse_aut(path) -> tuple[int, int, list[tuple[int, str, int]]]:
    """Read an Aldebaran file: header ``des (init, trans, states)``."""
    lines = [ln.strip() for ln in _read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = _AUT_HEADER.match(lines[0])
    if not header:
        raise ParseError(f"{path}: bad header {lines[0]!r}")
    initial, n_trans, n_states = (int(g) for g in header.groups())
    if n_states > MAX_OBJECTS:
        raise SizeLimit(
            f"{path}: header announces {n_states} states, more than the cap {MAX_OBJECTS}"
        )
    if initial >= n_states:
        raise ParseError(f"{path}: initial state {initial} out of range")
    transitions = []
    for ln in lines[1:]:
        m = _AUT_LINE.match(ln)
        if not m:
            raise ParseError(f"{path}: bad transition line {ln!r}")
        src, label, dst = int(m.group(1)), m.group(2), int(m.group(3))
        if src >= n_states or dst >= n_states:
            raise ParseError(f"{path}: state out of range in {ln!r}")
        transitions.append((src, label, dst))
    if len(transitions) != n_trans:
        raise ParseError(
            f"{path}: header announces {n_trans} transitions, found {len(transitions)}"
        )
    return initial, n_states, transitions


def aut_documents(path, alphabet, k) -> tuple[tuple[dict, Callable], tuple[dict, Callable]]:
    """``(entry, reader)`` of the base and of the automaton that
    ``documents.collect_documents`` lists for an Aldebaran file: the
    language quantale ``QL(<letters>,<k>)``, and over the base the bundle
    holds under that name the free enrichment named by the file's stem, on
    states ``s0``, ``s1``, ... and one-letter words.  Each distinct label
    is checked against the alphabet here, and read once by the reader."""
    alphabet = [str(a) for a in alphabet]
    _, n_states, transitions = parse_aut(path)
    labels = list(dict.fromkeys(label for _, label, _ in transitions))  # in order of appearance
    for label in labels:
        if label not in alphabet:
            raise UnknownLabel(f"{path}: label {label!r} not in the alphabet")
    name = f"QL({','.join(alphabet)},{k})"
    base = {"name": name, "kind": "quantaloid", "construction": "language",
            "alphabet": alphabet, "k": int(k)}

    def read(doc, resolve) -> VCategory:
        quantale = resolve(name, Quantaloid)
        star = quantale.object_index("*")
        words = {label: quantale.element_from_doc(star, star, [[label]]) for label in labels}
        cat = free_vcategory(quantale, EnrichedGraph(
            [(f"s{i}", star) for i in range(n_states)],
            [(s, t, words[label]) for s, label, t in transitions],
        ))
        require_valid("vcategory", validate_vcategory(cat))
        return cat

    return (base, quantaloid_from_doc), ({"name": Path(path).stem, "kind": "vcategory"}, read)


def import_aut(path, alphabet, k) -> VCategory:
    """Free enrichment of an automaton over the truncated word base."""
    (base, _), (_, read) = aut_documents(path, alphabet, k)
    quantale = build_language_quantale(base["alphabet"], base["k"])
    return read(None, lambda ref, expected: quantale)
