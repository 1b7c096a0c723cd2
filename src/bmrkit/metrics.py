"""Extraction-quality metrics, composite confidence score, and status bands.

Every metric is a recall against detectors that run over the source markdown:
step headings, form-entry bullets, calculation blocks, conditional sentences,
number/unit pairs, pipe tables, and image markers. The detectors double as the
metric denominators, so their rules are part of this module's contract and are
deliberately spelled out in the docstrings below. The line rules they share
with the extraction double (form bullets, calculation blocks, pipe tables) are
defined once, in ``grammar``: ``scan_source_blocks`` finds calculations, form
lines and tables in one walk of ``grammar.read_blocks``, the walk the double
extracts with.

Each percentage metric is declared once, as a row of ``METRICS``; the report,
the weights, the statuses and the rendered table read that table. A row's
core tallies (preserved, detected) on the shared indexes below, and the score
is 100·preserved/detected, or 100 when the source has nothing to preserve.
Each public metric function scores its core on fresh indexes.

Scoring builds what several metrics read once per call, in two indexes. A
``SourceIndex`` holds the source's word set and sentences (flag, words and
keywords, no text), and the line blocks of ``scan_source_blocks``; a
``RecordIndex`` holds the record's prose strings and word set, each content
unit's distinct canonical words as a tuple, and the parent links that two
structural metrics share. Each part is built on first use, and each text is
tokenized once, through a memo that one ``compute_metrics`` call owns. The
word indexes live only while the three word metrics run: their pair of indexes
dies before a second pair builds the record blob and the source blocks. The
60% sentence-coverage rule runs on an inverted word-to-unit index with exact
size and prefix filters: only units large enough and holding one of a
sentence's rarest words are checked in full. Form fields and step names are
matched by key lookup rather than by scanning the record.
"""

from __future__ import annotations

import json
import math
import re
import sys
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import asdict, astuple, dataclass, field as dc_field, make_dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .chunker import SENTENCE_BOUNDARY
from .grammar import BULLET_RE, CALC_HEADER_RE, STEP_HEADING_RE, parse_form_body, read_blocks
from .ingest import SourceDocument, scan_image_markers
from .merge import CrossReference, detect_reference_texts
from .schema import BmrRecord, Content, FormField, HEADER_KEYS
from .validation import parent_link_faults

STATUS_EXCELLENT = "Excellent"
STATUS_ACCEPTABLE = "Acceptable"
STATUS_NEEDS_REVIEW = "Needs review"

# Stands in for a dot between digits while tokenizing, so "1.5" stays one token.
_GUARD = "\uf8ff"
# The dot leads, so the lookbehind is tried only at dots.
_NUMBER_DOT_RE = re.compile(r"\.(?<=\d\.)(?=\d)")
_TOKEN_RE = re.compile("[a-z0-9" + _GUARD + "]+")

# A leading lookahead lets each scan skip positions no match can start at.
_BOILERPLATE_RE = re.compile(
    r"(?=[pPdD])(?:page\s+\d+\s+of\s+\d+|performed\s+by|date:\s*_+)", re.IGNORECASE
)

_CONDITIONAL_RE = re.compile(r"(?=[iwuoIWUO])\b(if|when|unless|otherwise)\b", re.IGNORECASE)
_CONDITIONAL_KINDS = {"instruction", "note", "warning", "paragraph"}

# Longer alternatives first so e.g. "minutes" is not eaten as "min".
_UNIT_RE = re.compile(
    r"(?=\d)(?<![\w.])(\d+(?:\.\d+)?)\s*"
    r"(mcg|mg|kg|mL|ml|rpm|minutes|min|hours|mesh|°C|%|L|g|C)"
    r"(?![A-Za-z0-9])"
)

_MD_HEADING_RE = re.compile(r"^\s*#{1,6}\s+")
_ZERO_DECIMAL_RE = re.compile(r"\d+\.0+")
_LINK_TARGET_RE = re.compile(r"steps\[(\d+)\](?:\.content\[(\d+)\])?")


# --------------------------------------------------------------------------
# Word normalization


def normalize_words(text: str) -> set[str]:
    """Lowercase, strip punctuation (keeping dots inside numbers like 1.5),
    split on whitespace, and drop tokens shorter than two characters."""
    return {word for word, _ in _Tokenizer().tokens(text) if word}


class _Tokenizer:
    """Tokenizes with a memo from each guarded token to its normalized word
    (None when shorter than two characters) and that word's interned
    canonical form. Each scoring call makes its own and drops it on return."""

    def __init__(self) -> None:
        self.memo: dict[str, tuple[str | None, str]] = {}

    def tokens(self, text: str) -> Iterator[tuple[str | None, str]]:
        """(normalized word or None, canonical form) of each token in order."""
        raw = _TOKEN_RE.findall(_NUMBER_DOT_RE.sub(_GUARD, text.lower()))
        for token in set(raw).difference(self.memo):
            word = token.replace(_GUARD, ".")
            self.memo[token] = (word if len(word) >= 2 else None, sys.intern(_canon_token(word)))
        return map(self.memo.__getitem__, raw)

    def canon(self, text: str, seen: set[str]) -> tuple[str, ...]:
        """The distinct canonical words of ``text`` in first-use order; its
        normalized words go to ``seen``."""
        kept = [entry for entry in self.tokens(text) if entry[0]]
        seen.update(word for word, _ in kept)
        return tuple(dict.fromkeys(form for _, form in kept))

    def key(self, text: str) -> str:
        """Order-preserving token key for name matching (keeps short tokens)."""
        return " ".join(form for _, form in self.tokens(text))


def _canon_token(token: str) -> str:
    token = token.replace("×", "x")
    if _ZERO_DECIMAL_RE.fullmatch(token):
        return token.split(".", 1)[0]
    return token


def _canon_value(value: Any) -> str | None:
    """Form value as field matching compares it; None stands for a blank."""
    return None if value is None else _canon_token(str(value).lower())


def _canon_number(raw: Any) -> str | None:
    try:
        return f"{float(raw):g}"
    except (TypeError, ValueError):
        return None


def _canon_unit(unit: str) -> str:
    return unit.lower()


def split_sentences(text: str) -> list[str]:
    """Split at whitespace runs that follow '.', '!' or '?'.

    The delimiting whitespace is consumed; terminal punctuation stays with its
    sentence; empty segments are dropped.
    """
    return [seg for seg in SENTENCE_BOUNDARY.split(text) if seg]


# --------------------------------------------------------------------------
# Record-side views


def iter_record_strings(record: BmrRecord) -> Iterator[str]:
    """Every prose string in the record.

    Structural identifiers, declared type lists, and internal link targets are
    not prose and are excluded.
    """
    for key in HEADER_KEYS:
        value = getattr(record.header, key).value
        if isinstance(value, str):
            yield value
    for group in record.groups:
        if isinstance(group.group_name.value, str):
            yield group.group_name.value
    for phase in record.phases:
        if isinstance(phase.phase_name.value, str):
            yield phase.phase_name.value
    for step in record.steps:
        for field in (step.step_name, step.step_type):
            if isinstance(field.value, str):
                yield field.value
        for content in step.content:
            yield from _content_strings(content)


def _content_strings(content: Content) -> Iterator[str]:
    if content.text:
        yield content.text
    yield from content.items or []
    for form_field in content.fields or []:
        yield form_field.label
        if isinstance(form_field.value, str):
            yield form_field.value
        yield from filter(None, (form_field.unit, form_field.limits, form_field.notes))
    if content.calculation is not None:
        calc = content.calculation
        yield calc.formula
        if calc.notes:
            yield calc.notes
        for variable in calc.variables:
            yield variable.name
            yield variable.description
            if isinstance(variable.value, str):
                yield variable.value
            if variable.unit:
                yield variable.unit
        if calc.result is not None:
            if isinstance(calc.result.value, str):
                yield calc.result.value
            if calc.result.unit:
                yield calc.result.unit
    yield from content.headers or []
    for row in content.rows or []:
        for cell in row:
            if isinstance(cell, str):
                yield cell
    if content.link is not None:
        yield content.link["link_text"]
        if not content.link["url"].startswith("#"):
            yield content.link["url"]
    if content.attachment is not None:
        yield content.attachment["name"]
        if content.attachment.get("reference"):
            yield content.attachment["reference"]


def _iter_contents(record: BmrRecord) -> Iterator[Content]:
    for step in record.steps:
        yield from step.content


# --------------------------------------------------------------------------
# Shared indexes


class _Sentence(NamedTuple):
    """A source sentence. Words and keywords are tuples rather than sets, so
    a document's thousands of sentences take several times less memory."""

    boilerplate: bool
    words: tuple[str, ...]
    keywords: tuple[str, ...]


class _UnitMatcher:
    """The 60% rule over a fixed list of units, each a tuple of distinct words.

    A sentence of n words is covered by a unit sharing at least 0.6·n of them,
    that is at least t = ceil(0.6·n). Two exact filters pick the candidates,
    as in the set-similarity joins of Chaudhuri et al. (ICDE 2006) and Bayardo
    et al. (WWW 2007). Size: a unit of fewer than t words cannot cover.
    Prefix: a unit holding none of some n − t + 1 of the sentence's words
    shares at most t − 1, so only units holding one of the n − t + 1 rarest
    words can cover. Each candidate then gets the full check.
    """

    def __init__(self, units: list[tuple[str, ...]]) -> None:
        # Largest first: the units big enough for a sentence are then a
        # leading run of the list and of every posting list.
        self.units = sorted(units, key=len, reverse=True)
        self.negative_sizes = [-len(unit) for unit in self.units]
        self.postings: dict[str, list[int]] = {}
        for i, unit in enumerate(self.units):
            for word in unit:
                self.postings.setdefault(word, []).append(i)

    def covers(
        self, words: tuple[str, ...], keywords: tuple[str, ...] | None = None
    ) -> bool:
        """Whether one unit holds 60% of the distinct ``words`` and, when
        ``keywords`` is given, at least one keyword."""
        needed = 0.6 * len(words)
        shared = math.ceil(needed)
        big = bisect_right(self.negative_sizes, -shared)

        def in_size(word: str) -> int:
            return bisect_left(self.postings.get(word, ()), big)

        def units_with(some: Iterable[str]) -> set[int]:
            """Units big enough that hold one of ``some``, read in place."""
            prefixes = (islice(self.postings.get(w, ()), in_size(w)) for w in some)
            return set(chain.from_iterable(prefixes))

        if shared == 0:
            candidates = set(range(big))
        else:
            candidates = units_with(sorted(words, key=in_size)[: len(words) - shared + 1])
        if keywords is not None:
            candidates &= units_with(keywords)
        # any(len(unit & words) >= needed for each candidate unit) over units of
        # distinct words, iterated in C; it stops at the first unit that covers.
        units = map(self.units.__getitem__, candidates)
        overlaps = map(len, map(frozenset(words).intersection, units))
        return any(map(needed.__le__, overlaps))


class SourceIndex:
    """The words, sentences and line blocks of one source document, each
    built on first use and kept for the metrics that read it."""

    def __init__(self, source: SourceDocument, tokenizer: _Tokenizer | None = None) -> None:
        self.text = source.text
        self.tokenizer = tokenizer or _Tokenizer()

    @cached_property
    def tokenized(self) -> tuple[set[str], list[_Sentence]]:
        """The text's normalized words, and each sentence's flag, canonical
        words and keywords, from one pass that keeps no sentence text. The
        sentences hold all of the text's words, as the split removes only
        whitespace, which no token spans."""
        words: set[str] = set()
        canon = self.tokenizer.canon
        sentences = [
            _Sentence(
                boilerplate=_BOILERPLATE_RE.search(sentence) is not None,
                words=canon(sentence, words),
                keywords=tuple({m.group(1).lower() for m in _CONDITIONAL_RE.finditer(sentence)}),
            )
            for sentence in split_sentences(self.text)
        ]
        return words, sentences

    @cached_property
    def blocks(self) -> tuple[list[tuple[str, list[str]]], list[FormField], list[list[str]]]:
        """The calculations, form lines and tables of ``scan_source_blocks``."""
        return scan_source_blocks(self.text)


class RecordIndex:
    """What several metrics read of one record: its prose, its content units
    with the two 60%-rule matchers over them, and its parent links. Each part
    is built on first use."""

    def __init__(
        self, record: BmrRecord, refs: list[CrossReference] | None = None,
        tokenizer: _Tokenizer | None = None,
    ) -> None:
        self.record = record
        self.refs = refs or []
        self.tokenizer = tokenizer or _Tokenizer()

    @cached_property
    def strings(self) -> list[str]:
        return list(iter_record_strings(self.record))

    @cached_property
    def blob(self) -> str:
        """All prose, lowercased and whitespace-collapsed, as
        ``" ".join(" ".join(strings).lower().split())`` but one string at a
        time, so no list of every word is built."""
        collapsed = (" ".join(text.lower().split()) for text in self.strings)
        return " ".join(text for text in collapsed if text)

    @cached_property
    def tokenized(self) -> tuple[set[str], list[tuple[str | None, tuple[str, ...]]]]:
        """The normalized words of all prose strings, and (kind, canonical
        words) of each step name (kind None) and content item with prose.
        Strings are tokenized joined by spaces, which no token spans."""
        record, canon = self.record, self.tokenizer.canon
        words: set[str] = set()
        units = []
        rest = [getattr(record.header, key).value for key in HEADER_KEYS]
        rest += [group.group_name.value for group in record.groups]
        rest += [phase.phase_name.value for phase in record.phases]
        for step in record.steps:
            rest.append(step.step_type.value)
            if isinstance(step.step_name.value, str):
                units.append((None, canon(step.step_name.value, words)))
            for content in step.content:
                blob = " ".join(_content_strings(content))
                if blob:
                    units.append((content.kind, canon(blob, words)))
        canon(" ".join(text for text in rest if isinstance(text, str)), words)
        return words, units

    @cached_property
    def context_units(self) -> _UnitMatcher:
        """Every content unit and every step name."""
        return _UnitMatcher([words for _, words in self.tokenized[1]])

    @cached_property
    def conditional_units(self) -> _UnitMatcher:
        return _UnitMatcher(
            [words for kind, words in self.tokenized[1] if kind in _CONDITIONAL_KINDS]
        )

    @cached_property
    def parent_links(self) -> tuple[int, int]:
        """(valid, total) phase-to-group and step-to-phase/group links."""
        record = self.record
        total = len(record.phases) + 2 * len(record.steps)
        return total - sum(1 for _ in parent_link_faults(record)), total


# --------------------------------------------------------------------------
# Coverage metrics

Core = Callable[[SourceIndex, RecordIndex], tuple[int, int]]


def _percent(preserved: int, detected: int) -> float:
    """The share preserved as a percentage, 100 when nothing was detected."""
    return 100.0 * preserved / detected if detected else 100.0


def _score(
    core: Core, source: SourceDocument, record: BmrRecord, refs: list[CrossReference] | None = None
) -> float:
    return _percent(*core(SourceIndex(source), RecordIndex(record, refs)))


# What the record-only metrics are scored against.
_NO_SOURCE = SourceDocument.from_text("")


def crude_word_coverage(source: SourceDocument, record: BmrRecord) -> float:
    """Word-set recall: share of normalized source words present anywhere in
    the record's prose strings."""
    return _score(_crude_word_coverage, source, record)


def _crude_word_coverage(src: SourceIndex, rec: RecordIndex) -> tuple[int, int]:
    src_words = src.tokenized[0]
    return len(src_words & rec.tokenized[0]), len(src_words)


def context_aware_coverage(source: SourceDocument, record: BmrRecord) -> float:
    """Sentence-level recall after canonicalization.

    A sentence counts as covered when at least 60% of its content words appear
    within a single content item or step name. Boilerplate sentences (page
    footers, signature lines) are dropped before counting.
    """
    return _score(_context_aware_coverage, source, record)


def _context_aware_coverage(src: SourceIndex, rec: RecordIndex) -> tuple[int, int]:
    kept = [s.words for s in src.tokenized[1] if not s.boilerplate and s.words]
    return sum(1 for words in kept if rec.context_units.covers(words)), len(kept)


def reference_coverage(
    source: SourceDocument, record: BmrRecord, refs: list[CrossReference]
) -> float:
    """Share of source-detected references represented in the record, either
    as a resolved link or carried through as a reference note."""
    return _score(_reference_coverage, source, record, refs)


def _reference_coverage(src: SourceIndex, rec: RecordIndex) -> tuple[int, int]:
    detected = detect_reference_texts(src.text)
    resolved_texts = {r.ref_text.lower() for r in rec.refs if r.resolved}
    # A source repeats its references ("see Step 3"), and each test scans the
    # whole record blob, so each distinct phrase is tested once.
    found: dict[str, bool] = {}
    covered = 0
    for ref_text in detected:
        needle = " ".join(ref_text.lower().split())
        if needle not in found:
            found[needle] = needle in rec.blob or needle in resolved_texts
        covered += found[needle]
    return covered, len(detected)


# --------------------------------------------------------------------------
# Structural metrics


def hierarchy_preservation(record: BmrRecord) -> float:
    """Valid parent links over all parent links. A step's group link is valid
    only when it also matches its phase's group."""
    return _score(_hierarchy_preservation, _NO_SOURCE, record)


def _hierarchy_preservation(src: SourceIndex, rec: RecordIndex) -> tuple[int, int]:
    return rec.parent_links


def detect_step_headings(text: str) -> list[str]:
    """Ordered step names from source headings like '**Step 3:** Blend'."""
    names = []
    for line in text.split("\n"):
        m = STEP_HEADING_RE.match(line)
        if m and m.group(2).strip():
            names.append(m.group(2).strip())
    return names


def _lis_length(seq: list[int]) -> int:
    tails: list[int] = []
    for x in seq:
        i = bisect_left(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(tails)


def sequence_preservation(source: SourceDocument, record: BmrRecord) -> float:
    """Longest increasing subsequence of matched step positions over matches.

    Source step headings are matched to record steps by normalized name, each
    heading to the first record step with its name not matched before; the
    metric is 100 when fewer than two headings match.
    """
    return _score(_sequence_preservation, source, record)


def _sequence_preservation(src: SourceIndex, rec: RecordIndex) -> tuple[int, int]:
    text_key = rec.tokenizer.key
    unmatched: dict[str, deque[int]] = {}
    for idx, step in enumerate(rec.record.steps):
        if isinstance(step.step_name.value, str):
            key = text_key(step.step_name.value)
            if key:
                unmatched.setdefault(key, deque()).append(idx)
    positions: list[int] = []
    for heading in detect_step_headings(src.text):
        queue = unmatched.get(text_key(heading))
        if queue:
            positions.append(queue.popleft())
    return _lis_length(positions), len(positions)


def _target_exists(record: BmrRecord, target: str) -> bool:
    m = _LINK_TARGET_RE.fullmatch(target)
    if not m:
        return False
    step_idx = int(m.group(1))
    if step_idx >= len(record.steps):
        return False
    if m.group(2) is None:
        return True
    return int(m.group(2)) < len(record.steps[step_idx].content)


def cross_reference_integrity(record: BmrRecord) -> float:
    """Resolved internal id references over all internal id references:
    link annotations pointing at record paths plus phase/group links."""
    return _score(_cross_reference_integrity, _NO_SOURCE, record)


def _cross_reference_integrity(src: SourceIndex, rec: RecordIndex) -> tuple[int, int]:
    resolved, total = rec.parent_links
    for content in _iter_contents(rec.record):
        if content.link is not None:
            url = content.link["url"]
            if url.startswith("#"):
                total += 1
                resolved += _target_exists(rec.record, url[1:])
    return resolved, total


# --------------------------------------------------------------------------
# Content fidelity metrics


def _norm_formula(formula: str) -> str:
    formula = formula.replace("×", "x").replace("*", "x").lower()
    return " ".join(formula.split())


def scan_source_blocks(
    text: str,
) -> tuple[list[tuple[str, list[str]]], list[FormField], list[list[str]]]:
    """(calculations, form lines, tables) of one walk of the source lines with
    ``grammar.read_blocks``, calculation headers read by the loose rule.

    A calculation is (formula, variable names) of a block opened by a
    calculation header or a bare 'Formula:' line, kept when it has a formula;
    variable bullets follow a 'Variables:' line and run to the first line that
    is no bullet. A block ends at a blank line or a heading ('#' heading or
    '**Step N'); its last 'Formula:' line counts. A table is the header cells
    of a line that starts and ends with a pipe, then a separator row.

    Form lines are fill-in bullets inside step bodies ('- Label: value').
    Signature boilerplate is skipped, as are action bullets whose 'label' is
    really an imperative instruction, image markers and blank labels. A '___'
    run or an empty value is a blank (value None); a value like '5 mg +/- 1'
    splits into number, unit and limits. Lines inside a calculation block or
    a table are read with it, so a variable listing is no form line and a
    table in calculation notes is no table.
    """
    calculations: list[tuple[str, list[str]]] = []
    form_lines: list[FormField] = []
    tables: list[list[str]] = []
    in_step_body = False
    for kind, head, body in read_blocks(text.split("\n"), CALC_HEADER_RE):
        if kind == "calculation":
            if body.formula:
                calculations.append((body.formula, [v.name for v in body.variables]))
        elif kind == "table":
            tables.append(head)
        elif STEP_HEADING_RE.match(head):
            in_step_body = True
        elif _MD_HEADING_RE.match(head):
            in_step_body = False
        elif in_step_body and (bullet := BULLET_RE.match(head)):
            form_field = parse_form_body(bullet.group(1).strip())
            if form_field is not None:
                form_lines.append(form_field)
    return calculations, form_lines, tables


def calculation_fidelity(source: SourceDocument, record: BmrRecord) -> float:
    """A source calculation is preserved when some calculation content matches
    its formula after normalization (whitespace collapsed, multiplication sign
    unified) and carries at least its listed variable names."""
    return _score(_calculation_fidelity, source, record)


def _calculation_fidelity(src: SourceIndex, rec: RecordIndex) -> tuple[int, int]:
    detected = src.blocks[0]
    text_key = rec.tokenizer.key
    record_calcs = [
        (
            _norm_formula(c.calculation.formula),
            {text_key(v.name) for v in c.calculation.variables},
        )
        for c in _iter_contents(rec.record)
        if c.calculation is not None
    ]
    wanted = ((_norm_formula(formula), {text_key(n) for n in names}) for formula, names in detected)
    preserved = sum(
        any(formula == got and names <= got_names for got, got_names in record_calcs)
        for formula, names in wanted
    )
    return preserved, len(detected)


def conditional_logic_fidelity(source: SourceDocument, record: BmrRecord) -> float:
    """A conditional source sentence is preserved when an instruction, note,
    warning, or paragraph covers it (60% rule) and retains the keyword."""
    return _score(_conditional_logic_fidelity, source, record)


def _conditional_logic_fidelity(src: SourceIndex, rec: RecordIndex) -> tuple[int, int]:
    detected = [s for s in src.tokenized[1] if s.keywords]
    preserved = sum(
        1 for s in detected if rec.conditional_units.covers(s.words, s.keywords)
    )
    return preserved, len(detected)


def detect_unit_pairs(text: str) -> list[tuple[str, str]]:
    """(number, unit) occurrences drawn from a fixed unit lexicon."""
    pairs = []
    for m in _UNIT_RE.finditer(text):
        number = _canon_number(m.group(1))
        if number is not None:
            pairs.append((number, _canon_unit(m.group(2))))
    return pairs


def _record_unit_pairs(record: BmrRecord) -> set[tuple[str, str]]:
    """The pairs inside each string, scanned joined by NULs (string ends to the
    pattern), and the value and unit of each form field, variable and result."""
    pairs = set(detect_unit_pairs("\x00".join(iter_record_strings(record))))
    for content in _iter_contents(record):
        slots = list(content.fields or [])
        calc = content.calculation
        if calc is not None:
            slots += calc.variables
            if calc.result is not None:
                slots.append(calc.result)
        for slot in slots:
            number = _canon_number(slot.value)
            if number is not None and slot.unit:
                pairs.add((number, _canon_unit(slot.unit)))
    return pairs


def unit_fidelity(source: SourceDocument, record: BmrRecord) -> float:
    """A (number, unit) pair survives when the same normalized number sits
    next to the same normalized unit somewhere in the record: inside one
    string, or as a form-field/variable/result value-unit pairing."""
    return _score(_unit_fidelity, source, record)


def _unit_fidelity(src: SourceIndex, rec: RecordIndex) -> tuple[int, int]:
    detected = detect_unit_pairs(src.text)
    available = _record_unit_pairs(rec.record)
    return sum(1 for pair in detected if pair in available), len(detected)


def field_accuracy(source: SourceDocument, record: BmrRecord) -> float:
    """A source form line is captured when a form field matches its label and,
    when the line had a concrete value, the same normalized value. A blank in
    the source corresponds to a null field value."""
    return _score(_field_accuracy, source, record)


def _field_accuracy(src: SourceIndex, rec: RecordIndex) -> tuple[int, int]:
    detected = src.blocks[1]
    # Canonical values by label key; None stands for a blank.
    text_key = rec.tokenizer.key
    values_by_label: dict[str, set[str | None]] = {}
    for content in _iter_contents(rec.record):
        for form_field in content.fields or []:
            values_by_label.setdefault(text_key(form_field.label), set()).add(
                _canon_value(form_field.value)
            )
    captured = sum(
        1
        for line in detected
        if _canon_value(line.value) in values_by_label.get(text_key(line.label), ())
    )
    return captured, len(detected)


def table_preservation(source: SourceDocument, record: BmrRecord) -> float:
    """A source table is preserved when all of its header cells appear in some
    table content's headers."""
    return _score(_table_preservation, source, record)


def _table_preservation(src: SourceIndex, rec: RecordIndex) -> tuple[int, int]:
    source_tables = src.blocks[2]
    text_key = rec.tokenizer.key
    record_headers = [
        {text_key(h) for h in c.headers or []}
        for c in _iter_contents(rec.record)
        if c.kind == "table"
    ]
    wanted = ({text_key(h) for h in headers} for headers in source_tables)
    return sum(any(map(want.issubset, record_headers)) for want in wanted), len(source_tables)


def image_preservation(source: SourceDocument, record: BmrRecord) -> float:
    """An image marker is preserved when its inner text appears in some image
    content (whitespace-collapsed comparison)."""
    return _score(_image_preservation, source, record)


def _image_preservation(src: SourceIndex, rec: RecordIndex) -> tuple[int, int]:
    markers, _ = scan_image_markers(src.text)
    image_texts = [
        " ".join(c.text.split()).lower()
        for c in _iter_contents(rec.record)
        if c.kind == "image"
    ]
    needles = (" ".join(m.inner_text.split()).lower() for m in markers)
    return sum(any(needle in text for text in image_texts) for needle in needles), len(markers)


def unique_step_types(record: BmrRecord) -> int:
    """Count of distinct non-null step_type values, compared as JSON text so
    that list and object values count too."""
    values = {
        json.dumps(step.step_type.value, sort_keys=True)
        for step in record.steps
        if step.step_type.value is not None
    }
    return len(values)


# --------------------------------------------------------------------------
# The metrics table, composite score and report


class Metric(NamedTuple):
    """A percentage metric: its report key, its label and section in the
    rendered table, its tally core, whether the composite weighs it, and
    whether its core reads the word indexes."""

    name: str
    label: str
    section: str
    core: Core
    weighed: bool = True
    words: bool = False


_STRUCTURAL = "Structural Metrics"
_FIDELITY = "Content Fidelity Metrics"
_COVERAGE = "Coverage Metrics"

# Every percentage metric, in report order.
METRICS = (
    Metric("crude_word_coverage", "Crude Word Coverage", _COVERAGE, _crude_word_coverage,
           words=True),
    Metric("context_aware_coverage", "Context-Aware Coverage", _COVERAGE,
           _context_aware_coverage, words=True),
    Metric("reference_coverage", "Reference Coverage", _COVERAGE, _reference_coverage),
    Metric("hierarchy_preservation", "Hierarchy Preservation", _STRUCTURAL,
           _hierarchy_preservation),
    Metric("sequence_preservation", "Sequence Preservation", _STRUCTURAL,
           _sequence_preservation),
    Metric("cross_reference_integrity", "Cross-Reference Integrity", _STRUCTURAL,
           _cross_reference_integrity),
    Metric("calculation_fidelity", "Calculation Fidelity", _FIDELITY, _calculation_fidelity),
    Metric("conditional_logic_fidelity", "Conditional Logic", _FIDELITY,
           _conditional_logic_fidelity, words=True),
    Metric("unit_fidelity", "Unit Fidelity", _FIDELITY, _unit_fidelity),
    Metric("field_accuracy", "Field-Level Accuracy", _FIDELITY, _field_accuracy),
    Metric("table_preservation", "Table Preservation", _FIDELITY, _table_preservation,
           weighed=False),
    Metric("image_preservation", "Image Preservation", _FIDELITY, _image_preservation,
           weighed=False),
)

# The ten percentage metrics the composite weighs, in report order.
METRIC_NAMES = tuple(m.name for m in METRICS if m.weighed)


@dataclass
class WeightVector(make_dataclass("Weights", [(name, float, 1.0) for name in METRIC_NAMES])):
    """Non-negative finite weight per weighed metric; defaults are equal."""

    def __post_init__(self) -> None:
        values = astuple(self)
        # NaN fails every comparison.
        if not all(0 <= w < math.inf for w in values):
            raise ValueError("weights must be finite and non-negative")
        # A weighted score is at most 100 times its weight, so no product and
        # no sum of the composite can overflow.
        if not 0 < 100 * sum(values) < math.inf:
            raise ValueError("weights must sum to a positive value, 100 times of which is finite")


@dataclass
class MetricsReport(make_dataclass("Scores", [(m.name, float, 100.0) for m in METRICS])):
    unique_step_types: int = 0
    processing_seconds: float = 0.0
    composite: float = 100.0
    statuses: dict[str, str] = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def status_for(score: float) -> str:
    """Band a score: Excellent at 85 and above, Acceptable from 65 below 85,
    Needs review under 65."""
    if not 0 <= score <= 100:
        raise ValueError(f"score {score} outside [0, 100]")
    if score >= 85:
        return STATUS_EXCELLENT
    if score >= 65:
        return STATUS_ACCEPTABLE
    return STATUS_NEEDS_REVIEW


def composite_score(report: MetricsReport, weights: WeightVector | None = None) -> float:
    """Weighted arithmetic mean of the ten percentage metrics. Rounding can
    carry a mean of scores of 100 past 100, so it is capped there."""
    weights = weights or WeightVector()
    total = sum(getattr(weights, name) for name in METRIC_NAMES)
    weighted = sum(getattr(report, name) * getattr(weights, name) for name in METRIC_NAMES)
    return min(weighted / total, 100.0)


def compute_metrics(
    source: SourceDocument,
    record: BmrRecord,
    refs: list[CrossReference] | None = None,
    weights: WeightVector | None = None,
    processing_seconds: float = 0.0,
) -> MetricsReport:
    tokenizer = _Tokenizer()
    scores: dict[str, float] = {}
    # The word metrics run first, each group on its own index pair: rebinding
    # the pair frees the word indexes before the blob and the blocks are built.
    for words in (True, False):
        src, rec = SourceIndex(source, tokenizer), RecordIndex(record, refs, tokenizer)
        scores.update({m.name: _percent(*m.core(src, rec)) for m in METRICS if m.words is words})
    report = MetricsReport(
        **scores, unique_step_types=unique_step_types(record),
        processing_seconds=processing_seconds,
    )
    report.composite = composite_score(report, weights)
    report.statuses = {m.name: status_for(scores[m.name]) for m in METRICS}
    report.statuses["composite"] = status_for(report.composite)
    return report


def render_metrics_table(report: MetricsReport) -> str:
    """Aligned plain-text table grouped by metric category."""
    name_width = 34
    lines = [f"{'Metric Category':<{name_width}} {'Score':>10}  Status"]
    lines.append("-" * (name_width + 20))
    for section in (_STRUCTURAL, _FIDELITY, _COVERAGE):
        lines.append(section)
        for m in METRICS:
            if m.section == section:
                value = getattr(report, m.name)
                status = report.statuses.get(m.name, "")
                lines.append(f"  {m.label:<{name_width - 2}} {value:>9.2f}%  {status}")
    lines += [
        "Performance Metrics",
        f"  {'Processing Time':<{name_width - 2}} {report.processing_seconds:>8.1f} s  -",
        f"  {'Unique Step Types Identified':<{name_width - 2}} {report.unique_step_types:>10}  -",
        "-" * (name_width + 20),
        f"{'Composite Confidence Score':<{name_width}} {report.composite:>9.2f}%  "
        f"{report.statuses.get('composite', '')}",
    ]
    return "\n".join(lines)
