"""Seeded generator of batch-record markdown in the fixture conventions.

Documents follow the layout of the golden sample (``tests/data/sample_bmr.md``):
bold header lines, an equipment table, ``## `` groups, ``### Phase N:`` phases,
``**Step N:**`` headings, form bullets with blanks and ``+/-`` limits, action
bullets, prose with conditionals, figure/table/step references and document
codes, single- and multi-line ``[Image Text: ...]`` markers, and calculation
blocks.

In real exports a step heading often follows a line that ends in a period
(the last prose line of the previous step). ``PERIOD_BEFORE_HEADING_SHARE`` of
the step headings are placed that way, chosen at random in every block of 20
headings; the rest follow a form bullet, an image marker, an action bullet or
a phase heading. The share is not tuned to any chunker behaviour. It holds
exactly, and step bodies draw their blocks from decks with fixed counts, so
that scores and costs vary little between seeds.

``generate(seed, index, low, high)`` is a pure function: the same arguments
give the same text, step headings and word count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PERIOD_BEFORE_HEADING_SHARE = 0.35

MATERIALS = (
    "acetaminophen", "microcrystalline cellulose", "lactose monohydrate",
    "magnesium stearate", "povidone", "croscarmellose sodium", "purified water",
    "talc", "colloidal silicon dioxide", "hypromellose", "titanium dioxide",
    "ibuprofen", "metformin hydrochloride", "sodium starch glycolate",
    "pregelatinized starch", "stearic acid", "polyethylene glycol",
)
EQUIPMENT = (
    ("V-Blender", "VB"), ("Tablet Press", "TP"), ("Metal Detector", "MD"),
    ("Fluid Bed Dryer", "FB"), ("High Shear Granulator", "HS"),
    ("Coating Pan", "CP"), ("Conical Mill", "CM"), ("Vibratory Sieve", "SV"),
    ("Bin Blender", "BB"), ("Deduster", "DD"), ("Balance", "BL"),
)
GROUPS = (
    "DISPENSING", "PROCESSING", "GRANULATION", "COMPRESSION", "COATING",
    "PACKAGING", "CLEANING",
)
PHASES = (
    "Material Preparation", "Blending", "Wet Granulation", "Drying", "Milling",
    "Lubrication", "Compression", "Film Coating", "Inspection", "Sampling",
    "Line Clearance", "Equipment Setup",
)
STEP_VERBS = (
    "Weigh", "Screen", "Load", "Blend", "Granulate", "Dry", "Mill", "Compress",
    "Coat", "Inspect", "Sample", "Transfer", "Clean", "Verify", "Label",
    "Charge", "Discharge", "Record",
)
FORM_QUANTITIES = (
    ("Target weight", "kg"), ("Net weight", "g"), ("Blending time", "minutes"),
    ("Blender speed", "rpm"), ("Inlet temperature", "°C"),
    ("Loss on drying", "%"), ("Impeller speed", "rpm"), ("Spray rate", "g"),
    ("Granulation time", "min"), ("Tablet hardness", "kg"),
    ("Binder volume", "L"), ("Screen size", "mesh"),
)
ACTIONS = (
    "Add screened {m}", "Pass all {m} through the screen",
    "Transfer {m} to the {e}", "Verify the {e} is clean and labelled",
    "Check the {e} status tag", "Record any spillage of {m}",
    "Close the {e} lid", "Start the {e} at low speed",
    "Collect the retained {m} in a labelled bag",
)
CONDITIONALS = (
    "If the {m} shows lumps, screen it again before charging.",
    "When the {e} alarm sounds, stop the process and inform the supervisor.",
    "Do not proceed unless the {e} is within its calibration date.",
    "If the weight is outside the limit, adjust with {m} and reweigh.",
    "When blending is complete, discharge into a clean container; otherwise continue for 5 minutes.",
)
REFERENCES = (
    "See Figure {fig} for the setup.",
    "Refer to Table 1 for the equipment list.",
    "Follow {code} for the cleaning procedure.",
    "Clean the {e} as per above procedure.",
    "Repeat the check as described, see step {step}.",
)
PROSE = (
    "Wear gloves and a face mask during this operation.",
    "Keep the area free of other materials and documents.",
    "The operator and the checker sign each completed entry.",
    "Use only tared and labelled containers for {m}.",
)
IMAGE_TEXTS = (
    "{e} control panel showing speed and timer settings",
    "Label for {m} container with batch number and tare weight",
    "Screening setup diagram showing 20 mesh screen above collection bin",
    "Flow chart of {m} transfer from dispensing booth to the {e}",
)
CALC_TITLES = ("Theoretical Yield", "Binder Quantity", "Lubricant Quantity", "Actual Yield")
BLOCK_DECK = ("form",) * 5 + ("actions",) * 5 + ("prose",) * 5 + ("image",) * 3 + ("calculation",) * 2


@dataclass(frozen=True)
class GeneratedDoc:
    text: str
    step_names: tuple[str, ...]
    words: int


def _code(rng: random.Random) -> str:
    return f"{rng.choice(('SOP', 'QA', 'WI', 'FRM'))}-{rng.randint(10000, 99999)}"


def _number(rng: random.Random, low: float, high: float) -> str:
    return f"{rng.uniform(low, high):.1f}"


class _Writer:
    def __init__(self, rng: random.Random, period_steps: set[int]) -> None:
        self.rng = rng
        self.period_steps = period_steps
        self.lines: list[str] = []
        self.step_names: list[str] = []
        self.figures = 0
        self.equipment = rng.sample(EQUIPMENT, k=rng.randint(4, 7))
        self.deck: list[str] = []

    def fill(self, template: str) -> str:
        rng = self.rng
        return template.format(
            m=rng.choice(MATERIALS),
            e=rng.choice(self.equipment)[0],
            fig=rng.randint(1, max(self.figures, 1)),
            code=_code(rng),
            step=rng.randint(1, max(len(self.step_names), 1)),
        )

    def header(self) -> None:
        rng = self.rng
        product = rng.choice(MATERIALS).title()
        self.lines += [
            "# BATCH MANUFACTURING RECORD",
            f"**Product:** {product} Tablets {rng.choice((100, 250, 500, 850))}mg",
            f"**Batch Number:** {product[:2].upper()}-2024-{rng.randint(1000, 9999)}",
            f"**Manufacturing Date:** 2024-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            "",
            "## EQUIPMENT REQUIRED",
            "| Equipment | ID Number | Calibration Due |",
            "|-----------|-----------|-----------------|",
        ]
        for name, prefix in self.equipment:
            self.lines.append(
                f"| {name} | {prefix}-{rng.randint(100, 999)} | "
                f"2024-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d} |"
            )

    def step(self, number: int) -> None:
        rng = self.rng
        # The line before this heading was written by the previous step.
        name = f"{rng.choice(STEP_VERBS)} {rng.choice(MATERIALS)} batch portion {number}"
        self.step_names.append(name)
        self.lines.append(f"**Step {number}:** {name}")
        for _ in range(rng.randint(2, 5)):
            self._block()
        self._terminal_line(number + 1)

    def _block(self) -> None:
        rng = self.rng
        # Block kinds come from shuffled decks with fixed counts, so every
        # document has the same mix and its cost varies little with the seed.
        if not self.deck:
            self.deck = list(BLOCK_DECK)
            rng.shuffle(self.deck)
        kind = self.deck.pop()
        if kind == "form":
            label, unit = rng.choice(FORM_QUANTITIES)
            value = _number(rng, 1, 90)
            self.lines.append(f"- {label}: {value} {unit} +/- {_number(rng, 0.1, 2)} {unit}")
            self.lines.append(f"- Actual {label.lower()}: ________ {unit}")
            if rng.random() < 0.5:
                self.lines.append("- Performed by: ________ Date: ________")
        elif kind == "actions":
            for _ in range(rng.randint(1, 3)):
                self.lines.append("- " + self.fill(rng.choice(ACTIONS)))
        elif kind == "prose":
            sentences = [self.fill(rng.choice(CONDITIONALS))]
            sentences += [self.fill(rng.choice(REFERENCES + PROSE)) for _ in range(rng.randint(1, 2))]
            self.lines.append(" ".join(sentences))
        elif kind == "image":
            self.figures += 1
            text = self.fill(rng.choice(IMAGE_TEXTS))
            if rng.random() < 0.5:
                self.lines.append(f"- [Image Text: {text}]")
            else:
                words = text.split()
                cut = len(words) // 2
                self.lines.append(f"- [Image Text: {' '.join(words[:cut])}")
                self.lines.append(f"  {' '.join(words[cut:])}]")
        else:
            self._calculation()

    def _calculation(self) -> None:
        rng = self.rng
        a, b = rng.sample(MATERIALS, k=2)
        va, vb = _number(rng, 10, 60), _number(rng, 1, 10)
        factor = rng.choice(("0.98", "0.97", "1.02"))
        self.lines += [
            "",
            f"**Calculation:** {rng.choice(CALC_TITLES)}",
            f"Formula: ({a.title()} + {b.title()}) x {factor}",
            "Variables:",
            f"- {a.title()} weight: {va} kg",
            f"- {b.title()} weight: {vb} kg",
            f"Expected yield: {float(va) + float(vb):.2f} kg",
            "Acceptable range: 95.0 - 103.0%",
            "",
        ]

    def _terminal_line(self, next_number: int) -> None:
        """End the step so the next heading follows a period-terminated line
        or not, as chosen for that heading."""
        rng = self.rng
        if next_number in self.period_steps:
            self.lines.append(self.fill(rng.choice(PROSE + CONDITIONALS)))
        elif rng.random() < 0.3:
            label, unit = rng.choice(FORM_QUANTITIES)
            self.lines.append(f"- Final {label.lower()}: ________ {unit}")
        elif rng.random() < 0.5:
            self.figures += 1
            self.lines.append(f"- [Image Text: {self.fill(rng.choice(IMAGE_TEXTS))}]")
        else:
            self.lines.append("- " + self.fill(rng.choice(ACTIONS)))
        if rng.random() < 0.5:
            self.lines.append("")


def generate(seed: int, index: int, low: int, high: int) -> GeneratedDoc:
    """Document ``index`` of the corpus for ``seed``, with a word count drawn
    uniformly from [low, high] (the text ends at the first step that reaches
    it)."""
    rng = random.Random(f"bmr-corpus:{seed}:{index}:{low}:{high}")
    target = rng.randint(low, high)
    # Plan more steps than the word target needs, then fix which headings
    # follow a period-terminated line.
    planned = target // 40 + 20
    phase_sizes: list[int] = []
    while sum(phase_sizes) < planned:
        phase_sizes.append(rng.randint(4, 9))
    first_in_phase: set[int] = set()
    n = 1
    for size in phase_sizes:
        first_in_phase.add(n)
        n += size
    # The share holds exactly in every block of 20 headings, so it also holds
    # for the prefix the word target cuts off.
    period_steps: set[int] = set()
    per_block = round(PERIOD_BEFORE_HEADING_SHARE * 20)
    for block in range(1, n, 20):
        eligible = [i for i in range(block, block + 20) if i not in first_in_phase]
        period_steps.update(rng.sample(eligible, k=per_block))

    w = _Writer(rng, period_steps)
    w.header()
    words = sum(len(line.split()) for line in w.lines)
    number = 1
    phase = 0
    for size in phase_sizes:
        if words >= target:
            break
        if phase == 0 or rng.random() < 0.3:
            w.lines += ["", f"## {rng.choice(GROUPS)} INSTRUCTIONS"]
        phase += 1
        w.lines += ["", f"### Phase {phase}: {rng.choice(PHASES)}"]
        for _ in range(size):
            before = len(w.lines)
            w.step(number)
            words += sum(len(line.split()) for line in w.lines[before:])
            number += 1
            if words >= target:
                break
    text = "\n".join(w.lines) + "\n"
    return GeneratedDoc(text=text, step_names=tuple(w.step_names), words=len(text.split()))
