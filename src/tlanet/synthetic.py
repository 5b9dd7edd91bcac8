"""Tiny deterministic 3-class corpus for desk-scale training runs.

Sixty training and thirty test comments are generated from fixed
templates; each class owns marker tokens that never appear elsewhere, so
the corpus is separable and a model that works can overfit it quickly.
No randomness is involved: the files shipped with the package and the
generator below always agree.
"""

from __future__ import annotations

import itertools
from importlib import resources

from .text import LabeledExample

_MARKERS = {
    "NAG": ("sunny", "kindly", "cheerful", "welcome"),
    "OAG": ("smashfist", "roaring", "furystorm", "loudrage"),
    "CAG": ("sneerly", "wink", "slyjab", "mockish"),
}

_TEMPLATES = {
    "NAG": (
        "what a {m0} day to share a {f0} {f1} with friends",
        "thanks for the {m1} words about my {f0} {f1}",
        "your {m2} reply made this {f0} {f1} better",
        "feeling {m3} after reading such a {f0} {f1}",
    ),
    "OAG": (
        "you {m0} fool ruined the whole {f0} {f1}",
        "get out with your {m1} nonsense about the {f0} {f1}",
        "everyone sees your {m2} garbage in this {f0} {f1}",
        "that {m3} rant poisoned another {f0} {f1}",
    ),
    "CAG": (
        "oh sure your {m0} take on the {f0} {f1} fooled nobody",
        "how {m1} of you to bless the {f0} {f1} again",
        "such a {m2} compliment hiding in the {f0} {f1}",
        "we all noticed the {m3} tone of that {f0} {f1}",
    ),
}

_FILLERS = ("little", "long", "busy", "quiet", "odd")
_NOUNS = ("thread", "post", "chat", "forum", "stream")


def _render(label: str, template_idx: int, filler: str, noun: str) -> str:
    markers = _MARKERS[label]
    template = _TEMPLATES[label][template_idx]
    return template.format(
        m0=markers[0], m1=markers[1], m2=markers[2], m3=markers[3], f0=filler, f1=noun)


def synthetic_examples(split: str = "train") -> list[LabeledExample]:
    """20 (train) or 10 (test) examples per class from disjoint filler combos."""
    if split not in ("train", "test"):
        raise ValueError(f"split must be train or test, got {split!r}")
    combos = list(itertools.product(range(4), _FILLERS, _NOUNS))  # 100 per class
    # stride 7 is coprime with 100, so both selections walk all templates;
    # the +3 offset keeps the test texts disjoint from the training ones
    if split == "train":
        chosen = [combos[(7 * i) % 100] for i in range(20)]
    else:
        chosen = [combos[(7 * i + 3) % 100] for i in range(10)]
    out = []
    for label in ("NAG", "OAG", "CAG"):
        for i, (tmpl, filler, noun) in enumerate(chosen):
            out.append(LabeledExample(
                id=f"synth-{split}-{label.lower()}-{i:02d}",
                text=_render(label, tmpl, filler, noun),
                label=label,
                language="english",
                provenance="raw",
            ))
    return out


BUILTIN_DATASETS = ("synthetic-train", "synthetic-test")


def builtin_dataset_path(name: str) -> str:
    """Filesystem path of a bundled corpus CSV, e.g. ``synthetic-train``."""
    if name not in BUILTIN_DATASETS:
        raise ValueError(f"unknown builtin dataset {name!r}; available: {BUILTIN_DATASETS}")
    filename = name.replace("-", "_") + ".csv"
    return str(resources.files("tlanet").joinpath("data", filename))
