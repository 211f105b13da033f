"""Parser robustness: text mutated from the corpus files parses to a
circuit or raises a DctForgeError, never any other exception."""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from dctforge import corpus
from dctforge.blif import parse_blif
from dctforge.errors import DctForgeError
from dctforge.rtl import parse_rtl

_RTL = sorted(n for n in corpus.corpus_names() if n.endswith(".snl"))
_BLIF = sorted(n for n in corpus.corpus_names() if n.endswith(".blif"))

# Characters either format gives meaning to, plus a few it does not.
_ALPHABET = "01279'dxb:=?()[]{},;~-+<|&^#.\\ \nazq_\t\x00é"


@st.composite
def _mutated(draw, names: list[str]) -> str:
    """A corpus file after one to four random edits: delete a span,
    duplicate a span, insert or overwrite a character, or insert a digit
    into a number (where the int() conversions live)."""
    text = corpus.corpus_path(draw(st.sampled_from(names))).read_text(
        encoding="utf-8")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = min(len(text), i + draw(st.integers(0, 12)))
        op = draw(st.sampled_from(["delete", "duplicate", "insert",
                                   "overwrite", "digit"]))
        if op == "delete":
            text = text[:i] + text[j:]
        elif op == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        elif op == "digit":
            runs = list(re.finditer(r"\d+", text))
            if runs:
                run = draw(st.sampled_from(runs))
                k = draw(st.integers(run.start(), run.end()))
                text = text[:k] + draw(st.sampled_from("0123456789")) + text[k:]
        else:
            ch = draw(st.sampled_from(_ALPHABET))
            k = i + 1 if op == "overwrite" else i
            text = text[:i] + ch + text[k:]
    return text


def _parses_or_typed_error(parse, text: str) -> None:
    try:
        parse(text)
    except DctForgeError:
        pass


@settings(max_examples=150, deadline=None)
@given(_mutated(_RTL))
def test_parse_rtl_mutated_corpus(text):
    _parses_or_typed_error(parse_rtl, text)


@settings(max_examples=150, deadline=None)
@given(_mutated(_BLIF))
def test_parse_blif_mutated_corpus(text):
    _parses_or_typed_error(parse_blif, text)
