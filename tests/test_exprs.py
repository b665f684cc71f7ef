from fractions import Fraction

import pytest

from w2345 import reference
from w2345.exprs import _TOKEN_RE, NF_GENS, PBW_GENS, ParseError, _evaluate, tokenize
from w2345.multipoly import MultiPoly
from w2345.scalars import domain


def _tokenize_by_position(text):
    """Reference tokenizer: one match of the token pattern per position,
    the kind read off by probing each group."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("vac"):
            tokens.append(("vac", "|0>", m.start()))
        elif m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start()))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _reference_texts():
    """Every expression text of ``reference``: its strings, and the strings
    of its sequences and dicts."""
    out = []
    for name, value in vars(reference).items():
        if name.startswith("__"):
            continue
        if isinstance(value, str):
            out.append(value)
        elif isinstance(value, (list, tuple, dict)):
            items = value.values() if isinstance(value, dict) else value
            out += [v for v in items if isinstance(v, str)]
    return out


def test_tokenize_matches_the_per_position_tokenizer_on_every_reference_text():
    texts = _reference_texts()
    assert len(texts) > 100 and any("|0>" in t for t in texts)
    for text in texts:
        assert tokenize(text) == _tokenize_by_position(text)


@pytest.mark.parametrize(
    "text",
    ["w2 + $", "w2 $ w3", "$", "3*W3[-1]|0> # 2", "(k-1)/(k+2)\t~", "W4[-2] %"],
)
def test_tokenize_rejects_a_planted_bad_character_at_the_same_position(text):
    with pytest.raises(ParseError) as want:
        _tokenize_by_position(text)
    with pytest.raises(ParseError) as got:
        tokenize(text)
    assert (str(got.value), got.value.pos) == (str(want.value), want.value.pos)


@pytest.mark.parametrize("text", ["", "   ", " 12 ", "e(-1)f(-1)|0>  \n"])
def test_tokenize_accepts_blank_tails(text):
    assert tokenize(text) == _tokenize_by_position(text)


def test_tokenize_rejects_a_character_planted_in_reference_texts():
    for text in _reference_texts()[::7]:
        mid = len(text) // 2
        bad = text[:mid] + "$" + text[mid:]
        with pytest.raises(ParseError) as want:
            _tokenize_by_position(bad)
        with pytest.raises(ParseError) as got:
            tokenize(bad)
        assert (str(got.value), got.value.pos) == (str(want.value), want.value.pos)


def _names_and_kind(text):
    """(polynomial variables, word kind) of a text: its generator names
    followed by their mode bracket make words, its other names but k are
    variables."""
    tokens = tokenize(text)
    names, kind = set(), None
    for (kind1, val, _), (_, nxt, _) in zip(tokens, tokens[1:]):
        if kind1 != "name":
            continue
        if val in NF_GENS and nxt == "[":
            kind = "nf"
        elif val in PBW_GENS and nxt == "(":
            kind = "pbw"
        elif val != "k":
            names.add(val)
    return tuple(sorted(names)), kind


def _settled(value, dom):
    if isinstance(value, tuple):
        return "elt", {m: dom.scalar(c) for m, c in value[1].items()}
    if isinstance(value, MultiPoly):
        return value.map_coeffs(dom.scalar)
    return dom.scalar(value)


def _value_or_error(text, dom, k, vars, kind):
    """("value", the text's value with k bound to k), or ("error", message)."""
    names = {"k": k, **{v: MultiPoly.var(vars, v) for v in vars}}
    try:
        return "value", _evaluate(text, dom, names, kind)
    except ParseError as e:
        return "error", str(e)


def test_k_as_the_int_level_gives_the_values_of_k_as_a_fraction():
    texts = _reference_texts()
    for level in range(2, 8):
        dom = domain(level)
        for text in texts:
            vars, kind = _names_and_kind(text)
            want = _value_or_error(text, dom, Fraction(level), vars, kind)
            tag, got = _value_or_error(text, dom, level, vars, kind)
            if tag == "value":
                got = _settled(got, dom)
            assert (tag, got) == want, (level, text[:60])
