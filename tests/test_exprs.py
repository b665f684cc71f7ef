import pytest

from w2345 import reference
from w2345.exprs import _TOKEN_RE, ParseError, tokenize


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
