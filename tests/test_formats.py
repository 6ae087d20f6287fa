"""Round-trip fidelity of the text and JSON formats."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridalgebra import formats
from gridalgebra import GF, LaurentPoly, Patch, QQ, Shape, TorusConfig, ZZ
from gridalgebra.errors import InputFormatError, InputTooLarge, ShapeTooLarge
from gridalgebra.formats import (
    annihilator_result_from_json,
    grid_from_text,
    parse_shape_spec,
    poly_from_json,
    poly_from_text,
    poly_to_json,
    shape_from_json,
    shape_to_json,
    source_from_json,
    source_to_json,
)

from helpers import random_poly


def test_poly_text_examples():
    f = poly_from_text("1 + x^-1 + y^2")
    assert f.terms == {(0, 0): 1, (-1, 0): 1, (0, 2): 1}
    assert poly_from_text(str(f)) == f


def test_poly_text_signs_and_coefficients():
    f = poly_from_text("-3*x^-2*y + 1 - 2*y^5")
    assert f.terms == {(-2, 1): -3, (0, 0): 1, (0, 5): -2}


def test_poly_text_rational():
    f = poly_from_text("3/2*x - 1/3", QQ)
    from fractions import Fraction

    assert f.terms == {(1, 0): Fraction(3, 2), (0, 0): Fraction(-1, 3)}
    assert poly_from_text(str(f), QQ) == f


def test_poly_text_zero():
    assert poly_from_text("0").is_zero
    assert str(LaurentPoly.zero(ZZ)) == "0"


def test_poly_text_rejects_garbage():
    for bad in ("", "1 +", "x**2", "z + 1", "1 ++ x", "1 + 1/0*x"):
        with pytest.raises(InputFormatError):
            poly_from_text(bad)
    with pytest.raises(InputFormatError):
        poly_from_json({"domain": "Q", "terms": [[0, 0, "1/0"]]})


# tokens of the polynomial text format, a few fragments of it, and strays
POLY_TOKENS = list("0123456789xy^*+-/ \n\t")
POLY_TOKENS += ["x^", "y^-", "10", "1/3", "~", "z", ".", "(", "\u0663"]
POLY_TEXT = st.text(alphabet="0123456789xy^*+-/ \n~z.", max_size=30) | st.lists(
    st.sampled_from(POLY_TOKENS), max_size=16
).map("".join)


GRID_TOKENS = ["0", "1", "-2", "17", "+3", " ", "\n", "\n\n", "\t", "x", "1_0", "\u0663"]
GRID_TEXT = st.text(alphabet="0123456789-+ \n\t\rx._", max_size=40) | st.lists(
    st.sampled_from(GRID_TOKENS), max_size=16
).map("".join)


@pytest.mark.parametrize("domain", [ZZ, QQ, GF(3)], ids=lambda d: d.name)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=POLY_TEXT)
def test_poly_text_parser_raises_only_input_format_error(domain, text):
    try:
        f = poly_from_text(text, domain)
    except InputFormatError:
        return
    assert f.domain == domain


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=GRID_TEXT)
def test_grid_text_parser_raises_only_input_format_error(text):
    try:
        rows = grid_from_text(text)
    except InputFormatError:
        return
    assert rows and all(len(row) == len(rows[0]) for row in rows)


@pytest.mark.parametrize(
    "text",
    ["9" * 5000, "x^" + "9" * 5000, "1/" + "7" * 5000 + "*y"],
    ids=["coefficient", "exponent", "denominator"],
)
def test_poly_text_numbers_beyond_the_digit_limit(text):
    # int() of more than 4300 digits raises ValueError where the interpreter
    # limits integer string conversion; that must surface as a format error
    try:
        poly_from_text(text)
    except InputFormatError:
        pass


def test_poly_text_roundtrip_random():
    rng = random.Random(101)
    for dom in (ZZ, QQ, GF(7)):
        for _ in range(40):
            f = random_poly(rng, dom, max_terms=6, span=4)
            assert poly_from_text(str(f), dom) == f


def test_poly_json_roundtrip_random():
    rng = random.Random(103)
    for dom in (ZZ, QQ, GF(5)):
        for _ in range(40):
            f = random_poly(rng, dom, max_terms=6, span=4)
            data = poly_to_json(f)
            assert poly_from_json(data) == f
    # domain travels inside the JSON
    f = random_poly(rng, GF(5))
    assert poly_from_json(poly_to_json(f)).domain == GF(5)


def test_poly_json_bigint_coefficients():
    f = LaurentPoly(ZZ, {(0, 0): 10**30, (5, -7): -(2**80)})
    assert poly_from_json(poly_to_json(f)) == f


def test_shape_roundtrip():
    for shape in (Shape.plus(), Shape.rectangle(3, 2), Shape([(5, -3), (0, 0)])):
        assert shape_from_json(shape_to_json(shape)) == shape


def test_shape_specs():
    assert parse_shape_spec("plus") == Shape.plus()
    assert parse_shape_spec("rect:3x2") == Shape.rectangle(3, 2)
    for bad in ("blob", "rect:0x1"):
        with pytest.raises(InputFormatError):
            parse_shape_spec(bad)


def test_rect_spec_over_the_dense_limit_is_refused_before_any_cell(monkeypatch):
    # one cell past 2^22 is refused; under a limit of 12 cells, 3 x 4 still passes
    with pytest.raises(InputTooLarge):
        parse_shape_spec("rect:4194305x1")
    monkeypatch.setattr(formats, "MAX_DENSE_ENTRIES", 12)
    assert parse_shape_spec("rect:3x4") == Shape.rectangle(3, 4)
    for big in ("rect:13x1", "rect:1x13", "rect:4x4"):
        with pytest.raises(InputTooLarge):
            parse_shape_spec(big)


def test_rect_spec_past_a_patch_is_refused_by_its_sides(monkeypatch):
    # refusals keep their order: past the dense limit, then past the patch,
    # then a side of 0; a torus is never refused by the rectangle's sides
    patch = Patch((0, 0), [[0, 1, 0], [1, 0, 1]])
    assert parse_shape_spec("rect:3x2", patch) == Shape.rectangle(3, 2)
    for big in ("rect:4x1", "rect:1x3"):
        with pytest.raises(ShapeTooLarge, match="^no translate of the shape fits inside the 3x2 patch$"):
            parse_shape_spec(big, patch)
    with pytest.raises(InputFormatError):
        parse_shape_spec("rect:0x3", patch)
    assert parse_shape_spec("rect:3x1", TorusConfig([[0]])) == Shape.rectangle(3, 1)
    monkeypatch.setattr(formats, "MAX_DENSE_ENTRIES", 3)
    with pytest.raises(InputTooLarge):
        parse_shape_spec("rect:4x1", patch)


def test_grid_text_roundtrip():
    rows = [[1, -2, 3], [4, 5, -6]]
    assert grid_from_text("\n".join(" ".join(map(str, row)) for row in rows)) == rows
    for bad in ("1 2\nx y\n", "1 2\n3\n"):
        with pytest.raises(InputFormatError):
            grid_from_text(bad)


def test_source_json_roundtrip():
    torus = TorusConfig([[0, 1], [2, 3]])
    assert source_from_json(source_to_json(torus)) == torus
    # k is the row length and l the row count; both may be left out
    wide = TorusConfig([[0, 1, 2], [2, 3, 4]])
    assert source_to_json(wide)["k"] == 3
    assert source_from_json(source_to_json(wide)) == wide
    assert source_from_json({"kind": "torus", "values": [[0, 1, 2], [2, 3, 4]]}) == wide
    patch = Patch((-2, 5), [[1, 2, 3], [4, 5, 6]])
    assert source_from_json(source_to_json(patch)) == patch


def test_sft_spec_json_roundtrip():
    from gridalgebra import ClusterTile, cotiler_sft
    from gridalgebra.formats import sft_spec_from_json, sft_spec_to_json

    spec = cotiler_sft(ClusterTile(Shape.plus()))
    assert sft_spec_from_json(sft_spec_to_json(spec)) == spec


def test_annihilator_result_json_roundtrip():
    from gridalgebra import extract_patterns, find_annihilator
    from gridalgebra.formats import (
        annihilator_result_from_json,
        annihilator_result_to_json,
    )

    for torus in (TorusConfig([[0, 1], [1, 0]]), TorusConfig([[4]])):
        result = find_annihilator(extract_patterns(torus, Shape([(0, 0), (1, 0)])))
        data = annihilator_result_to_json(result)
        back = annihilator_result_from_json(data)
        assert back == result


# keys and values the parsers look for, so fuzzed objects reach past the
# first lookup
WORDS = (
    "domain", "terms", "kind", "values", "origin", "shape", "alphabet", "allowed", "poly",
    "periodizer", "constant", "torus", "patch", "Z", "Q", "F5", "1/2", "direct",
    "periodizer_times_binomial",
)
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats()
    | st.sampled_from(WORDS)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=12,
)
PARSERS = sorted(name for name in dir(formats) if name.endswith("_from_json"))


def test_every_json_parser_is_fuzzed():
    assert PARSERS == [
        "annihilator_result_from_json",
        "poly_from_json",
        "sft_spec_from_json",
        "shape_from_json",
        "source_from_json",
    ]


@pytest.mark.parametrize("name", PARSERS)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=JSON)
def test_json_parsers_raise_only_input_format_error(name, data):
    try:
        getattr(formats, name)(data)
    except InputFormatError:
        pass


@pytest.mark.parametrize(
    "parse, data",
    [
        (poly_from_json, {"domain": "Z", "terms": [[0, 0, 5]]}),
        (poly_from_json, {"domain": 5, "terms": []}),
        (poly_from_json, {"domain": "Z", "terms": [["1", 0, "5"]]}),
        (source_from_json, {"kind": "torus", "values": "ab"}),
        (source_from_json, {"kind": "torus", "values": [[1.5, 1]]}),
        (source_from_json, {"kind": "patch", "values": [[1, None]]}),
        (source_from_json, {"kind": "patch", "origin": [0.5, 0], "values": [[1]]}),
        (source_from_json, {"kind": "torus", "values": [[True]]}),
        (shape_from_json, [[0.5, 0]]),
        (annihilator_result_from_json, []),
        # a torus's k and l, when given, are JSON ints equal to its row length and row count
        (source_from_json, {"kind": "torus", "k": 5, "l": 7, "values": [[0, 1], [1, 0]]}),
        (source_from_json, {"kind": "torus", "k": True, "l": "x", "values": [[0, 1], [1, 0]]}),
        (source_from_json, {"kind": "torus", "k": 1, "values": [[0, 1], [1, 0]]}),
        (source_from_json, {"kind": "torus", "l": 1, "values": [[0, 1], [1, 0]]}),
        (source_from_json, {"kind": "torus", "k": 3, "l": 2.0, "values": [[0, 1, 2], [1, 2, 0]]}),
        (source_from_json, {"kind": "torus", "k": 3, "l": 2, "values": [[0, 1], [1, 0], [0, 0]]}),
    ],
)
def test_json_parsers_reject_non_integers(parse, data):
    with pytest.raises(InputFormatError):
        parse(data)
