import json
import math

import pytest

from mmp.docio import (
    DocumentError,
    canonical_json,
    document_of,
    format_float,
    input_digest,
    parse_document,
)
from mmp.matching import Color, PointSet


class TestFloats:
    def test_seventeen_digit_round_trip(self):
        for x in (0.1 + 0.2, 1 / 3, math.pi, 5.248099943344962, -0.0, 1e-300):
            assert float(format_float(x)) == x

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(math.inf)


class TestCanonicalJson:
    def test_sorted_keys_and_compact(self):
        s = canonical_json({"b": 1, "a": [1.5, None, True]})
        assert s == '{"a":[1.5,null,true],"b":1}'

    def test_idempotent_bytes(self):
        doc = {"points": [[0.1, 0.2], [0.30000000000000004, 4.0]]}
        s1 = canonical_json(doc)
        s2 = canonical_json(json.loads(s1))
        assert s1 == s2


class TestParse:
    def test_uncolored_round_trip(self):
        doc = {"points": [[0.0, 0.0], [1.0, 2.5]], "name": "pair"}
        ps, name = parse_document(json.dumps(doc))
        assert name == "pair"
        assert ps.colors is None
        out = document_of(ps, name)
        ps2, name2 = parse_document(out)
        assert ps2.points == ps.points and name2 == name

    def test_colored_round_trip(self):
        doc = {"red": [[0, 0], [1, 1]], "blue": [[2, 0], [3, 1]]}
        ps, _ = parse_document(json.dumps(doc))
        assert ps.colors is not None
        assert ps.colors[0] is Color.RED and ps.colors[2] is Color.BLUE
        out = document_of(ps)
        assert out["red"] == [[0.0, 0.0], [1.0, 1.0]]
        assert out["blue"] == [[2.0, 0.0], [3.0, 1.0]]

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"points": []}',
            '{"points": [[0, 0]]}',
            '{"points": [[0, 0], [1]]}',
            '{"points": [[0, 0], ["x", 1]]}',
            '{"points": [[0, 0], [1, 0]], "red": [[0, 0]]}',
            '{"red": [[0, 0]], "blue": [[1, 0], [2, 0]]}',
            '{"red": [[0, 0]]}',
            '{"points": [[0, 0], [Infinity, 0]]}',
            '{"points": [[0, 0], [1, 0]], "name": 7}',
            '{"points": [[true, 0], [1, false]]}',
            '{"red": [[false, 0]], "blue": [[1, 0]]}',
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(DocumentError):
            parse_document(text)


class TestDigest:
    def test_stable_and_input_sensitive(self):
        ps = PointSet.uncolored([(0, 0), (1, 0)])
        d1 = input_digest(ps)
        d2 = input_digest(ps)
        assert d1 == d2 and len(d1) == 64
        ps2 = PointSet.uncolored([(0, 0), (1.0000001, 0)])
        assert input_digest(ps2) != d1
