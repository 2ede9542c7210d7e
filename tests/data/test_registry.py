"""Unit tests for the backend name table (DESIGN.md §2i): the
unknown-name error of ``create`` and the uniform ``--backend-opt``
coercion pipeline.
"""

from __future__ import annotations

import pytest

from repro.data.backends import (
    BACKENDS,
    coerce_option,
    create,
    parse_backend_opts,
)


class TestErrors:
    def test_unknown_backend_lists_sorted_choices(self):
        assert sorted(BACKENDS) == ["bitmask", "dbapi"]
        with pytest.raises(
            ValueError,
            match=r"unknown evaluation backend 'missing'; "
            r"choices: bitmask, dbapi$",
        ):
            create("missing", None, None)


class TestOptionPipeline:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ("true", True),
            ("Yes", True),
            ("off", False),
            ("none", None),
            ("42", 42),
            ("2.5", 2.5),
            ("file:/tmp/db.sqlite", "file:/tmp/db.sqlite"),
            ("sqlite", "sqlite"),
        ],
    )
    def test_coercion(self, raw, expected):
        assert coerce_option(raw) == expected

    def test_parse_pairs(self):
        options = parse_backend_opts(
            ["uri=file:x.db", "answers=2", "strict=false"]
        )
        assert options == {
            "uri": "file:x.db",
            "answers": 2,
            "strict": False,
        }
        assert parse_backend_opts(None) == {}

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_backend_opts(["strict"])
        with pytest.raises(ValueError, match="key=value"):
            parse_backend_opts(["=3"])

    def test_value_may_contain_equals(self):
        options = parse_backend_opts(["uri=file:x.db?mode=memory"])
        assert options["uri"] == "file:x.db?mode=memory"
