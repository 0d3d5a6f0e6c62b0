"""The ``repro-serve/1`` wire format and address grammar.

One ``--connect ADDR`` flag carries both localhost TCP and unix-socket
addresses, so ``parse_address`` is the single point where the grammar
lives; the framing is newline-JSON with sorted keys so replies are
deterministic and diffable (docs/SCALING.md §6).
"""

import io

import pytest

from repro.serve import (SERVE_SCHEMA, ServeError, parse_address,
                         read_message, write_message)
from repro.serve.protocol import error_reply


class TestParseAddress:
    def test_host_port_is_tcp(self):
        assert parse_address("127.0.0.1:9123") \
            == ("tcp", ("127.0.0.1", 9123))
        assert parse_address("localhost:80") == ("tcp", ("localhost", 80))

    def test_empty_host_means_localhost(self):
        assert parse_address(":9123") == ("tcp", ("127.0.0.1", 9123))

    def test_plain_path_is_unix(self):
        assert parse_address("/tmp/repro.sock") \
            == ("unix", "/tmp/repro.sock")
        assert parse_address("relative.sock") == ("unix", "relative.sock")

    def test_path_with_colon_digit_tail_stays_unix(self):
        # a directory component disambiguates: "/" in the host part
        # means this cannot be HOST:PORT
        assert parse_address("/tmp/cache:1/serve.sock") \
            == ("unix", "/tmp/cache:1/serve.sock")

    def test_non_numeric_port_is_a_path(self):
        assert parse_address("host:port") == ("unix", "host:port")

    def test_empty_address_is_rejected(self):
        with pytest.raises(ServeError):
            parse_address("")


class TestFraming:
    def test_round_trip(self):
        wire = io.BytesIO()
        write_message(wire, {"op": "hello", "schema": SERVE_SCHEMA})
        wire.seek(0)
        assert read_message(wire) == {"op": "hello",
                                      "schema": SERVE_SCHEMA}
        assert read_message(wire) is None  # EOF

    def test_sorted_keys_are_deterministic(self):
        a, b = io.BytesIO(), io.BytesIO()
        write_message(a, {"b": 1, "a": 2})
        write_message(b, {"a": 2, "b": 1})
        assert a.getvalue() == b.getvalue()
        assert a.getvalue().endswith(b"\n")

    def test_garbage_line_raises(self):
        with pytest.raises(ServeError):
            read_message(io.BytesIO(b"not json\n"))

    def test_non_object_message_raises(self):
        with pytest.raises(ServeError):
            read_message(io.BytesIO(b"[1, 2]\n"))

    def test_error_reply_shape(self):
        reply = error_reply("ValueError", "boom")
        assert reply["ok"] is False
        assert reply["schema"] == SERVE_SCHEMA
        assert reply["error"] == {"type": "ValueError",
                                  "message": "boom"}
