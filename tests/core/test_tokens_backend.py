"""TaggedToken model and the back-end pipeline protocol."""

import pickle

import pytest

from repro.core.backend import Backend, TaggingPipeline
from repro.core.tagger import BehavioralTagger
from repro.core.tokens import TaggedToken
from repro.grammar.analysis import Occurrence
from repro.grammar.symbols import Terminal


def _token():
    return TaggedToken(
        token="STRING",
        occurrence=Occurrence(1, 1, Terminal("STRING")),
        lexeme=b"deposit",
        start=24,
        end=31,
        index=5,
    )


class TestTaggedToken:
    def test_context_name(self):
        assert _token().context == "p1.1"

    def test_text_decodes(self):
        assert _token().text() == "deposit"

    def test_str_format(self):
        text = str(_token())
        assert "STRING@p1.1" in text
        assert "[24:31]" in text

    def test_frozen(self):
        token = _token()
        with pytest.raises(AttributeError):
            token.start = 0  # type: ignore[misc]
        with pytest.raises(AttributeError):
            token.extra = 0  # no instance dict either

    def test_tuple_form_round_trips(self):
        """Immutable, hashable, equal by value, picklable — what the
        frozen dataclass was, now as the tuple the kernel can build."""
        token = _token()
        same = _token()
        assert token == same and hash(token) == hash(same)
        assert token != same._replace(end=32)
        assert len({token, same, same._replace(index=6)}) == 2
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(token, protocol))
            assert type(copy) is TaggedToken
            assert copy == token and hash(copy) == hash(token)
        assert tuple(token) == (
            "STRING", token.occurrence, b"deposit", 24, 31, 5
        )

    def test_positional_builder(self):
        """``of`` names the token after the occurrence, coerces the
        lexeme to ``bytes`` and leaves ``index`` optional."""
        occurrence = Occurrence(1, 1, Terminal("STRING"))
        built = TaggedToken.of(occurrence, bytearray(b"deposit"), 24, 31, 5)
        assert built == _token()
        assert type(built) is TaggedToken and type(built.lexeme) is bytes
        view = memoryview(b"xdeposit")[1:]
        assert TaggedToken.of(occurrence, view, 24, 31).lexeme == b"deposit"
        assert TaggedToken.of(occurrence, b"", 0, 0).index is None

    def test_bad_utf8_replaced(self):
        token = TaggedToken(
            token="B",
            occurrence=Occurrence(0, 0, Terminal("B")),
            lexeme=b"\xff\xfe",
            start=0,
            end=2,
        )
        assert token.text()  # no exception


class _Collector:
    def __init__(self):
        self.tokens = []
        self.ended = 0

    def on_token(self, token, data):
        self.tokens.append(token.token)

    def on_end(self, data):
        self.ended += 1


class TestPipeline:
    def test_dispatches_in_order(self, ite_grammar):
        sink_a, sink_b = _Collector(), _Collector()
        pipeline = TaggingPipeline(
            BehavioralTagger(ite_grammar), [sink_a, sink_b]
        )
        tokens = pipeline.process(b"if true then go else stop")
        assert sink_a.tokens == [t.token for t in tokens]
        assert sink_b.tokens == sink_a.tokens
        assert sink_a.ended == 1

    def test_collector_satisfies_protocol(self):
        assert isinstance(_Collector(), Backend)
