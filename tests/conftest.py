"""Shared fixtures: the paper's grammars and canonical messages."""

from __future__ import annotations

import pytest

from repro.apps.xmlrpc import WorkloadGenerator
from repro.grammar.examples import balanced_parens, if_then_else, xmlrpc


@pytest.fixture(scope="session")
def ite_grammar():
    """Fig. 9: the if-then-else grammar."""
    return if_then_else()


@pytest.fixture(scope="session")
def parens_grammar():
    """Fig. 1: balanced parentheses."""
    return balanced_parens()


@pytest.fixture(scope="session")
def xmlrpc_grammar():
    """Fig. 14: the XML-RPC grammar."""
    return xmlrpc()


@pytest.fixture(scope="session")
def xmlrpc_message() -> bytes:
    """A fixed, fully featured, valid XML-RPC message."""
    return (
        b"<methodCall><methodName>deposit</methodName><params>"
        b"<param><i4>42</i4></param>"
        b"<param><string>savings</string></param>"
        b"<param><dateTime.iso8601>20060704T12:30:05</dateTime.iso8601></param>"
        b"<param><double>-3.50</double></param>"
        b"<param><base64>dGVzdA+/</base64></param>"
        b"<param><struct><member><name>k</name><int>7</int></member></struct></param>"
        b"<param><array><data><string>x1</string></data></array></param>"
        b"</params></methodCall>"
    )


@pytest.fixture(scope="session")
def xmlrpc_stream() -> bytes:
    """A seeded multi-message stream (valid, no decoys)."""
    generator = WorkloadGenerator(seed=1234)
    stream, _truth = generator.stream(8)
    return stream
