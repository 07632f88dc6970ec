"""FormatDispatcher and HashService route every key the same way.

Both are views over one :class:`~repro.serve.routes.RouteTable`, so a
key must hash to the same value through either, on every entry point,
whatever the registration set: a fixed route overlapped by a narrow
variable route, a length contested by two fixed routes, an unbounded
variable route (which turns length trust off), and unrouted keys.
"""

import pytest

from repro.core.dispatch import FormatDispatcher
from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.keygen.distributions import Distribution
from repro.keygen.generator import generate_keys
from repro.keygen.keyspec import KEY_TYPES
from repro.serve.service import HashService

SSN = KEY_TYPES["SSN"].regex  # length 11
NARROW = r"[a-z]{8,20}"  # claims lengths 8..20, SSN's 11 among them
DIGITS = r"[0-9]{24}"  # DIGITS and UPPER contest length 24
UPPER = r"[A-Z]{24}"
UNBOUNDED = r"abcdefgh[0-9]{4}.*"

NARROW_SET = [
    (SSN, HashFamily.PEXT),
    (NARROW, HashFamily.OFFXOR),
    (DIGITS, HashFamily.PEXT),
    (UPPER, HashFamily.OFFXOR),
]
FULL_SET = NARROW_SET + [(UNBOUNDED, HashFamily.OFFXOR)]


def _stream():
    keys = list(generate_keys("SSN", 12, Distribution.UNIFORM, seed=1))
    keys += [
        b"abcdefghijk",  # 11 bytes: the narrow route's, not SSN's
        b"abcdefgh",
        b"qwertyuiopasdfghjklz",
        b"0123456789" * 2 + b"0123",  # DIGITS
        b"ABCDEFGHIJKLMNOPQRSTUVWX",  # UPPER
        b"abcdefgh1234",  # UNBOUNDED (and NARROW's length)
        b"abcdefgh1234-and-a-longer-tail",
        b"###########",  # SSN's length, no template
        b"????????????????????????",  # contested length, no template
        b"short",
        b"a-key-of-no-registered-length-at-all!!",
    ]
    return keys


def _pair(registrations):
    dispatcher = FormatDispatcher(prefer_native=False)
    service = HashService(shards=1, prefer_native=False)
    for regex, family in registrations:
        synthesized = synthesize(regex, family)
        dispatcher.register(synthesized)
        service.register(synthesized)
    return dispatcher, service


@pytest.fixture(
    scope="module", params=[NARROW_SET, FULL_SET], ids=["narrow", "full"]
)
def pair(request):
    return _pair(request.param)


def test_scalar_calls_agree(pair):
    dispatcher, service = pair
    for key in _stream():
        assert dispatcher(key) == service.hash(key), key


def test_hash_many_agrees(pair):
    dispatcher, service = pair
    keys = _stream()
    assert dispatcher.hash_many(keys) == service.hash_many(keys)
    assert dispatcher.hash_many(keys) == [dispatcher(key) for key in keys]


def test_hash_many_array_agrees(pair):
    dispatcher, service = pair
    keys = _stream()
    assert (
        dispatcher.hash_many_array(keys).tolist()
        == service.hash_many_array(keys).tolist()
        == service.hash_many(keys)
    )


@pytest.mark.parametrize(
    "batch",
    [
        [b"abcdefghijk"] * 8,
        [b"###########"] * 8,
        [b"0123456789" * 2 + b"0123"] * 8,
    ],
    ids=["narrow-at-ssn-length", "unrouted-at-ssn-length", "contested"],
)
def test_same_length_batches_agree(pair, batch):
    dispatcher, service = pair
    expected = [service.hash(key) for key in batch]
    assert dispatcher.hash_many(batch) == expected
    assert service.hash_many(batch) == expected
    assert dispatcher.hash_many_array(batch).tolist() == expected
    assert service.hash_many_array(batch).tolist() == expected
