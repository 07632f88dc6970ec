"""The exclusive lane's inlined submit matches the locked lane's.

``Shard.submit`` inlines its enqueue step on the exclusive (lock-free)
path; a promoted shard takes ``_submit``/``_enqueue`` under the lock.
Fed one key stream, the two lanes must deliver identical sink batches
and end with identical counters and samples.
"""

from repro.core.plan import HashFamily
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.keygen import Distribution, generate_keys
from repro.keygen.keyspec import KEY_TYPES
from repro.serve.routes import RouteTable, build_route_state
from repro.serve.shard import Shard

FLUSH = 7


def _table():
    return RouteTable(
        [
            build_route_state(
                route_id, regex, HashFamily.PEXT, prefer_native=False
            )
            for route_id, regex in (
                ("r0", KEY_TYPES["SSN"].regex),  # length 11
                ("r1", KEY_TYPES["MAC"].regex),  # length 17
                ("r2", r"[a-z]{5}\.[0-9]{5}"),  # contests 11 with r0
            )
        ]
    )


def _stream():
    ssn = generate_keys("SSN", 40, Distribution.UNIFORM, seed=3)
    mac = generate_keys("MAC", 23, Distribution.UNIFORM, seed=3)
    contested = [b"abcde.%05d" % i for i in range(19)]
    fallback = [b"?" * 11, b"no-route-has-this-length"] * 8
    keys = []
    for index in range(max(len(ssn), len(mac), len(contested), 16)):
        for source in (ssn, mac, contested, fallback):
            if index < len(source):
                keys.append(source[index])
    return keys


def _run(shared):
    batches = []

    def sink(route, keys, values):
        batches.append(
            (
                route.route_id if route is not None else None,
                list(keys),
                [int(value) for value in values],
            )
        )

    shard = Shard(
        0, _table(), stl_hash_bytes, flush_size=FLUSH, sample_every=4,
        sink=sink,
    )
    if shared:
        shard.make_shared()
    for key in _stream():
        shard.submit(key)
    before_flush = len(batches)
    shard.flush()
    return shard, batches, before_flush


def test_exclusive_and_promoted_lanes_agree():
    exclusive, exclusive_batches, exclusive_cut = _run(shared=False)
    promoted, promoted_batches, promoted_cut = _run(shared=True)
    assert not exclusive.shared and promoted.shared
    assert exclusive_batches == promoted_batches
    assert exclusive_cut == promoted_cut
    # Every route and the fallback crossed a flush boundary mid-stream.
    assert {route for route, _, _ in exclusive_batches[:exclusive_cut]} == {
        "r0", "r1", "r2", None
    }
    for shard in (exclusive, promoted):
        assert shard.pending_count() == 0
    assert exclusive.route_counts == promoted.route_counts
    assert exclusive.samples == promoted.samples
    assert exclusive.unrouted_samples == promoted.unrouted_samples
    assert exclusive.sampled == promoted.sampled
    assert (exclusive.tick, exclusive.hashed, exclusive.fallback_count) == (
        promoted.tick, promoted.hashed, promoted.fallback_count
    )
    assert exclusive.tick == len(_stream())
    assert exclusive.fallback_count == 16
