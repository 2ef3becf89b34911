"""Real-operation benchmarks of the Table-3 workload implementations.

These time the *actual Python data-structure operations* (count-min
updates, TCAM lookups, LPM walks, quicksort ranking, …) — complementing
the calibrated virtual-time model with measured wall-clock numbers, and
giving pytest-benchmark something steady-state to chew on.
"""

import pytest

from repro.apps.microbench import (
    CountMinSketch,
    KvCache,
    LpmRouter,
    MaglevTable,
    NaiveBayesClassifier,
    PFabricScheduler,
    QueuedPacket,
    RateLimiter,
    ReplicationChain,
    SoftwareTcam,
    TopRanker,
    FEATURE_CARDINALITIES,
    ip,
    packet_features,
)
from repro.apps.nf import generate_ruleset
from repro.apps.rta import Regex
from repro.sim import Rng


def test_bench_countmin_update(benchmark):
    sketch = CountMinSketch(width=2048, depth=4)
    counter = iter(range(10**9))
    benchmark(lambda: sketch.update(next(counter) % 5000))
    assert sketch.updates > 0


def test_bench_kvcache_mixed(benchmark):
    cache = KvCache(capacity_bytes=1 << 20)
    rng = Rng(1)
    keys = [f"key{i}".encode() for i in range(2000)]
    for key in keys[:1000]:
        cache.write(key, b"v" * 64)

    def op():
        key = keys[rng.randint(0, 1999)]
        if rng.random() < 0.1:
            cache.write(key, b"v" * 64)
        else:
            cache.read(key)

    benchmark(op)
    assert cache.hits + cache.misses > 0


def test_bench_topranker_quicksort(benchmark):
    ranker = TopRanker(n=10)
    rng = Rng(2)
    data = [(i, rng.randint(0, 100_000)) for i in range(512)]
    result = benchmark(lambda: ranker.rank(list(data)))
    assert len(result) == 10


def test_bench_rate_limiter(benchmark):
    limiter = RateLimiter(rate_bytes_per_us=1250.0, burst_bytes=15_000.0)
    clock = iter(range(10**9))
    benchmark(lambda: limiter.admit(next(clock) % 64, 512,
                                    now=float(next(clock))))


def test_bench_tcam_8k_rules(benchmark):
    tcam = SoftwareTcam()
    tcam.install_many(generate_ruleset(8192, rng=Rng(3)))
    rng = Rng(4)

    def lookup():
        from repro.apps.microbench import pack_key
        return tcam.lookup(pack_key(rng.randint(0, (1 << 32) - 1),
                                    rng.randint(0, (1 << 32) - 1),
                                    rng.randint(0, 65535),
                                    rng.randint(0, 65535), 6))

    benchmark(lookup)
    assert tcam.lookups > 0


def test_bench_lpm_lookup(benchmark):
    router = LpmRouter()
    rng = Rng(5)
    for i in range(4096):
        router.add_route(rng.randint(0, (1 << 32) - 1),
                         rng.randint(8, 28), f"hop{i % 64}")
    benchmark(lambda: router.lookup(rng.randint(0, (1 << 32) - 1)))


def test_bench_maglev_pick(benchmark):
    table = MaglevTable([f"b{i}" for i in range(16)], table_size=2039)
    counter = iter(range(10**9))
    benchmark(lambda: table.pick(f"flow{next(counter) % 10_000}"))


def test_bench_pfabric_enqueue_dequeue(benchmark):
    sched = PFabricScheduler()
    rng = Rng(6)

    def op():
        sched.enqueue(QueuedPacket(flow_id=1,
                                   remaining_bytes=rng.randint(64, 100_000)))
        if len(sched) > 256:
            sched.dequeue()

    benchmark(op)


def test_bench_nbayes_classify(benchmark):
    clf = NaiveBayesClassifier(["web", "bulk", "voice"], FEATURE_CARDINALITIES)
    rng = Rng(7)
    for _ in range(300):
        clf.train(packet_features(rng.randint(64, 1500),
                                  rng.uniform(0.1, 100.0),
                                  rng.randint(1, 65535)),
                  str(rng.choice(["web", "bulk", "voice"])))
    benchmark(lambda: clf.classify(packet_features(
        rng.randint(64, 1500), rng.uniform(0.1, 100.0),
        rng.randint(1, 65535))))


def test_bench_chain_replication_write(benchmark):
    chain = ReplicationChain([f"r{i}" for i in range(3)])
    counter = iter(range(10**9))
    benchmark(lambda: chain.write(f"k{next(counter) % 1000}", "v"))
    assert chain.writes > 0


def test_bench_regex_filter(benchmark):
    regex = Regex("#[a-z]+")
    benchmark(lambda: regex.search("look at this #hashtag in the stream"))


def test_bench_regex_filter_long_miss(benchmark):
    # a 512-char tuple that never matches: one DFA pass over the text,
    # where the old NFA walk restarted at each of its 513 offsets
    regex = Regex("#[a-z]+")
    text = ("no tags in this stream tuple, " * 18)[:512]
    assert len(text) == 512 and not regex.search(text)
    benchmark(lambda: regex.search(text))
