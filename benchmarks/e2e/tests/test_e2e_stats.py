"""The percentile rule, the open-loop scheduler and the host-speed window."""

import asyncio

from benchmarks.e2e.runner import HTTP_WINDOW_S, _slowdown_at, open_loop
from benchmarks.e2e.stats import REFERENCE_INLINE_S, percentile, supported_tail


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 95
    assert percentile(samples, 100) == 100
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([5.0], 95) == 5.0
    assert percentile([], 95) == 0.0


def test_p95_has_five_percent_of_the_samples_beyond_it():
    samples = [float(i) for i in range(400)]
    p95 = percentile(samples, 95)
    assert sum(1 for s in samples if s > p95) == 20


def test_supported_tail_needs_ten_samples_beyond():
    assert supported_tail(1000) == 99
    assert supported_tail(999) == 95
    assert supported_tail(200) == 95
    assert supported_tail(199) == 90
    assert supported_tail(99) == 50


class FakeTime:
    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    async def sleep(self, seconds):
        self.now += seconds


def test_open_loop_times_each_request_from_when_it_was_due():
    fake = FakeTime()
    service = {0: 0.5, 1: 0.1, 2: 0.1, 3: 0.1}

    async def send(op):
        fake.now += service[op]

    # Due every 0.2 s; the first request stalls for 0.5 s.
    timed = asyncio.run(open_loop(
        [0, 1, 2, 3], lambda op: op * 0.2, send, fake.clock, fake.sleep
    ))
    due = [d - 100.0 for _, d, _, _ in timed]
    sent = [s - 100.0 for _, _, s, _ in timed]
    done = [e - 100.0 for _, _, _, e in timed]
    assert [round(d, 6) for d in due] == [0.0, 0.2, 0.4, 0.6]
    # Requests 1 and 2 were due during the stall: sent late, at once.
    assert [round(s, 6) for s in sent] == [0.0, 0.5, 0.6, 0.7]
    # Latency from due time counts the wait the stall imposed ...
    assert [round(e - d, 6) for e, d in zip(done, due)] == [0.5, 0.4, 0.3, 0.2]
    # ... and lateness says how far behind the sender ran.
    assert [round(s - d, 6) for s, d in zip(sent, due)] == [0.0, 0.3, 0.2, 0.1]


def test_open_loop_never_sends_early():
    fake = FakeTime()

    async def send(op):
        fake.now += 0.01

    timed = asyncio.run(open_loop(
        [0, 1, 2], lambda op: op * 1.0, send, fake.clock, fake.sleep
    ))
    assert all(sent >= due for _, due, sent, _ in timed)


def test_slowdown_is_the_median_of_the_samples_around_the_moment():
    unit = REFERENCE_INLINE_S
    # A quiet host, one sample that lost the interpreter lock, then a
    # host twice as slow from t = 10 on.
    kernel = [(0.1 * i, unit) for i in range(100)]
    kernel[20] = (2.0, 40 * unit)
    kernel += [(10.0 + 0.1 * i, 2 * unit) for i in range(100)]
    at = _slowdown_at(kernel)
    assert at(2.0) == 1.0
    assert at(15.0) == 2.0
    assert at(10.0 - HTTP_WINDOW_S - 0.05) == 1.0
    assert at(500.0) == 2.0  # no sample near: the median of them all
