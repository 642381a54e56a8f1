"""The seeded zipfian rank sampler."""

from collections import Counter

import pytest

from repro.workloads.synthetic import ZipfianWorkload


def ranks(workload, count):
    return [workload.sample_rank() for _ in range(count)]


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = ZipfianWorkload(population=50, seed=11)
        b = ZipfianWorkload(population=50, seed=11)
        assert ranks(a, 200) == ranks(b, 200)

    def test_different_seeds_diverge(self):
        a = ranks(ZipfianWorkload(50, seed=1), 50)
        b = ranks(ZipfianWorkload(50, seed=2), 50)
        assert a != b


class TestSkew:
    def counts(self, skew, samples=3000):
        skewed = type("Skewed", (ZipfianWorkload,), {"SKEW": skew})
        workload = skewed(population=100, seed=5)
        counts = [0] * 100
        for _ in range(samples):
            counts[workload.sample_rank()] += 1
        return counts

    def test_head_dominates_at_high_skew(self):
        counts = self.counts(skew=1.4)
        head = sum(counts[:10])
        tail = sum(counts[50:])
        assert head > 5 * max(tail, 1)

    def test_zero_skew_is_roughly_uniform(self):
        counts = self.counts(skew=0.0)
        assert max(counts) < 3 * (sum(counts) / len(counts))

    def test_higher_skew_concentrates_harder(self):
        mild = sum(self.counts(skew=0.5)[:5])
        hot = sum(self.counts(skew=1.5)[:5])
        assert hot > mild

    def test_ranks_stay_in_population(self):
        workload = ZipfianWorkload(population=7, seed=9)
        assert all(0 <= rank < 7 for rank in ranks(workload, 500))

    def test_hot_ranks_are_the_head(self):
        """Rank 0 is the hottest key: the most drawn ranks are the
        lowest ones."""
        drawn = Counter(ranks(ZipfianWorkload(population=30, seed=1), 3000))
        assert [rank for rank, _ in drawn.most_common(3)] == [0, 1, 2]


class TestMix:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianWorkload(population=0)
