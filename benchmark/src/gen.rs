//! The benchmark's seeded KV operation generator. The service never sees
//! the seed: it receives only the operations generated from it.

use iroram_kv::KvOp;
use iroram_sim_engine::SimRng;

/// How keys are drawn from `1..=keys`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipf with the given exponent over a seeded popularity order.
    Zipf(f64),
}

/// A reproducible stream of 70% get / 25% put / 5% delete operations.
pub struct OpGen {
    rng: SimRng,
    keys: u64,
    /// Zipf only: cumulative weights of popularity ranks `0..keys`.
    cdf: Vec<f64>,
    /// Zipf only: the key at each popularity rank (a seeded permutation,
    /// so hot keys land on every shard).
    by_rank: Vec<u32>,
}

impl OpGen {
    /// A generator over keys `1..=keys`.
    pub fn new(keys: u64, dist: KeyDist, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let (cdf, by_rank) = match dist {
            KeyDist::Uniform => (Vec::new(), Vec::new()),
            KeyDist::Zipf(s) => {
                let mut acc = 0.0;
                let cdf = (1..=keys)
                    .map(|rank| {
                        acc += 1.0 / (rank as f64).powf(s);
                        acc
                    })
                    .collect();
                let mut by_rank = all_keys(keys);
                rng.shuffle(&mut by_rank);
                (cdf, by_rank)
            }
        };
        OpGen {
            rng,
            keys,
            cdf,
            by_rank,
        }
    }

    fn key(&mut self) -> u32 {
        match self.cdf.last() {
            None => 1 + self.rng.next_below(self.keys) as u32,
            Some(&total) => {
                let r = self.rng.next_f64() * total;
                let rank = self.cdf.partition_point(|&c| c < r);
                self.by_rank[rank.min(self.by_rank.len() - 1)]
            }
        }
    }

    /// The next operation of the stream.
    pub fn next_op(&mut self) -> KvOp {
        let key = self.key();
        match self.rng.next_below(100) {
            0..=69 => KvOp::Get { key },
            70..=94 => KvOp::Put {
                key,
                value: self.rng.next_u64() as u32,
            },
            _ => KvOp::Delete { key },
        }
    }
}

/// Keys `1..=keys` in ascending order.
pub fn all_keys(keys: u64) -> Vec<u32> {
    (1..=keys as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(dist: KeyDist, seed: u64) -> Vec<KvOp> {
        let mut g = OpGen::new(1_000, dist, seed);
        (0..2_000).map(|_| g.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_differs() {
        for dist in [KeyDist::Uniform, KeyDist::Zipf(0.99)] {
            assert_eq!(stream(dist, 7), stream(dist, 7), "{dist:?}");
            assert_ne!(stream(dist, 7), stream(dist, 8), "{dist:?}");
        }
    }

    #[test]
    fn keys_stay_in_range_and_the_mix_holds() {
        for dist in [KeyDist::Uniform, KeyDist::Zipf(0.99)] {
            let ops = stream(dist, 3);
            assert!(ops.iter().all(|op| (1..=1_000).contains(&op.key())));
            let gets = ops
                .iter()
                .filter(|op| matches!(op, KvOp::Get { .. }))
                .count();
            let dels = ops
                .iter()
                .filter(|op| matches!(op, KvOp::Delete { .. }))
                .count();
            assert!((1_300..1_500).contains(&gets), "{dist:?}: {gets} gets");
            assert!((50..160).contains(&dels), "{dist:?}: {dels} deletes");
        }
    }

    #[test]
    fn zipf_concentrates_on_few_keys() {
        let hot = |dist| {
            let mut count = vec![0u32; 1_001];
            for op in stream(dist, 11) {
                count[op.key() as usize] += 1;
            }
            count.sort_unstable();
            count[990..].iter().sum::<u32>()
        };
        // The ten hottest keys draw about a third of a Zipf(0.99) stream
        // over 1,000 keys, and about 1% of a uniform one.
        assert!(hot(KeyDist::Zipf(0.99)) > 500);
        assert!(hot(KeyDist::Uniform) < 150);
    }
}
