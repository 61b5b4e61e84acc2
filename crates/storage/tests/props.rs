//! Property-based tests for the storage substrates: no sample is ever
//! lost, duplicated, reordered, or corrupted, under arbitrary sizes and
//! concurrency.

use bytes::Bytes;
use nopfs_storage::{MemoryBackend, ReorderStage, StagingBuffer, StorageBackend};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FIFO staging preserves order and bytes for any sample sizes.
    #[test]
    fn staging_fifo_integrity(sizes in prop::collection::vec(1usize..200, 1..60)) {
        let buf = StagingBuffer::new(10_000);
        let expected: Vec<(u64, Bytes)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u64, Bytes::from(vec![(i % 251) as u8; s])))
            .collect();
        let b2 = buf.clone();
        let exp2 = expected.clone();
        let producer = std::thread::spawn(move || {
            for (id, data) in exp2 {
                assert!(b2.push(id, data));
            }
            b2.close();
        });
        let mut got = Vec::new();
        while let Some(item) = buf.pop() {
            got.push(item);
        }
        producer.join().expect("producer");
        prop_assert_eq!(got, expected);
    }

    /// Reorder staging delivers positions 0..n in order regardless of
    /// the (shuffled) push order, with multiple producers.
    #[test]
    fn reorder_delivers_in_position_order(
        seed in any::<u64>(),
        n in 1u64..120,
    ) {
        use nopfs_util::rng::Xoshiro256pp;
        let stage = ReorderStage::new(100_000);
        let mut order: Vec<u64> = (0..n).collect();
        Xoshiro256pp::seed_from_u64(seed).shuffle(&mut order);
        let halves: Vec<Vec<u64>> = order.chunks((n as usize).div_ceil(2)).map(<[u64]>::to_vec).collect();
        let producers: Vec<_> = halves
            .into_iter()
            .map(|chunk| {
                let stage = stage.clone();
                std::thread::spawn(move || {
                    for pos in chunk {
                        stage.push(pos, pos * 7, Bytes::from(vec![(pos % 256) as u8; 4]));
                    }
                })
            })
            .collect();
        for pos in 0..n {
            let (id, data) = stage.pop().expect("every position arrives");
            prop_assert_eq!(id, pos * 7);
            prop_assert_eq!(data[0], (pos % 256) as u8);
        }
        for p in producers {
            p.join().expect("producer");
        }
        prop_assert_eq!(stage.used(), 0);
    }

    /// Batched handoff: 1–4 producers claim runs of random length and
    /// hand each over with one `push_run`, under capacities down to a
    /// single sample, while the consumer takes random `pop_many` sizes.
    /// Every position arrives exactly once, in order, with its bytes,
    /// and the stage drains to zero.
    #[test]
    fn reorder_runs_and_batches_deliver_every_position_once(
        sizes in prop::collection::vec(1usize..=64, 1..200),
        producers in 1usize..=4,
        runs in prop::collection::vec(1u64..=12, 1..8),
        cap_samples in 1u64..=8,
        pops in prop::collection::vec(1usize..=40, 1..8),
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let n = sizes.len() as u64;
        let stage = ReorderStage::new(cap_samples * 64);
        let sizes = Arc::new(sizes);
        let claimed = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..producers)
            .map(|t| {
                let (stage, sizes, claimed, runs) =
                    (stage.clone(), Arc::clone(&sizes), Arc::clone(&claimed), runs.clone());
                std::thread::spawn(move || {
                    for round in t.. {
                        let len = runs[round % runs.len()];
                        let base = claimed.fetch_add(len, Ordering::SeqCst);
                        if base >= n {
                            break;
                        }
                        let run = (base..(base + len).min(n)).map(|pos| {
                            (pos * 7 + 1, Bytes::from(vec![(pos % 251) as u8; sizes[pos as usize]]))
                        });
                        assert!(stage.push_run(base, run));
                    }
                })
            })
            .collect();
        let mut got = Vec::new();
        for want in pops.iter().cycle() {
            let left = (n - got.len() as u64) as usize;
            if left == 0 {
                break;
            }
            let want = (*want).min(left);
            prop_assert_eq!(stage.pop_many(want, &mut got), want);
        }
        for h in handles {
            h.join().expect("producer");
        }
        for (pos, (id, data)) in got.iter().enumerate() {
            prop_assert_eq!(*id, pos as u64 * 7 + 1);
            prop_assert_eq!(data.len(), sizes[pos]);
            prop_assert!(data.iter().all(|&b| b == (pos % 251) as u8));
        }
        prop_assert_eq!(stage.used(), 0);
    }

    /// Memory backends account bytes exactly under arbitrary
    /// insert/evict/replace interleavings.
    #[test]
    fn backend_accounting_is_exact(
        ops in prop::collection::vec((0u64..20, 1usize..64, any::<bool>()), 1..100)
    ) {
        let b = MemoryBackend::new("prop", 100_000);
        let mut model: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for (id, size, evict) in ops {
            if evict {
                let was = model.remove(&id).is_some();
                prop_assert_eq!(b.evict(id), was);
            } else {
                b.insert(id, Bytes::from(vec![0u8; size])).expect("fits");
                model.insert(id, size);
            }
            let expect: usize = model.values().sum();
            prop_assert_eq!(b.used() as usize, expect);
            prop_assert_eq!(b.count(), model.len());
        }
        for (&id, &size) in &model {
            prop_assert_eq!(b.get(id).expect("present").len(), size);
        }
    }
}
