//! Tests for the benchmark's statistics helpers.

use perfbench::reference::{Kernel, CHECKSUM};
use perfbench::stats::{
    due_sample, median, per_reference, quantile, samples_for_tail, self_times, sum_per_reference,
    summarize, tail_percentile, Interval,
};

fn ramp(n: usize) -> Vec<f64> {
    // 1..=n, shuffled so the helpers cannot rely on sorted input.
    let mut xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    xs.reverse();
    xs.swap(0, n / 2);
    xs
}

#[test]
fn quantiles_interpolate_between_order_statistics() {
    let xs = ramp(5);
    assert_eq!(median(&xs), 3.0);
    assert_eq!(quantile(&xs, 0.25), 2.0);
    assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    assert_eq!(median(&[]), 0.0);
    let s = summarize(&ramp(9));
    assert_eq!((s.n, s.q1, s.median, s.q3), (9, 3.0, 5.0, 7.0));
}

#[test]
fn p90_needs_ten_samples_beyond_it() {
    assert_eq!(samples_for_tail(0.9, 10), 100);
    // 100 samples: the 90th smallest, with 91..=100 beyond it.
    assert_eq!(tail_percentile(&ramp(100), 0.9, 10), Some(90.0));
    // 99 samples: rank ⌈89.1⌉ = 90 leaves only 9 beyond.
    assert_eq!(tail_percentile(&ramp(99), 0.9, 10), None);
    // 250 samples: rank 225, 25 beyond.
    assert_eq!(tail_percentile(&ramp(250), 0.9, 10), Some(225.0));
    // Without a tail requirement a small set still yields its nearest rank.
    assert_eq!(tail_percentile(&ramp(5), 0.9, 0), Some(5.0));
    assert_eq!(tail_percentile(&[], 0.9, 0), None);
    assert_eq!(samples_for_tail(0.99, 10), 1000);
}

fn iv(id: u64, parent: u64, start_us: u64, end_us: u64) -> Interval {
    Interval {
        id,
        parent,
        start_us,
        end_us,
    }
}

#[test]
fn self_time_subtracts_the_children_it_covers() {
    let spans = [
        iv(1, 0, 0, 100),  // window
        iv(2, 1, 10, 40),  // child
        iv(3, 2, 15, 25),  // grandchild: counts against 2, not 1
        iv(4, 1, 50, 70),  // child
        iv(5, 1, 60, 80),  // child overlapping 4 (another thread)
        iv(6, 1, 95, 130), // child running past the parent's end
    ];
    let own = self_times(&spans);
    // Children of 1 cover [10,40) ∪ [50,80) ∪ [95,100) = 65 µs.
    assert_eq!(own[&1], 35);
    assert_eq!(own[&2], 20);
    assert_eq!(own[&3], 10);
    assert_eq!(own[&4], 20);
    assert_eq!(own[&6], 35);
    // Self times of a well-nested tree sum to the root's duration.
    let nested = [iv(1, 0, 0, 100), iv(2, 1, 10, 40), iv(3, 2, 15, 25)];
    assert_eq!(self_times(&nested).values().sum::<u64>(), 100);
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    // One connection, a request due every 10 ms. The first reply takes
    // 35 ms, so requests 1–3 go out late; timing from the send would hide
    // the stall, timing from the due time charges it to every request it
    // held back.
    let period = 10_000;
    let service = [35_000, 1_000, 1_000, 1_000, 1_000];
    let mut clock = 0;
    let mut got = Vec::new();
    for (i, s) in service.iter().enumerate() {
        let i = i as u64;
        let sent = clock.max(i * period);
        clock = sent + s;
        got.push(due_sample(i, period, sent, clock));
    }
    let latency: Vec<u64> = got.iter().map(|d| d.latency_us).collect();
    let late: Vec<u64> = got.iter().map(|d| d.late_us).collect();
    assert_eq!(latency, [35_000, 26_000, 17_000, 8_000, 1_000]);
    assert_eq!(late, [0, 25_000, 16_000, 7_000, 0]);
}

#[test]
fn windows_in_reference_units_pair_each_window_with_its_reference() {
    // The host runs at full speed, then at half speed: windows and their
    // references both double, so their ratios do not move.
    let walls = [200.0, 200.0, 400.0, 400.0];
    let refs = [20.0, 20.0, 40.0, 40.0];
    assert_eq!(per_reference(&walls, &refs), [10.0; 4]);
    assert_eq!(sum_per_reference(&walls, &refs), 10.0);
    // Σ wall / Σ reference weights long windows by their length.
    assert_eq!(sum_per_reference(&[10.0, 30.0], &[2.0, 2.0]), 10.0);
    assert_eq!(sum_per_reference(&[10.0], &[]), 0.0);
    assert!(per_reference(&[10.0], &[0.0]).is_empty());
}

#[test]
fn the_reference_kernel_is_pinned() {
    let mut kernel = Kernel::new();
    assert_eq!(kernel.run(), CHECKSUM);
    assert_eq!(kernel.run(), CHECKSUM, "a second run reuses the buffers");
    assert!(kernel.time_ms() > 0.0);
}
