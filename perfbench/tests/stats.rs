//! The benchmark's own statistics: the tail rule, open-loop timing from
//! the due time, and span self-time arithmetic.

use dfss_perfbench::stats::{self, Paced};
use dfss_perfbench::trace::{by_layer, self_times, Span, Tracer};
use std::time::{Duration, Instant};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn gated_percentile_refuses_with_fewer_than_ten_samples_beyond() {
    // 199 samples: p95 sits at rank 190, nine beyond it.
    assert!(stats::gated_percentile(&ramp(199), 95.0).is_err());
    // 200 samples: rank 190, ten beyond — reportable.
    assert_eq!(stats::gated_percentile(&ramp(200), 95.0), Ok(190.0));
    // A p99 needs a thousand.
    assert!(stats::gated_percentile(&ramp(999), 99.0).is_err());
    assert_eq!(stats::gated_percentile(&ramp(1000), 99.0), Ok(990.0));
    assert!(stats::gated_percentile(&[], 50.0).is_err());
}

#[test]
fn diagnostic_percentile_reports_any_sample_count() {
    assert_eq!(stats::percentile(&[3.0, 1.0, 2.0], 99.0), Some(3.0));
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(stats::percentile(&[], 50.0), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    assert_eq!(stats::quartiles(&ramp(10)), Some((2.75, 8.25)));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(stats::quartiles(&ramp(5)), Some((1.5, 4.5)));
    let spread = stats::quartile_spread(&ramp(10)).unwrap();
    assert!((spread - 5.5 / 5.0).abs() < 1e-12);
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    // Operations due every 10 ms; the generator stalls for the first
    // 50 ms and then sends the backlog at once. Each reply takes 1 ms.
    let ms = 1_000_000u64;
    let ops: Vec<Paced> = (0..20)
        .map(|i| {
            let due = i * 10 * ms;
            let sent = due.max(50 * ms);
            Paced {
                due,
                sent,
                done: sent + ms,
            }
        })
        .collect();
    let latency: Vec<f64> = ops.iter().map(Paced::latency_ms).collect();
    let late: Vec<f64> = ops.iter().map(Paced::late_ms).collect();
    // The first operation waited out the whole stall and its reply.
    assert_eq!(latency[0], 51.0);
    // On time after the stall: reply time only.
    assert_eq!(latency[10], 1.0);
    // The stall shows as lateness too, and nowhere is it hidden.
    assert_eq!(stats::percentile(&late, 99.0), Some(50.0));
    assert_eq!(stats::percentile(&latency, 99.0), Some(51.0));
    for (l, t) in latency.iter().zip(&late) {
        assert!(l >= t, "latency {l} must include lateness {t}");
    }
}

fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        layer,
        op: "op",
        start,
        end,
        parent,
        req: 7,
    }
}

#[test]
fn self_time_never_goes_negative() {
    let spans = vec![
        span("client", 100, 200, None),
        // Overlapping children, one spilling before the parent's start.
        span("serve.server", 90, 150, Some(0)),
        span("serve.server", 140, 170, Some(0)),
        // A child longer than its parent on both sides.
        span("serve.http", 0, 1_000, Some(0)),
        // A grandchild outside its parent entirely.
        span("kernels", 500, 600, Some(1)),
    ];
    let own = self_times(&spans);
    // The http child covers the root completely.
    assert_eq!(own[0], 0);
    assert_eq!(own[1], 60);
    assert_eq!(own[2], 30);
    assert_eq!(own[3], 1_000);
    assert_eq!(own[4], 100);

    let without_http: Vec<Span> = spans[..3].to_vec();
    let own = self_times(&without_http);
    // Union of [100,150) and [140,170) is 70 ns of the root's 100.
    assert_eq!(own[0], 30);
    let layers = by_layer(&without_http);
    assert_eq!(layers["client"].self_ns, 30);
    assert_eq!(layers["serve.server"].count, 2);
    assert_eq!(layers["serve.server"].self_ns, 90);
}

#[test]
fn tracer_off_records_nothing_and_absorb_rebases_parents() {
    let origin = Instant::now();
    let later = origin + Duration::from_micros(5);
    let mut off = Tracer::new(false, origin);
    assert_eq!(off.open("client", "op", 1, origin), None);
    assert!(off.spans().is_empty());

    let mut a = Tracer::new(true, origin);
    let root = a.open("client", "op", 1, origin);
    a.record("serve.server", "admit", root, 1, origin, later);
    a.close(root, later);
    let mut b = Tracer::new(true, origin);
    let root_b = b.open("client", "op", 2, origin);
    b.record("serve.server", "admit", root_b, 2, origin, later);
    b.close(root_b, later);
    a.absorb(b);
    assert_eq!(a.spans().len(), 4);
    assert_eq!(a.spans()[3].parent, Some(2));
    assert_eq!(a.spans()[2].end, 5_000);
}

#[test]
fn a_slow_episode_shows_in_the_whole_window_percentile() {
    // Twenty seconds of 1 ms operations at 100/s, with a 2.5 s episode in
    // which every operation takes 10 ms: an eighth of the samples, so the
    // whole window's p90 reports the episode rather than riding it out.
    let samples: Vec<f64> = (0..2000)
        .map(|i| if (300..550).contains(&i) { 10.0 } else { 1.0 })
        .collect();
    assert_eq!(stats::gated_percentile(&samples, 90.0), Ok(10.0));
    assert_eq!(stats::gated_percentile(&samples, 50.0), Ok(1.0));
}
