//! A process-global registry of named counters, gauges, and
//! log-bucketed latency histograms.
//!
//! Everything is lock-free on the hot path: handles are `Arc`s over
//! atomics, so incrementing a counter or observing a latency is a few
//! atomic ops. The registry itself (a `Mutex<BTreeMap>`) is only locked
//! at registration and render time.
//!
//! Histograms use power-of-2 buckets over nanoseconds (HDR-style with a
//! log base of 2): bucket `i` counts observations with
//! `2^(i-1) < v <= 2^i` ns. 64 buckets cover 1 ns to ~584 years with at
//! most 2x relative error, which is plenty for the paper's Fig. 5/6
//! millisecond-scale delivery latencies.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

const BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramInner {
    /// `buckets[i]` counts observations in `(2^(i-1), 2^i]` ns
    /// (`buckets[0]` is `v <= 1`). The last bucket also absorbs
    /// anything larger.
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// A latency histogram with power-of-2 buckets over nanoseconds.
#[derive(Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

fn bucket_index(v_ns: u64) -> usize {
    // ceil(log2(v)) for v > 1; 0 for v in {0, 1}. v=2^k lands in
    // bucket k (bounds are inclusive on the right).
    if v_ns <= 1 {
        0
    } else {
        (u64::BITS - (v_ns - 1).leading_zeros()).min(BUCKETS as u32 - 1) as usize
    }
}

/// Upper bound of bucket `i` in nanoseconds (`2^i`).
fn bucket_bound_ns(i: usize) -> u64 {
    1u64 << i.min(63)
}

impl Histogram {
    /// Records one observation of `v_ns` nanoseconds.
    pub fn observe_ns(&self, v_ns: u64) {
        let inner = &self.0;
        inner.buckets[bucket_index(v_ns)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum_ns.fetch_add(v_ns, Ordering::Relaxed);
        inner.max_ns.fetch_max(v_ns, Ordering::Relaxed);
    }

    /// Records one observation of a [`Duration`].
    pub fn observe_duration(&self, d: Duration) {
        self.observe_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a timer that records into this histogram when dropped.
    pub fn start_timer(&self) -> ScopedTimer {
        ScopedTimer { histogram: self.clone(), started: Instant::now(), observed: false }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.0.sum_ns.load(Ordering::Relaxed)
    }

    /// Largest observation so far, in nanoseconds (exact, not bucketed).
    pub fn max_ns(&self) -> u64 {
        self.0.max_ns.load(Ordering::Relaxed)
    }

    /// Approximate quantile (`q` in `[0, 1]`), in nanoseconds, as the
    /// upper bound of the bucket holding the `q`-th observation — so at
    /// most 2x the true value. Returns 0 with no observations;
    /// `q >= 1.0` returns the exact max.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max_ns();
        }
        let rank = ((q.max(0.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_bound_ns(i);
            }
        }
        self.max_ns()
    }

    fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(self.0.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// Records elapsed time into a [`Histogram`] when dropped.
///
/// ```
/// let h = sdci_obs::registry().histogram("sdci_obs_doc_span_seconds");
/// {
///     let _timer = h.start_timer();
///     // ... timed work ...
/// } // observation recorded here
/// assert_eq!(h.count(), 1);
/// ```
pub struct ScopedTimer {
    histogram: Histogram,
    started: Instant,
    observed: bool,
}

impl ScopedTimer {
    /// Records now and consumes the timer, returning the elapsed time.
    pub fn observe(mut self) -> Duration {
        let elapsed = self.started.elapsed();
        self.histogram.observe_duration(elapsed);
        self.observed = true;
        elapsed
    }

    /// Consumes the timer without recording anything.
    pub fn discard(mut self) {
        self.observed = true;
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        if !self.observed {
            self.histogram.observe_duration(self.started.elapsed());
        }
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A cached family of [`Counter`]s sharing one name and one label key,
/// built by [`Registry::counter_vec`]. See that method for the caching
/// contract.
pub struct CounterVec {
    registry: &'static Registry,
    name: String,
    key: String,
    cells: RwLock<HashMap<String, Counter>>,
}

impl std::fmt::Debug for CounterVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterVec").field("name", &self.name).field("key", &self.key).finish()
    }
}

impl CounterVec {
    /// The counter for `value`, registering the
    /// `name{key="value"}` series on first use and answering from the
    /// cache afterwards.
    pub fn with(&self, value: &str) -> Counter {
        if let Some(c) = self.cells.read().unwrap_or_else(PoisonError::into_inner).get(value) {
            return c.clone();
        }
        let counter = self.registry.counter_with(&self.name, &[(self.key.as_str(), value)]);
        let mut cells = self.cells.write().unwrap_or_else(PoisonError::into_inner);
        cells.entry(value.to_string()).or_insert(counter).clone()
    }

    /// Adds 1 to the counter for `value`.
    pub fn inc(&self, value: &str) {
        self.with(value).inc();
    }

    /// Adds `n` to the counter for `value`.
    pub fn add(&self, value: &str, n: u64) {
        self.with(value).add(n);
    }
}

/// `(metric name, sorted label pairs)` — one time series.
type Key = (String, Vec<(String, String)>);

/// A registry of named metrics. Most code uses the process-global
/// [`registry()`]; tests construct their own. Its locks, and a
/// [`CounterVec`]'s, recover from poisoning ([`PoisonError::into_inner`]):
/// every operation leaves the map whole, so a thread that panicked
/// holding one stops no other from registering or scraping.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<Key, Metric>>,
}

impl Registry {
    /// Creates an empty registry (tests; production uses [`registry()`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        let key = (name.to_string(), labels);
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let metric = metrics.entry(key).or_insert_with(make);
        metric.clone()
    }

    /// Registers (or fetches) a counter. Panics if `name` already names
    /// a different metric kind — that is a programming error.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// A counter with labels, e.g. `("topic", "feed/")`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            m => panic!("metric {name} already registered as a {}", m.kind()),
        }
    }

    /// A cached counter family over one label key — the hot-path form
    /// of [`Registry::counter_with`] for call sites whose label value
    /// varies at runtime (per shard, per topic, per client).
    ///
    /// [`CounterVec::with`] resolves a label value to its [`Counter`]
    /// through a read-mostly cache, so only the *first* observation of
    /// each value pays the registry lock; after that it is one map read
    /// plus the atomic add. Requires `'static` because the cells keep
    /// registering new series against this registry for as long as the
    /// vec lives — the process-global [`registry()`](crate::registry)
    /// qualifies, and tests can `Box::leak` their own.
    pub fn counter_vec(
        &'static self,
        name: impl Into<String>,
        key: impl Into<String>,
    ) -> CounterVec {
        CounterVec { registry: self, name: name.into(), key: key.into(), cells: RwLock::default() }
    }

    /// Registers (or fetches) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// A gauge with labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, labels, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            m => panic!("metric {name} already registered as a {}", m.kind()),
        }
    }

    /// Registers (or fetches) a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// A histogram with labels.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_insert(name, labels, || Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h,
            m => panic!("metric {name} already registered as a {}", m.kind()),
        }
    }

    /// Renders every series in Prometheus text exposition format 0.0.4.
    ///
    /// Histograms expose `_bucket{le="..."}` / `_sum` / `_count` with
    /// `le` bounds converted to **seconds** (the Prometheus base unit);
    /// only non-empty buckets are listed (plus `+Inf`), keeping 64-bucket
    /// histograms compact on the wire.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::with_capacity(4096);
        let mut last_name = "";
        for ((name, labels), metric) in metrics.iter() {
            if name != last_name {
                let _ = writeln!(out, "# TYPE {name} {}", metric.kind());
                last_name = name;
            }
            match metric {
                Metric::Counter(c) => {
                    out.push_str(name);
                    write_labels(&mut out, labels, None);
                    let _ = writeln!(out, " {}", c.get());
                }
                Metric::Gauge(g) => {
                    out.push_str(name);
                    write_labels(&mut out, labels, None);
                    let _ = writeln!(out, " {}", g.get());
                }
                Metric::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (i, n) in counts.iter().enumerate() {
                        if *n == 0 {
                            continue;
                        }
                        cumulative += n;
                        let le = format!("{}", bucket_bound_ns(i) as f64 / 1e9);
                        let _ = write!(out, "{name}_bucket");
                        write_labels(&mut out, labels, Some(("le", &le)));
                        let _ = writeln!(out, " {cumulative}");
                    }
                    let _ = write!(out, "{name}_bucket");
                    write_labels(&mut out, labels, Some(("le", "+Inf")));
                    let _ = writeln!(out, " {}", h.count());
                    let _ = write!(out, "{name}_sum");
                    write_labels(&mut out, labels, None);
                    let _ = writeln!(out, " {}", h.sum_ns() as f64 / 1e9);
                    let _ = write!(out, "{name}_count");
                    write_labels(&mut out, labels, None);
                    let _ = writeln!(out, " {}", h.count());
                }
            }
        }
        out
    }

    /// Renders every series as one compact JSON object, for embedding in
    /// a periodic log record. Histograms appear as
    /// `{"count":..,"p50":..,"p90":..,"p99":..,"max":..}` with values in
    /// seconds.
    pub fn render_json(&self) -> String {
        let metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::with_capacity(1024);
        out.push('{');
        let mut first = true;
        for ((name, labels), metric) in metrics.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            out.push_str(name);
            for (k, v) in labels {
                let _ = write!(out, "{{{k}={v}}}");
            }
            out.push_str("\":");
            match metric {
                Metric::Counter(c) => {
                    let _ = write!(out, "{}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, "{}", g.get());
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                        h.count(),
                        h.quantile_ns(0.50) as f64 / 1e9,
                        h.quantile_ns(0.90) as f64 / 1e9,
                        h.quantile_ns(0.99) as f64 / 1e9,
                        h.max_ns() as f64 / 1e9,
                    );
                }
            }
        }
        out.push('}');
        out
    }

    /// Number of registered time series (histograms count as one).
    pub fn series_count(&self) -> usize {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

fn write_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-global metrics registry.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("c_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same underlying counter.
        assert_eq!(r.counter("c_total").get(), 5);

        let g = r.gauge("g");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let r = Registry::new();
        r.counter_with("drops_total", &[("topic", "a")]).inc();
        r.counter_with("drops_total", &[("topic", "b")]).add(2);
        assert_eq!(r.counter_with("drops_total", &[("topic", "a")]).get(), 1);
        assert_eq!(r.counter_with("drops_total", &[("topic", "b")]).get(), 2);
        assert_eq!(r.series_count(), 2);
    }

    #[test]
    fn counter_vec_caches_per_label_cells() {
        let r: &'static Registry = Box::leak(Box::new(Registry::new()));
        let vec = r.counter_vec("shard_events_total", "shard");
        vec.inc("0");
        vec.add("1", 3);
        vec.inc("0");
        // The cells are the registry's own series, not shadow copies.
        assert_eq!(r.counter_with("shard_events_total", &[("shard", "0")]).get(), 2);
        assert_eq!(r.counter_with("shard_events_total", &[("shard", "1")]).get(), 3);
        assert_eq!(r.series_count(), 2);
        // A cached cell and a fresh registry lookup share the atomic.
        let cell = vec.with("1");
        r.counter_with("shard_events_total", &[("shard", "1")]).inc();
        assert_eq!(cell.get(), 4);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn bucket_index_is_ceil_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn histogram_quantiles_bound_the_truth() {
        let h = Histogram::default();
        // 100 observations: 1ms, 2ms, ..., 100ms.
        for i in 1..=100u64 {
            h.observe_ns(i * 1_000_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max_ns(), 100_000_000);
        // p50 truth is 50ms; the bucketed answer is the bound of the
        // bucket holding it, within [truth, 2*truth].
        let p50 = h.quantile_ns(0.50);
        assert!((50_000_000..=100_000_000).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!((99_000_000..=198_000_000).contains(&p99), "p99 = {p99}");
        // p100 is the exact max.
        assert_eq!(h.quantile_ns(1.0), 100_000_000);
        // Empty histogram.
        assert_eq!(Histogram::default().quantile_ns(0.5), 0);
    }

    #[test]
    fn scoped_timer_records_on_drop_and_discard_does_not() {
        let h = Histogram::default();
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.count(), 1);
        h.start_timer().discard();
        assert_eq!(h.count(), 1);
        let elapsed = h.start_timer().observe();
        assert_eq!(h.count(), 2);
        assert!(elapsed.as_nanos() > 0);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter("sdci_a_total").add(3);
        r.gauge("sdci_b").set(-2);
        let h = r.histogram("sdci_lat_seconds");
        h.observe_ns(1_500); // bucket 11: (1024, 2048] ns
        h.observe_ns(1_500);
        h.observe_ns(3_000_000); // ~3ms

        let text = r.render_prometheus();
        assert!(text.contains("# TYPE sdci_a_total counter\nsdci_a_total 3\n"), "{text}");
        assert!(text.contains("# TYPE sdci_b gauge\nsdci_b -2\n"), "{text}");
        assert!(text.contains("# TYPE sdci_lat_seconds histogram\n"), "{text}");
        // Bucket bound 2048ns = 2.048e-6 s, cumulative 2.
        assert!(text.contains("sdci_lat_seconds_bucket{le=\"0.000002048\"} 2\n"), "{text}");
        assert!(text.contains("sdci_lat_seconds_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("sdci_lat_seconds_count 3\n"), "{text}");
        // Sum: 3_003_000 ns = 0.003003 s.
        assert!(text.contains("sdci_lat_seconds_sum 0.003003\n"), "{text}");
    }

    #[test]
    fn prometheus_labels_render_and_escape() {
        let r = Registry::new();
        r.counter_with("sdci_drops_total", &[("topic", "feed/\"x\"")]).inc();
        let text = r.render_prometheus();
        assert!(text.contains("sdci_drops_total{topic=\"feed/\\\"x\\\"\"} 1\n"), "{text}");
    }

    #[test]
    fn json_rendering_is_one_object() {
        let r = Registry::new();
        r.counter("a_total").add(2);
        let h = r.histogram("lat");
        h.observe_ns(1_000_000_000); // exactly 1s
        let json = r.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"a_total\":2"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(json.contains("\"max\":1"), "{json}");
    }
}
