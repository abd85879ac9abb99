//! The three campaign mixes the benchmark drives through the server, and
//! how many requests one run makes of each.

use experiments::campaign::{
    CampaignSpec, ForkJoinShape, LayeredRange, MeasurePlan, PlatformSpec, Seeding,
    StructuredKernel, StructuredWorkload, TaskCount, WorkloadSpec,
};
use ftsched_core::Algorithm;
use platform::{FailureModel, UniformFailures};
use simulator::replication_seed;

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's figure protocol in one spec (in memory).
    PaperGrid,
    /// One ~50 000-task layered DAG on 16 and 128 processors (in memory).
    LargeDag,
    /// Tiny DAGs, many groups, every group appended to the durable WAL.
    DurableSmall,
}

/// How many operations one run makes. Runs are fixed request counts,
/// never fixed durations: the server keeps every completed body, so a
/// time-boxed run would let a faster build serve more requests and show
/// a larger peak RSS.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Fresh POSTs per second of `--seconds`, measured on the reference
    /// box (see README.md); the count is `round(seconds × rate)`.
    pub fresh_per_second: f64,
    /// Fewest fresh POSTs a run makes, whatever `--seconds` says.
    pub min_fresh: usize,
    /// `GET /campaigns/<key>` replays after each fresh POST; they are
    /// timed as one batch so no sample is a single sub-millisecond call.
    pub replays: usize,
    /// Set-ups per run (each binds a fresh server and warms it up);
    /// `setup_s` is their median.
    pub setups: usize,
    /// Fresh specs the traced pass re-executes layer by layer.
    pub traced: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::LargeDag,
        Workload::DurableSmall,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::LargeDag => "large-dag",
            Workload::DurableSmall => "durable-small",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the server runs with a data directory (WAL + records).
    pub fn durable(self) -> bool {
        self == Workload::DurableSmall
    }

    /// The run size of this workload.
    pub fn sizing(self) -> Sizing {
        match self {
            Workload::PaperGrid => Sizing {
                fresh_per_second: 3.0,
                min_fresh: 12,
                replays: 16,
                setups: 5,
                traced: 8,
            },
            Workload::LargeDag => Sizing {
                fresh_per_second: 0.8,
                min_fresh: 3,
                replays: 32,
                setups: 3,
                traced: 1,
            },
            Workload::DurableSmall => Sizing {
                fresh_per_second: 20.0,
                min_fresh: 20,
                replays: 8,
                setups: 15,
                traced: 16,
            },
        }
    }

    /// Fresh POSTs of a run with the given `--seconds`.
    pub fn fresh_count(self, seconds: u64) -> usize {
        let s = self.sizing();
        ((seconds as f64 * s.fresh_per_second).round() as usize).max(s.min_fresh)
    }

    /// The `index`-th spec of a run at workload seed `seed`. Each spec
    /// carries its own campaign seed, so no two specs of a run share an
    /// idempotency key and every POST computes.
    pub fn spec(self, seed: u64, index: u64) -> CampaignSpec {
        let spec_seed = replication_seed(seed, index);
        let id = format!("{}-{index}", self.name());
        match self {
            Workload::PaperGrid => CampaignSpec {
                id,
                workloads: vec![WorkloadSpec::PaperLayered(LayeredRange {
                    tasks_lo: 100,
                    tasks_hi: 150,
                })],
                platforms: experiments::paper_granularities()
                    .into_iter()
                    .map(|g| PlatformSpec::paper(20, g))
                    .collect(),
                // Heaviest ε first: group 0 (granularity 0.2, ε = 5) is
                // ~25 ms of work, so `first_group_ms` is not dominated by
                // the few milliseconds of request start-up jitter.
                epsilons: vec![5, 2, 1],
                algorithms: paper_algorithms(),
                extra_algorithms: vec![],
                repetitions: 3,
                seed: spec_seed,
                seeding: Seeding::Indexed,
                arrivals: None,
                measures: figure_measures(),
            },
            Workload::LargeDag => CampaignSpec {
                id,
                workloads: vec![WorkloadSpec::Layered(TaskCount { tasks: 50_000 })],
                platforms: vec![PlatformSpec::paper(16, 1.0), PlatformSpec::paper(128, 1.0)],
                epsilons: vec![1],
                algorithms: paper_algorithms(),
                extra_algorithms: vec![],
                repetitions: 1,
                seed: spec_seed,
                seeding: Seeding::Indexed,
                arrivals: None,
                measures: MeasurePlan::default(),
            },
            Workload::DurableSmall => CampaignSpec {
                id,
                workloads: vec![
                    WorkloadSpec::PaperLayered(LayeredRange {
                        tasks_lo: 20,
                        tasks_hi: 30,
                    }),
                    WorkloadSpec::Structured(StructuredWorkload {
                        kernel: StructuredKernel::Wavefront,
                        size: 4,
                    }),
                    WorkloadSpec::ForkJoin(ForkJoinShape { width: 3, depth: 3 }),
                ],
                platforms: (1..=8)
                    .map(|k| PlatformSpec::paper(8, 0.25 * k as f64))
                    .collect(),
                epsilons: vec![1, 2],
                algorithms: paper_algorithms(),
                extra_algorithms: vec![],
                repetitions: 1,
                seed: spec_seed,
                seeding: Seeding::Indexed,
                arrivals: None,
                measures: figure_measures(),
            },
        }
    }
}

/// FTSA, MC-FTSA (greedy selector, as in the paper) and FTBAR.
fn paper_algorithms() -> Vec<Algorithm> {
    vec![Algorithm::Ftsa, Algorithm::McFtsaGreedy, Algorithm::Ftbar]
}

/// The figure protocol's measures: bounds, fault-free baselines, crash
/// replays under ε and 0 crashes, overheads and message counts. No
/// wall-clock series, so every body is a pure function of its spec.
fn figure_measures() -> MeasurePlan {
    MeasurePlan {
        bounds: true,
        normalize: true,
        fault_free: vec![Algorithm::Ftsa, Algorithm::Ftbar],
        overhead: true,
        failures: vec![
            FailureModel::Epsilon,
            FailureModel::Uniform(UniformFailures { crashes: 0 }),
        ],
        messages: vec![Algorithm::Ftsa, Algorithm::McFtsaGreedy],
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_validate_and_have_the_documented_shape() {
        let cells = [90, 2, 48];
        for (w, cells) in Workload::ALL.into_iter().zip(cells) {
            let spec = w.spec(1, 0);
            spec.validate().unwrap();
            assert_eq!(spec.num_cells(), cells, "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn spec_seeds_are_distinct_within_a_run() {
        let a = Workload::PaperGrid.spec(7, 0);
        let b = Workload::PaperGrid.spec(7, 1);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a, Workload::PaperGrid.spec(7, 0));
    }
}
