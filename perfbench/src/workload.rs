//! The two workloads: which graph each generates from the seed, and the
//! parameters of every phase run on it.
//!
//! The reasons each workload exists are recorded in `perfbench/README.md`.

/// How a workload's graph is generated.
#[derive(Debug, Clone, Copy)]
pub enum GraphSpec {
    /// G(n, m) with uniform edge probabilities in `[0.05, 0.95]`.
    Gnm { vertices: usize, edges: usize },
    /// Barabási–Albert with `attach` edges per new vertex, uniform edge
    /// probabilities in `[0.05, 0.95]`.
    BarabasiAlbert { vertices: usize, attach: usize },
}

/// Parameters of the serving phase.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Reads of each kind in every block of `MIX_BLOCK` reads:
    /// `max_score_at`, `k_nuclei_at`, `community`.
    pub mix: [u32; 3],
    /// Interval between two `apply_updates` batches in the fixed-rate
    /// phase.
    pub update_interval_ms: u64,
    /// Blocks of the read mix each saturation slice sends: a fixed amount
    /// of work, so neither the records kept nor the memory peak depend on
    /// how fast the host ran.
    pub saturate_blocks: usize,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub graph: GraphSpec,
    /// `k` of the global and weakly-global decompositions.
    pub mc_k: u32,
    pub serve: ServeSpec,
}

/// Threshold (η, γ and θ) of every decomposition.
pub const THETA: f64 = 0.1;

/// Sampled worlds of the global and weakly-global decompositions (the
/// paper's n for ε = δ = 0.1).
pub const MC_WORLDS: usize = 200;

/// θ grid every session is opened over (exact and approximate).
pub const GRID: [f64; 2] = [0.1, 0.3];

/// Offered read rate of the fixed-rate phase, requests per second.
pub const RATE_RPS: f64 = 200.0;

/// `k` of every `k_nuclei_at` read.
pub const READ_K: u32 = 1;

/// Interval between two reads sent on a fresh connection.
pub const FRESH_INTERVAL_MS: u64 = 10;

/// The run is invalid when the generator itself ran later than this at
/// its 99th percentile.
pub const LATE_LIMIT_MS: f64 = 25.0;

/// Edge probabilities of the generated (non-paper) graphs.
pub const PROB_RANGE: (f64, f64) = (0.05, 0.95);

/// Number of worker threads of every library call and of the server pool.
pub const THREADS: usize = 2;

/// Repetitions of each layer call only the traced run makes.
pub const LAYER_REPS: usize = 3;

/// Update batches written to the request stream.  A run sends one per
/// update interval in its fixed-rate slices and back to back in its
/// bursts; at 60 seconds that is about 100 on dense-gnm, whose batches
/// are the cheapest.  A run that would send more fails a check.
pub const STREAM_BATCHES: usize = 500;

/// Edges touched by one update batch.
pub const BATCH_EDGES: usize = 16;

/// Rounds of a run; each runs a share of every phase.
pub const ROUNDS: usize = 4;

/// Shares of the run's seconds given to the set-up repetitions, the
/// batch decompositions, Monte-Carlo, the fixed-rate serving slices, the
/// fresh-connection slices and the update bursts.  The saturation slices send a fixed amount of work
/// instead (`ServeSpec::saturate_blocks`).
pub const SETUP_SHARE: f64 = 0.04;
pub const BATCH_SHARE: f64 = 0.2;
pub const MC_SHARE: f64 = 0.22;
pub const SERVE_SHARE: f64 = 0.25;
pub const FRESH_SHARE: f64 = 0.08;
pub const BURST_SHARE: f64 = 0.1;

/// Reads per block of the request stream; every block holds the mix
/// exactly, so the work of a stream prefix barely depends on the seed.
pub const MIX_BLOCK: u32 = 400;

pub fn all() -> Vec<Workload> {
    // Every update batch is a stall the reads behind it wait out: ~0.1 s
    // on dense-gnm, ~0.3 s on powerlaw-1m, so the 99th percentile of the
    // reads is the program's own stall rather than the host's scheduling
    // delays.  On dense-gnm the interval gives ~30 stalls per 35-second
    // run, so that percentile and `update_p90_ms` rest on many stalls
    // rather than on the longest few (at 0.6 s, with ~17, both spread
    // twice as widely beside a noisy neighbour).  A
    // saturation block takes ~50 ms on dense-gnm and ~7 ms on powerlaw-1m
    // on a 2-vCPU host, so each workload's blocks, three slices per
    // round, fill ~16% of a 35-second run.
    let mix = [380, 16, 4];
    let serve = |update_interval_ms, saturate_blocks| ServeSpec {
        mix,
        update_interval_ms,
        saturate_blocks,
    };
    vec![
        Workload {
            name: "dense-gnm",
            graph: GraphSpec::Gnm {
                vertices: 1_000,
                edges: 50_000,
            },
            // At k = 2 at most one candidate survives the local pruning;
            // at k = 1 Algorithms 2 and 3 find ~800 and ~600 nuclei.
            mc_k: 1,
            serve: serve(300, 11),
        },
        Workload {
            name: "powerlaw-1m",
            graph: GraphSpec::BarabasiAlbert {
                vertices: 200_000,
                attach: 5,
            },
            // Here Monte-Carlo measures the local pruning of a 1M-edge
            // graph, after which at most one candidate survives.
            mc_k: 2,
            serve: serve(1_000, 67),
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
