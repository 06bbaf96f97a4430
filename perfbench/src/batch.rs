//! Set-up, the batch decompositions, Monte-Carlo, and the extra layer
//! calls of the traced run.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use nucleus::global::global_nuclei_with_local;
use nucleus::weakly_global::weakly_global_nuclei_with_local;
use nucleus::{
    global_nuclei, weakly_global_nuclei, ApproxMethod, ApproxThresholds, DecompConfig,
    DecompHandle, Decomposition, GlobalConfig, LocalConfig, LocalNucleusDecomposition, Rank,
    RankSupport, SamplingConfig, ScoreMethod,
};
use ugraph::cliques::FourCliqueEnumerator;
use ugraph::io::{open_snapshot, read_graph_file, write_snapshot_file};
use ugraph::rs::dp::support_pmf;
use ugraph::rs::RsSupport;
use ugraph::{EdgeProbabilityModel, InputFormat, Parallelism, TriangleIndex, UncertainGraph};

use crate::report::{interquartile_mean, median, Report};
use crate::trace::Tracer;
use crate::workload::{Workload, LAYER_REPS, MC_WORLDS, THETA, THREADS};

pub fn par() -> Parallelism {
    Parallelism::fixed(THREADS)
}

pub fn ap() -> ScoreMethod {
    ScoreMethod::Hybrid(ApproxThresholds::default())
}

/// Cold ingest of the generated file: text parse, then the snapshot
/// cache write.
pub fn ingest(dir: &Path, tracer: &Tracer) -> UncertainGraph {
    let g = tracer.span("io.parse", || {
        read_graph_file(
            dir.join("graph.txt"),
            InputFormat::Snap,
            &EdgeProbabilityModel::Column,
        )
        .expect("generated graph file parses")
    });
    tracer.span("io.snapshot_write", || {
        write_snapshot_file(&g, dir.join("graph.ugsnap")).expect("snapshot cache writes")
    });
    g
}

/// Whether an item measured in every round should run once more in
/// round `r` of `rounds`: until it has run once in every round so far and
/// used its share of `budget_s` seconds for those rounds.  Spreading
/// repetitions over the whole run averages the machine's speed over the
/// same span for every metric.
pub fn wants(times: &[f64], r: usize, rounds: usize, budget_s: f64) -> bool {
    let frac = (r + 1) as f64 / rounds as f64;
    times.len() <= r || (times.iter().sum::<f64>() < budget_s * frac && times.len() < 200)
}

/// The set-up, repeated in every round; `setup_s` is the median.
#[derive(Default)]
pub struct Setup {
    times: Vec<f64>,
    graph: Option<UncertainGraph>,
}

impl Setup {
    pub fn round(&mut self, dir: &Path, r: usize, rounds: usize, budget_s: f64, tracer: &Tracer) {
        while wants(&self.times, r, rounds, budget_s) {
            let (g, secs) = tracer.op("op.setup", || {
                let t0 = Instant::now();
                let g = ingest(dir, tracer);
                (g, t0.elapsed().as_secs_f64())
            });
            self.times.push(secs);
            self.graph.get_or_insert(g);
        }
    }

    pub fn graph(&self) -> &UncertainGraph {
        self.graph
            .as_ref()
            .expect("the first round ingested the graph")
    }

    pub fn finish(mut self, report: &mut Report) -> UncertainGraph {
        report.metric("setup_s", median(&mut self.times));
        report.attempt(self.times.len() as u64, 0);
        self.graph.expect("the first round ingested the graph")
    }
}

fn rank_name(rank: Rank, method: ScoreMethod) -> &'static str {
    match (rank, method) {
        (Rank::Core, _) => "core",
        (Rank::Truss, _) => "truss",
        (Rank::Nucleus, ScoreMethod::DynamicProgramming) => "nucleus",
        (Rank::Nucleus, ScoreMethod::Hybrid(_)) => "nucleus_ap",
    }
}

fn config(rank: Rank, method: ScoreMethod) -> DecompConfig {
    let base = match rank {
        Rank::Core => DecompConfig::core(THETA),
        Rank::Truss => DecompConfig::truss(THETA),
        Rank::Nucleus => DecompConfig::nucleus(THETA),
    };
    base.with_method(method).with_parallelism(par())
}

/// One end-to-end decomposition from the in-memory graph: support build,
/// then the decomposition over it.
fn decompose(
    g: &UncertainGraph,
    rank: Rank,
    method: ScoreMethod,
    tracer: &Tracer,
) -> (f64, Decomposition, Arc<RankSupport>) {
    let (op, build, peel) = match (rank, method) {
        (Rank::Core, _) => ("op.core", "support.core_build", "peel.core"),
        (Rank::Truss, _) => ("op.truss", "support.truss_build", "peel.truss"),
        (Rank::Nucleus, ScoreMethod::DynamicProgramming) => {
            ("op.nucleus", "support.nucleus_build", "peel.nucleus")
        }
        (Rank::Nucleus, ScoreMethod::Hybrid(_)) => {
            ("op.nucleus_ap", "support.nucleus_build", "approx.compute")
        }
    };
    tracer.op(op, || {
        let t0 = Instant::now();
        let support = Arc::new(tracer.span(build, || RankSupport::build(g, rank, par())));
        let handle = DecompHandle::from_support(Arc::clone(&support));
        let d = tracer.span(peel, || {
            handle
                .compute_at(&config(rank, method))
                .expect("workload configuration is valid")
        });
        (t0.elapsed().as_secs_f64(), d, support)
    })
}

fn digest(scores: &[u32]) -> u64 {
    let bytes: Vec<u8> = scores.iter().flat_map(|s| s.to_le_bytes()).collect();
    ugraph::io::xxh64(&bytes, 0)
}

/// What the batch phase leaves for later phases.
pub struct BatchOut {
    pub supports: Vec<Arc<RankSupport>>,
    pub decomps: Vec<Decomposition>,
}

const PLAN: [(Rank, bool); 4] = [
    (Rank::Core, false),
    (Rank::Truss, false),
    (Rank::Nucleus, false),
    (Rank::Nucleus, true),
];

fn plan_method(approx: bool) -> ScoreMethod {
    if approx {
        ap()
    } else {
        ScoreMethod::DynamicProgramming
    }
}

/// The four timed decompositions, each repeated in every round until its
/// quarter of the budget is spent (at least once per round); each metric
/// is the interquartile mean.
#[derive(Default)]
pub struct Decomps {
    times: [Vec<f64>; 4],
    first: [Option<(Decomposition, Arc<RankSupport>)>; 4],
    differs: [bool; 4],
}

impl Decomps {
    pub fn round(
        &mut self,
        g: &UncertainGraph,
        r: usize,
        rounds: usize,
        budget_s: f64,
        tracer: &Tracer,
    ) {
        let share = budget_s / PLAN.len() as f64;
        loop {
            let mut ran = false;
            for (i, &(rank, approx)) in PLAN.iter().enumerate() {
                if !wants(&self.times[i], r, rounds, share) {
                    continue;
                }
                ran = true;
                let (secs, d, support) = decompose(g, rank, plan_method(approx), tracer);
                self.times[i].push(secs);
                match &self.first[i] {
                    None => self.first[i] = Some((d, support)),
                    Some((d0, _)) => {
                        self.differs[i] |=
                            d0.scores() != d.scores() || d0.peel_stats() != d.peel_stats()
                    }
                }
            }
            if !ran {
                break;
            }
        }
    }

    pub fn finish(mut self, report: &mut Report) -> BatchOut {
        for (i, &(rank, approx)) in PLAN.iter().enumerate() {
            let name = rank_name(rank, plan_method(approx));
            report.metric(&format!("{name}_s"), interquartile_mean(&mut self.times[i]));
            report.attempt(self.times[i].len() as u64, 0);
            report.check(
                &format!("{name}: every repetition identical"),
                !self.differs[i],
            );
        }
        let (decomps, supports): (Vec<_>, Vec<_>) = self
            .first
            .into_iter()
            .map(|x| x.expect("every decomposition ran"))
            .unzip();
        for (i, &(rank, approx)) in PLAN.iter().enumerate() {
            report.digest(
                rank_name(rank, plan_method(approx)),
                digest(decomps[i].scores()),
            );
        }
        let exact = decomps[2].scores();
        let approx = decomps[3].scores();
        let equal = exact.iter().zip(approx).filter(|(a, b)| a == b).count();
        report.metric("ap_exact_frac", equal as f64 / exact.len().max(1) as f64);
        BatchOut { supports, decomps }
    }
}

/// 1-thread and 2-thread support builds must be bit-identical: same
/// elements, same cells, same completion probabilities.
pub fn thread_equivalence(g: &UncertainGraph, out: &BatchOut, report: &mut Report) {
    for (i, &(rank, _)) in PLAN.iter().enumerate().take(3) {
        let one = RankSupport::build(g, rank, Parallelism::Sequential);
        let same = match (&one, out.supports[i].as_ref()) {
            (RankSupport::Core(a), RankSupport::Core(b)) => same_cells(a, b),
            (RankSupport::Truss(a), RankSupport::Truss(b)) => same_cells(a, b),
            (RankSupport::Nucleus(a), RankSupport::Nucleus(b)) => {
                a.triangle_index().triangles() == b.triangle_index().triangles() && same_cells(a, b)
            }
            _ => false,
        };
        report.check(
            &format!("{}: 1-thread and 2-thread support identical", rank.as_str()),
            same,
        );
    }
}

fn same_cells<S: RsSupport>(a: &S, b: &S) -> bool {
    if a.num_elements() != b.num_elements() || a.num_cells() != b.num_cells() {
        return false;
    }
    let (mut pa, mut pb) = (Vec::new(), Vec::new());
    (0..a.num_elements() as u32).all(|t| {
        a.cells_of(t) == b.cells_of(t) && {
            a.completion_probs_into(t, |_| true, &mut pa);
            b.completion_probs_into(t, |_| true, &mut pb);
            pa.iter()
                .map(|p| p.to_bits())
                .eq(pb.iter().map(|p| p.to_bits()))
                && a.element_prob(t).to_bits() == b.element_prob(t).to_bits()
        }
    })
}

fn mc_config(seed: u64) -> GlobalConfig {
    GlobalConfig::new(THETA)
        .with_sampling(
            SamplingConfig::new(0.1, 0.1)
                .with_num_samples(MC_WORLDS)
                .with_seed(seed),
        )
        .with_parallelism(par())
}

/// Algorithms 2 and 3, local pruning included, alternately in every
/// round, each until its half of the round's share of the budget is
/// spent (at least once per round, so the nucleus counts can be checked
/// for stability).  The cheaper one therefore runs more often.  Each
/// runs as the library's one-shot entry point does: the local
/// decomposition, then the Monte-Carlo pass over it.
#[derive(Default)]
pub struct MonteCarlo {
    global_s: Vec<f64>,
    weakly_s: Vec<f64>,
    global_n: Vec<usize>,
    weakly_n: Vec<usize>,
}

impl MonteCarlo {
    #[allow(clippy::too_many_arguments)]
    pub fn round(
        &mut self,
        w: &Workload,
        g: &UncertainGraph,
        seed: u64,
        r: usize,
        rounds: usize,
        budget_s: f64,
        tracer: &Tracer,
    ) {
        let cfg = mc_config(seed);
        let local_cfg = LocalConfig::exact(THETA).with_parallelism(par());
        let local = || {
            tracer.span("global.local", || {
                LocalNucleusDecomposition::compute(g, &local_cfg).expect("valid local config")
            })
        };
        let half = budget_s / 2.0;
        loop {
            let mut ran = false;
            if wants(&self.global_s, r, rounds, half) {
                ran = true;
                let (secs, n) = tracer.op("op.global", || {
                    let t0 = Instant::now();
                    let l = local();
                    let nuclei = tracer
                        .span("global.mc", || {
                            global_nuclei_with_local(g, w.mc_k, &cfg, &l)
                        })
                        .expect("valid sampling config");
                    (t0.elapsed().as_secs_f64(), nuclei.len())
                });
                self.global_s.push(secs);
                self.global_n.push(n);
            }
            if wants(&self.weakly_s, r, rounds, half) {
                ran = true;
                let (secs, n) = tracer.op("op.weakly", || {
                    let t0 = Instant::now();
                    let l = local();
                    let nuclei = tracer
                        .span("weakly.mc", || {
                            weakly_global_nuclei_with_local(g, w.mc_k, &cfg, &l)
                        })
                        .expect("valid sampling config");
                    (t0.elapsed().as_secs_f64(), nuclei.len())
                });
                self.weakly_s.push(secs);
                self.weakly_n.push(n);
            }
            if !ran {
                break;
            }
        }
    }

    pub fn finish(mut self, report: &mut Report) {
        let (gn, wn) = (&self.global_n, &self.weakly_n);
        report.attempt((gn.len() + wn.len()) as u64, 0);
        report.metric("global_s", interquartile_mean(&mut self.global_s));
        report.metric("weakly_s", interquartile_mean(&mut self.weakly_s));
        report.check(
            "global: nucleus count stable",
            gn.iter().all(|&n| n == gn[0]),
        );
        report.check(
            "weakly: nucleus count stable",
            wn.iter().all(|&n| n == wn[0]),
        );
        report.count("global_nuclei", gn[0] as u64);
        report.count("weakly_nuclei", wn[0] as u64);
        report.info("global.nuclei", gn[0] as f64);
        report.info("weakly.nuclei", wn[0] as f64);
    }
}

/// The layer calls only the traced run makes: ingest pieces, listing,
/// the DP kernel, update apply/repair and the per-element counters.
pub fn layers(
    dir: &Path,
    g: &UncertainGraph,
    out: &BatchOut,
    batches: &[Vec<ugraph::EdgeUpdate>],
    tracer: &Tracer,
    report: &mut Report,
) {
    let snap = dir.join("graph.ugsnap");
    tracer.op("op.mmap_open", || {
        tracer.span("io.mmap_open", || {
            open_snapshot(&snap).expect("snapshot opens")
        })
    });
    let bytes = std::fs::metadata(&snap).map(|m| m.len()).unwrap_or(0);
    report.info("io.snapshot_bytes", bytes as f64);

    let mut two = Vec::new();
    let mut one = Vec::new();
    let mut count = 0;
    for _ in 0..LAYER_REPS {
        let t0 = Instant::now();
        let idx = tracer.op("op.triangles", || {
            tracer.span("triangles.list", || TriangleIndex::build_with(g, par()))
        });
        two.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        tracer.op("op.triangles_1t", || {
            tracer.span("triangles.list_1t", || {
                TriangleIndex::build_with(g, Parallelism::Sequential)
            })
        });
        one.push(t0.elapsed().as_secs_f64());
        count = idx.len();
        let cliques = tracer.op("op.cliques", || {
            tracer.span("cliques.list", || {
                FourCliqueEnumerator::with_parallelism(g, par())
            })
        });
        report.info("cliques.count", cliques.len() as f64);
    }
    report.info("triangles.count", count as f64);
    report.info(
        "triangles.speedup_2t",
        median(&mut one) / median(&mut two).max(1e-12),
    );

    // Support and peel counters, over the three exact decompositions.
    let (mut elements, mut cells) = (0usize, 0usize);
    for s in &out.supports[..3] {
        let (e, c) = match s.as_ref() {
            RankSupport::Core(s) => (s.num_elements(), s.num_cells()),
            RankSupport::Truss(s) => (s.num_elements(), s.num_cells()),
            RankSupport::Nucleus(s) => (s.num_elements(), s.num_cells()),
        };
        elements += e;
        cells += c;
    }
    report.info("support.elements", elements as f64);
    report.info("support.cells", cells as f64);
    let (mut dp_calls, mut skips, mut buckets, mut scratch) = (0, 0, 0, 0);
    for d in &out.decomps[..3] {
        let s = d.peel_stats();
        dp_calls += s.dp_calls;
        skips += s.recompute_skips;
        buckets += s.buckets_touched;
        scratch = scratch.max(s.peak_scratch_bytes);
    }
    report.info("peel.dp_calls", dp_calls as f64);
    report.info("peel.recompute_skips", skips as f64);
    report.info(
        "peel.skip_ratio",
        skips as f64 / (skips + dp_calls).max(1) as f64,
    );
    report.info("peel.buckets_touched", buckets as f64);
    report.info("peel.peak_scratch_bytes", scratch as f64);
    let ap = &out.decomps[3];
    let total: usize = ap.method_counts().values().sum();
    let non_dp: usize = ap
        .method_counts()
        .iter()
        .filter(|(m, _)| **m != ApproxMethod::DynamicProgramming)
        .map(|(_, n)| n)
        .sum();
    report.info("approx.non_dp_frac", non_dp as f64 / total.max(1) as f64);

    // The DP kernel over every element's full completion-probability
    // vector, at all three ranks.
    let (mut ops, mut max_support) = (0u64, 0usize);
    let mut kernel = Vec::new();
    for _ in 0..LAYER_REPS {
        let t0 = Instant::now();
        tracer.op("op.dp", || {
            tracer.span("dp.kernel", || {
                ops = 0;
                for s in &out.supports[..3] {
                    let (o, m) = match s.as_ref() {
                        RankSupport::Core(s) => pmf_all(s),
                        RankSupport::Truss(s) => pmf_all(s),
                        RankSupport::Nucleus(s) => pmf_all(s),
                    };
                    ops += o;
                    max_support = max_support.max(m);
                }
            })
        });
        kernel.push(t0.elapsed().as_secs_f64());
    }
    report.info("dp.initial_ops", ops as f64);
    report.info("dp.max_support", max_support as f64);
    report.info("dp.ops_per_s", ops as f64 / median(&mut kernel).max(1e-12));

    // Update apply and support repair over the stream's first batches.
    let nucleus_support = &out.supports[2];
    let mut graph = g.clone();
    let mut support = RankSupport::clone(nucleus_support);
    let (mut affected, mut region_frac) = (Vec::new(), Vec::new());
    for batch in batches.iter().take(5) {
        let (delta, repair) = tracer.op("op.update", || {
            let delta = tracer.span("update.apply", || {
                ugraph::apply_edge_updates(&graph, batch).expect("stream batch applies")
            });
            let repair = tracer.span("update.repair", || support.repair(&graph, &delta, par()));
            (delta, repair)
        });
        affected.push(repair.affected.len() as f64);
        region_frac.push(repair.region.len() as f64 / repair.support.num_elements().max(1) as f64);
        graph = delta.graph;
        support = repair.support;
    }
    report.info("update.affected", median(&mut affected));
    report.info("update.region_frac", median(&mut region_frac));
}

fn pmf_all<S: RsSupport>(s: &S) -> (u64, usize) {
    let mut probs = Vec::new();
    let (mut ops, mut max_support) = (0u64, 0usize);
    for t in 0..s.num_elements() as u32 {
        s.completion_probs_into(t, |_| true, &mut probs);
        let c = probs.len() as u64;
        ops += c * (c + 1) / 2;
        max_support = max_support.max(probs.len());
        std::hint::black_box(support_pmf(std::hint::black_box(&probs)));
    }
    (ops, max_support)
}

/// One decomposition of each kind and one pass of Algorithms 2 and 3:
/// the digests and nucleus counts `digests.json` commits for a seed.
pub fn digests(w: &Workload, g: &UncertainGraph, seed: u64, report: &mut Report) {
    let tracer = Tracer::new(false);
    for &(rank, approx) in &PLAN {
        let method = plan_method(approx);
        let (_, d, _) = decompose(g, rank, method, &tracer);
        report.digest(rank_name(rank, method), digest(d.scores()));
    }
    let cfg = mc_config(seed);
    let global = global_nuclei(g, w.mc_k, &cfg).expect("valid sampling config");
    let weakly = weakly_global_nuclei(g, w.mc_k, &cfg).expect("valid sampling config");
    report.count("global_nuclei", global.len() as u64);
    report.count("weakly_nuclei", weakly.len() as u64);
}
