//! The benchmark's measuring program.  `perfbench/run.py` drives it:
//!
//! ```text
//! perfbench gen <workload> <seed> <dir>
//! perfbench run <workload> <seed> <seconds> <trace 0|1> <dir>
//! perfbench digest <workload> <seed> <dir>
//! ```
//!
//! `gen` writes the workload's graph file and request stream into `dir`.
//! `run` ingests them in a fresh process, measures every phase and prints
//! one JSON line with the metrics, the output checks and the digests.
//! `digest` prints only the digests and nucleus counts of the generated
//! inputs, untimed (`perfbench/make_digests.py` commits them).

mod batch;
mod gen;
mod report;
mod serve;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

use report::{median, Report};
use trace::Tracer;

/// Spans whose self time is a per-layer metric, named `<span>_s`.
const LAYER_SPANS: [&str; 19] = [
    "io.parse",
    "io.snapshot_write",
    "io.mmap_open",
    "triangles.list",
    "triangles.list_1t",
    "cliques.list",
    "support.core_build",
    "support.truss_build",
    "support.nucleus_build",
    "peel.core",
    "peel.truss",
    "peel.nucleus",
    "dp.kernel",
    "approx.compute",
    "global.local",
    "global.mc",
    "weakly.mc",
    "update.apply",
    "update.repair",
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench gen <workload> <seed> <dir>\n       \
         perfbench run <workload> <seed> <seconds> <trace 0|1> <dir>\n       \
         perfbench digest <workload> <seed> <dir>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = |name: &str| {
        workload::by_name(name).unwrap_or_else(|| {
            eprintln!("unknown workload '{name}'");
            std::process::exit(2);
        })
    };
    let seed = |s: &str| s.parse::<u64>().unwrap_or_else(|_| usage());
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["gen", name, s, dir] => {
            let w = workload(name);
            gen::write_inputs(&w, seed(s), &PathBuf::from(dir)).expect("inputs written");
        }
        ["run", name, s, secs, trace, dir] => {
            let w = workload(name);
            let secs: f64 = secs.parse().unwrap_or_else(|_| usage());
            run(&w, seed(s), secs, trace == "1", &PathBuf::from(dir));
        }
        ["digest", name, s, dir] => {
            let w = workload(name);
            let g = batch::ingest(&PathBuf::from(dir), &Tracer::new(false));
            let mut report = Report::default();
            batch::digests(&w, &g, seed(s), &mut report);
            println!("{}", report.to_json());
        }
        _ => usage(),
    }
}

fn run(w: &workload::Workload, seed: u64, secs: f64, traced: bool, dir: &std::path::Path) {
    use workload::{
        BATCH_SHARE, BURST_SHARE, FRESH_SHARE, MC_SHARE, ROUNDS, SERVE_SHARE, SETUP_SHARE,
    };
    let tracer = Tracer::new(traced);
    let mut report = Report::default();
    let start = Instant::now();

    // Every round runs a share of every phase, so each metric samples the
    // machine over the whole run rather than over one stretch of it.
    let stream = serve::load_stream(dir);
    let mut setup = batch::Setup::default();
    let mut decomps = batch::Decomps::default();
    let mut mc = batch::MonteCarlo::default();
    let mut serving = None;
    for r in 0..ROUNDS {
        setup.round(dir, r, ROUNDS, secs * SETUP_SHARE, &tracer);
        let g = setup.graph();
        decomps.round(g, r, ROUNDS, secs * BATCH_SHARE, &tracer);
        mc.round(w, g, seed, r, ROUNDS, secs * MC_SHARE, &tracer);
        serving
            .get_or_insert_with(|| serve::Serving::start(w, g))
            .round(
                &stream,
                seed,
                secs * SERVE_SHARE / ROUNDS as f64,
                secs * FRESH_SHARE / ROUNDS as f64,
                secs * BURST_SHARE / ROUNDS as f64,
            );
    }
    // The peak resident set of the measured phases, before the untimed
    // output checks allocate their own copies.
    report.metric(
        "peak_rss_mb",
        ugraph::metrics::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
    );
    let served = serving.expect("at least one round").finish(&mut report);
    let g = setup.finish(&mut report);
    let out = decomps.finish(&mut report);
    mc.finish(&mut report);
    report.info("run.measure_s", start.elapsed().as_secs_f64());

    // Output checks, untimed.
    batch::thread_equivalence(&g, &out, &mut report);
    serve::verify(&g, &out.supports[2], &stream, &served, &mut report);

    if traced {
        batch::layers(dir, &g, &out, &stream.batches, &tracer, &mut report);
        serve::replay(&g, &served, &tracer, &mut report);
        let self_times = tracer.self_times();
        for name in LAYER_SPANS {
            let mut v = self_times.get(name).cloned().unwrap_or_default();
            report.info(&format!("{name}_s"), median(&mut v));
        }
        // Derived: the part of the nucleus support build that is neither
        // triangle nor 4-clique listing.
        let assembly = report.info_value("support.nucleus_build_s")
            - report.info_value("triangles.list_s")
            - report.info_value("cliques.list_s");
        report.info("support.assembly_s", assembly);
        std::fs::write(dir.join("trace.jsonl"), tracer.to_jsonl()).expect("trace written");
    }
    report.info("run.total_s", start.elapsed().as_secs_f64());
    println!("{}", report.to_json());
}
