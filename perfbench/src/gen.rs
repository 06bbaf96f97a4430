//! Input generation: the graph file and the request stream of a workload,
//! both a function of the seed alone.
//!
//! This runs in its own process before the measured one, so nothing the
//! generator allocates shows in the measured process's memory peak.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ugraph::generators::ProbabilityModel;
use ugraph::generators::{assign_probabilities, barabasi_albert_edges, gnm_edges};
use ugraph::UncertainGraph;

use crate::workload::{
    GraphSpec, Workload, BATCH_EDGES, GRID, MIX_BLOCK, PROB_RANGE, READ_K, STREAM_BATCHES,
};

/// Read operations written to the stream; the load generator cycles
/// through them when a run sends more.
const STREAM_READS: usize = 20_000;

fn graph(w: &Workload, seed: u64) -> UncertainGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let uniform = ProbabilityModel::Uniform {
        low: PROB_RANGE.0,
        high: PROB_RANGE.1,
    };
    match w.graph {
        GraphSpec::Gnm { vertices, edges } => {
            let structure = gnm_edges(vertices, edges, &mut rng);
            assign_probabilities(&structure, vertices, &uniform, &mut rng)
        }
        GraphSpec::BarabasiAlbert { vertices, attach } => {
            let structure = barabasi_albert_edges(vertices, attach, &mut rng);
            assign_probabilities(&structure, vertices, &uniform, &mut rng)
        }
    }
}

/// Writes `graph.txt` (SNAP edge list with a probability column) and
/// `ops.txt` (the request stream) into `dir`.
pub fn write_inputs(w: &Workload, seed: u64, dir: &Path) -> std::io::Result<()> {
    let g = graph(w, seed);
    let mut text = String::with_capacity(g.num_edges() * 24);
    for e in g.edges() {
        // `{}` prints the shortest string that parses back to the same
        // f64, so the ingested probabilities are bit-exact.
        writeln!(text, "{} {} {}", e.u, e.v, e.p).expect("write to String");
    }
    std::fs::write(dir.join("graph.txt"), text)?;

    let ops = request_stream(w, &g, seed);
    let mut file = std::io::BufWriter::new(std::fs::File::create(dir.join("ops.txt"))?);
    file.write_all(ops.as_bytes())?;
    file.flush()
}

/// The request stream: `R m|k|c <session> <theta index> [k|vertex]` read
/// lines, then `U` lines, each one update batch of `op u v [p]` items
/// separated by `;`.  Batches are valid in stream order: each one is
/// checked against the graph as the earlier batches left it.
fn request_stream(w: &Workload, g: &UncertainGraph, seed: u64) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0b5e_55ed);
    let edges: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
    let mut out = String::new();
    // Each kind's reads visit the (session, θ) points in turn, so every
    // block asks each point for the same work and blocks cost alike.
    let points = 2 * GRID.len();
    for _ in 0..STREAM_READS / MIX_BLOCK as usize {
        let mut kinds: Vec<(u8, usize)> = Vec::with_capacity(MIX_BLOCK as usize);
        for (kind, &n) in w.serve.mix.iter().enumerate() {
            kinds.extend((0..n as usize).map(|i| (kind as u8, i % points)));
        }
        kinds.shuffle(&mut rng);
        for (kind, point) in kinds {
            let session = point / GRID.len();
            let theta = point % GRID.len();
            match kind {
                0 => writeln!(out, "R m {session} {theta}"),
                1 => writeln!(out, "R k {session} {theta} {READ_K}"),
                _ => {
                    let (a, b) = *edges.choose(&mut rng).expect("graph has edges");
                    let vertex = if rng.gen_bool(0.5) { a } else { b };
                    writeln!(out, "R c {session} {theta} {vertex}")
                }
            }
            .expect("write to String");
        }
    }

    // Neighbour lists of the generated graph, used to insert edges that
    // close triangles (a random far-away edge would rarely touch any).
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); g.num_vertices()];
    for &(u, v) in &edges {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
    let key = |u: u32, v: u32| (u.min(v), u.max(v));
    let mut current: Vec<(u32, u32)> = edges.clone();
    let mut present: HashSet<(u32, u32)> = edges.iter().copied().collect();
    for _ in 0..STREAM_BATCHES {
        let mut touched: HashSet<(u32, u32)> = HashSet::new();
        let mut items: Vec<String> = Vec::with_capacity(BATCH_EDGES);
        while items.len() < BATCH_EDGES {
            match items.len() % 3 {
                0 => {
                    // Insert a wedge-closing edge a–c through b.
                    let (a, b) = *edges.choose(&mut rng).expect("graph has edges");
                    let Some(&c) = adj[b as usize].choose(&mut rng) else {
                        continue;
                    };
                    let e = key(a, c);
                    if a == c || present.contains(&e) || touched.contains(&e) {
                        continue;
                    }
                    let p = rng.gen_range(PROB_RANGE.0..PROB_RANGE.1);
                    touched.insert(e);
                    present.insert(e);
                    current.push(e);
                    items.push(format!("i {} {} {p}", e.0, e.1));
                }
                1 => {
                    let i = rng.gen_range(0..current.len());
                    let e = current[i];
                    if touched.contains(&e) {
                        continue;
                    }
                    let p = rng.gen_range(PROB_RANGE.0..PROB_RANGE.1);
                    touched.insert(e);
                    items.push(format!("w {} {} {p}", e.0, e.1));
                }
                _ => {
                    let i = rng.gen_range(0..current.len());
                    let e = current[i];
                    if touched.contains(&e) {
                        continue;
                    }
                    touched.insert(e);
                    present.remove(&e);
                    current.swap_remove(i);
                    items.push(format!("d {} {}", e.0, e.1));
                }
            }
        }
        writeln!(out, "U {}", items.join(";")).expect("write to String");
    }
    out
}
