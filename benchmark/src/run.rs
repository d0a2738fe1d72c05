//! One untraced run of one workload: set-up (several times, so its time
//! is a median), then the workload's fixed number of passes over its
//! operations through the shipped binaries, every answer checked. The
//! measuring time only ends a run that a slower commit did not finish.

use std::path::{Path, PathBuf};
use std::time::Instant;

use parsweep_aig::random::SplitMix64;

use crate::eng;
use crate::inputs::{self, Frozen, Item, Mutation};
use crate::json::Json;
use crate::net::{self, Batch, Client, Server};
use crate::spec;
use crate::stats::{median, percentile};

/// Set-up is repeated this often in a run and its median reported.
const SETUP_REPS: usize = 5;

/// Connections and per-connection window of the service workloads.
pub const CONNECTIONS: usize = 2;
pub const WINDOW: usize = 2;

/// Jobs per pass.
const COLD_BATCH: usize = 100;
const WARM_BATCH: usize = 1000;
/// Jobs of its own `net_cold` settles before the clock starts.
const COLD_WARMUP: usize = 8;
/// Pairs in the suite `net_warm` settles before the clock starts.
const WARM_SUITE: usize = 100;
/// Jobs a service workload derives first whose files' bytes are digested:
/// the first pass of `net_cold`, the suite of `net_warm`. Every run length
/// derives them, and at `inputs::FROZEN_SEED` identically.
const DIGESTED: usize = 100;

/// Where a run finds the programs under test and its files.
pub struct Env {
    pub parsweep: PathBuf,
    pub net: PathBuf,
    /// The committed `inputs/` directory.
    pub inputs: PathBuf,
    /// Scratch directory for derived files (inside the checkout).
    pub out: PathBuf,
}

/// A workload's inputs: every item, and which of them each pass runs.
/// Every pass of an engine workload runs the same pairs; every pass of a
/// service workload has jobs of its own.
pub struct Plan {
    pub items: Vec<Item>,
    passes: Vec<Vec<usize>>,
    /// Jobs settled on the server before the clock starts: a few jobs of
    /// their own for `net_cold`, the whole suite for `net_warm`.
    pub warmup: Vec<usize>,
}

impl Plan {
    pub fn pass(&self, n: usize) -> Option<Vec<&Item>> {
        self.passes.get(n).map(|p| self.refs(p))
    }

    pub fn refs(&self, idx: &[usize]) -> Vec<&Item> {
        idx.iter().map(|&i| &self.items[i]).collect()
    }
}

pub fn is_service(workload: &str) -> bool {
    inputs::engine_pairs(workload).is_none()
}

/// How much of a workload a run prepares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Length {
    /// The workload's fixed number of passes: what the timed runs use.
    Full,
    /// One pass: the traced run, which goes through its sample once.
    OnePass,
    /// One pass, and of an engine workload only its last (cheapest) pair:
    /// the smoke run, about a twentieth of a full one.
    Smoke,
}

/// Loads and digest-checks the frozen pairs of `workload` (a name of
/// `spec::WORKLOADS`) and lays out its passes from `seed`. A service
/// workload's jobs are derived into files under `dir`; at
/// `inputs::FROZEN_SEED` those are digest-checked too.
pub fn prepare(
    workload: &str,
    seed: u64,
    inputs_dir: &Path,
    dir: &Path,
    length: Length,
) -> Result<Plan, String> {
    let (plan, digest) = prepare_unchecked(workload, seed, inputs_dir, dir, length)?;
    if let (Some(digest), true) = (digest, seed == inputs::FROZEN_SEED) {
        inputs::check_derived(inputs_dir, workload, digest)?;
    }
    Ok(plan)
}

/// `benchmark gen`: the digest `prepare` holds each service workload's
/// first derived files against.
pub fn derived_digests(inputs_dir: &Path, dir: &Path) -> Result<Vec<(&'static str, u64)>, String> {
    spec::WORKLOADS
        .iter()
        .filter(|w| is_service(w.name))
        .map(|w| {
            let seed = inputs::FROZEN_SEED;
            let (_, digest) = prepare_unchecked(w.name, seed, inputs_dir, dir, Length::Smoke)?;
            Ok((w.name, digest.ok_or("service workloads derive files")?))
        })
        .collect()
}

/// `prepare` without the check; the digest is of a service workload's
/// first `DIGESTED` jobs.
fn prepare_unchecked(
    workload: &str,
    seed: u64,
    inputs_dir: &Path,
    dir: &Path,
    length: Length,
) -> Result<(Plan, Option<u64>), String> {
    let full = spec::workload(workload)
        .ok_or(format!("unknown workload '{workload}'"))?
        .passes;
    let passes = if length == Length::Full { full } else { 1 };
    let salt = inputs::fnv1a(inputs::FNV_START, workload.as_bytes());
    let mut rng = SplitMix64::new(seed ^ salt);
    let Some(pairs) = inputs::engine_pairs(workload) else {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let bases = inputs::load_frozen(inputs_dir, inputs::SVC_BASES)?;
        let plan = service_plan(workload == "net_warm", &bases, dir, passes, &mut rng)?;
        let mut digest = inputs::FNV_START;
        for item in &plan.items[..DIGESTED] {
            for file in [&item.left, &item.right] {
                let bytes = std::fs::read(file).map_err(|e| format!("{}: {e}", file.display()))?;
                digest = inputs::fnv1a(digest, &bytes);
            }
        }
        return Ok((plan, Some(digest)));
    };
    let pairs = match length {
        Length::Smoke => &pairs[pairs.len() - 1..],
        _ => pairs,
    };
    // The program under test gets the committed files as they are, and the
    // seed only sets the order in which a pass visits them. An engine
    // run's time swings by a tenth with how its inputs happen to be
    // labelled, and a pass has room for a handful of pairs, not for the
    // hundreds that would average that out; the service workloads, with
    // hundreds of jobs per run, draw a layer per job from the seed.
    let entries = inputs::engine_entries(workload, pairs);
    let mut items: Vec<Item> = inputs::load_frozen(inputs_dir, &entries)?
        .into_iter()
        .map(|frozen| frozen.item)
        .collect();
    inputs::shuffle(&mut items, &mut rng);
    let all: Vec<usize> = (0..items.len()).collect();
    let plan = Plan {
        items,
        passes: vec![all; passes],
        warmup: Vec::new(),
    };
    Ok((plan, None))
}

fn service_plan(
    warm: bool,
    bases: &[Frozen],
    dir: &Path,
    supply: usize,
    rng: &mut SplitMix64,
) -> Result<Plan, String> {
    let mut items = Vec::new();
    let mut passes = Vec::new();
    let mut warmup = Vec::new();
    if !warm {
        // Every job its own permutation layer over a base pair: equivalence
        // (or the mutation) holds by construction, no two miters hash alike.
        // Bases take turns and every fifth job is a `flip` mutant: every
        // pass has the same make-up in the same order, and the seed draws
        // the layers. (Drawing make-up or order too puts expensive jobs
        // side by side at random: a tenth more spread, half more p99.)
        let cold_job = |n: usize, rng: &mut SplitMix64, items: &mut Vec<Item>| {
            let base = &bases[n % bases.len()];
            let mutation = if n % 5 == 4 {
                Mutation::Flip
            } else {
                Mutation::None
            };
            let (layer, order) = (rng.next_u64(), rng.next_u64());
            let tag = format!("cold{n}");
            items.push(inputs::derive_item(
                base,
                &tag,
                mutation,
                layer,
                Some(order),
                dir,
            )?);
            Ok::<usize, String>(items.len() - 1)
        };
        for p in 0..supply {
            let mut pass = Vec::new();
            for k in 0..COLD_BATCH {
                pass.push(cold_job(p * COLD_BATCH + k, rng, &mut items)?);
            }
            passes.push(pass);
        }
        for k in 0..COLD_WARMUP {
            warmup.push(cold_job(supply * COLD_BATCH + k, rng, &mut items)?);
        }
    } else {
        // A suite settled off the clock; then four jobs in five repeat a
        // suite member byte for byte (same files: memo and file cache),
        // and one in five is a member with its POs reordered (new files,
        // new whole-miter hash, every cone already in the shard cache).
        // Members take turns in both roles, every fifth job a reordered
        // one: every pass has the same make-up in the same order, and the
        // seed draws the layers and the new PO orders. No mutants here: a
        // disproof cancels its job's other shards, which then never reach
        // the cache and would be proved again on the clock.
        let mut members = Vec::new();
        for n in 0..WARM_SUITE {
            let base = &bases[n % bases.len()];
            let layer = rng.next_u64();
            warmup.push(items.len());
            members.push((items.len(), base, layer));
            items.push(inputs::derive_item(
                base,
                &format!("suite{n}"),
                Mutation::None,
                layer,
                None,
                dir,
            )?);
        }
        let (mut repeated, mut reordered) = (0, 0);
        for _ in 0..supply {
            let mut pass = Vec::new();
            for k in 0..WARM_BATCH {
                if k % 5 != 4 {
                    pass.push(members[repeated % members.len()].0);
                    repeated += 1;
                    continue;
                }
                let (_, base, layer) = members[reordered % members.len()];
                pass.push(items.len());
                items.push(inputs::derive_item(
                    base,
                    &format!("reorder{reordered}"),
                    Mutation::None,
                    layer,
                    Some(rng.next_u64()),
                    dir,
                )?);
                reordered += 1;
            }
            passes.push(pass);
        }
    }
    Ok(Plan {
        items,
        passes,
        warmup,
    })
}

/// A service workload's live half: the server and its connections.
pub struct Service {
    pub server: Server,
    pub clients: Vec<Client>,
    /// Jobs sent so far, to hold against the server's final count.
    pub sent: u64,
}

impl Service {
    /// Starts a server, connects, and settles `warmup` off the clock.
    pub fn start(
        env: &Env,
        connections: usize,
        warmup: &[&Item],
    ) -> Result<(Service, Batch), String> {
        let server = Server::start(&env.net)?;
        let clients = (0..connections)
            .map(|_| Client::connect(server.addr))
            .collect::<Result<Vec<_>, _>>()?;
        let mut service = Service {
            server,
            clients,
            sent: 0,
        };
        let (batch, _) = service.run(warmup, WINDOW);
        Ok((service, batch))
    }

    pub fn run(&mut self, jobs: &[&Item], window: usize) -> (Batch, f64) {
        self.sent += jobs.len() as u64;
        net::run_batch(&mut self.clients, jobs, window)
    }

    /// The server's `stats` event.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.clients[0].request("stats", "stats")
    }

    /// Stops the server and checks that it settled every job sent: a lost
    /// result is a failure.
    pub fn stop(self) -> Result<net::ServerExit, String> {
        let sent = self.sent;
        drop(self.clients);
        let exit = self.server.stop()?;
        if exit.completed != sent || exit.submitted != sent {
            return Err(format!(
                "server settled {}/{} jobs, the clients sent {sent}",
                exit.completed, exit.submitted
            ));
        }
        Ok(exit)
    }
}

/// What a run, traced or not, reports.
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `(name, value)` in the order of `spec::END_TO_END` (untraced) or
    /// `spec::PER_LAYER` (traced).
    pub metrics: Vec<(&'static str, f64)>,
    /// What is behind the metrics, for the human-facing report.
    pub detail: Json,
}

fn spread(values: &[f64]) -> Json {
    Json::obj([
        ("median", Json::Num(median(values))),
        (
            "min",
            Json::Num(values.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        ("max", Json::Num(values.iter().copied().fold(0.0, f64::max))),
        ("samples", Json::Num(values.len() as f64)),
    ])
}

/// Everything before the first timed operation: load and digest-check
/// the frozen inputs, derive and write this seed's files, start the
/// server, warm up. Run `SETUP_REPS` times; the last one is kept.
fn set_up(
    env: &Env,
    workload: &str,
    seed: u64,
    length: Length,
) -> Result<(Plan, Option<Service>, Vec<f64>, Batch), String> {
    let dir = env.out.join(workload);
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // The previous repetition's server must not share the box with
        // this one's.
        if let Some((_, Some(service), _)) = kept.take() {
            Service::stop(service)?;
        }
        let start = Instant::now();
        let plan = prepare(workload, seed, &env.inputs, &dir, length)?;
        let (service, warm) = if is_service(workload) {
            let (service, batch) = Service::start(env, CONNECTIONS, &plan.refs(&plan.warmup))?;
            (Some(service), batch)
        } else {
            // Warm-up: one untimed pass, which pages the binary and the
            // derived files in.
            let mut batch = Batch::default();
            for item in &plan.items {
                batch.attempted += 1;
                batch
                    .failures
                    .extend(eng::check(&env.parsweep, item).failure);
            }
            (None, batch)
        };
        times.push(start.elapsed().as_secs_f64());
        kept = Some((plan, service, warm));
    }
    let (plan, service, warm) = kept.ok_or("no set-up ran")?;
    Ok((plan, service, times, warm))
}

/// Runs `workload` untraced, its fixed number of passes or as many as
/// start within `seconds`, and reports every end-to-end metric.
pub fn run(
    env: &Env,
    workload: &str,
    seed: u64,
    seconds: f64,
    length: Length,
) -> Result<Report, String> {
    let (plan, mut service, setup_times, warm) = set_up(env, workload, seed, length)?;
    let warmed = warm.attempted;
    let mut attempted = warmed;
    let mut failures = warm.failures;

    let mut pass_walls = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut completed = 0u64;
    let mut cpu_s = 0.0;
    let mut peak_rss_mb: f64 = 0.0;
    let mut extra = Vec::new();
    let mut by_item: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();

    let cpu_before = service.as_ref().map_or(0.0, |s| s.server.cpu_s());
    let clock = Instant::now();
    let mut n = 0;
    while let Some(jobs) = plan.pass(n) {
        if n > 0 && clock.elapsed().as_secs_f64() >= seconds {
            break;
        }
        n += 1;
        attempted += jobs.len() as u64;
        match service.as_mut() {
            Some(service) => {
                let (batch, wall) = service.run(&jobs, WINDOW);
                pass_walls.push(wall);
                completed += batch.latencies_s.len() as u64;
                latencies_ms.extend(batch.latencies_s.iter().map(|s| s * 1e3));
                failures.extend(batch.failures);
            }
            None => {
                let mut wall = 0.0;
                for item in jobs {
                    let check = eng::check(&env.parsweep, item);
                    wall += check.wall_s;
                    by_item.entry(&item.tag).or_default().push(check.wall_s);
                    cpu_s += check.cpu_s;
                    peak_rss_mb = peak_rss_mb.max(check.peak_rss_mb);
                    completed += u64::from(check.failure.is_none());
                    failures.extend(check.failure);
                }
                pass_walls.push(wall);
            }
        }
    }
    let passes = pass_walls.len() as f64;

    if let Some(mut service) = service {
        cpu_s = service.server.cpu_s() - cpu_before;
        let stats = service.stats()?;
        let stat = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        if workload == "net_cold" {
            // The workload is only what it claims to be if nothing was
            // served from the memo and (nearly) nothing from the
            // structural tier.
            // (`cache_hits` counts structural hits only; a semantic hit is
            // a structural miss first.)
            let structural = stat("cache_hits") / (stat("cache_hits") + stat("cache_misses"));
            if stat("job_memo_hits") != 0.0 || structural.is_nan() || structural >= 0.05 {
                failures.push(format!(
                    "net_cold is not cold: {} memo hits, structural hit share {structural:.4}",
                    stat("job_memo_hits")
                ));
            }
        }
        extra.push(("server_stats", stats));
        let exit = service.stop()?;
        peak_rss_mb = exit.peak_rss_mb;
    }

    if !by_item.is_empty() {
        // A handful of pairs, each run a dozen times: a percentile over the
        // raw invocations would be the slowest run of whichever pair sits
        // at that rank. Each pair counts once, with its median over the
        // passes: p50 is the lower-middle pair, p99 the dearest one. They
        // restate `verdict_s` pair by pair; `compare` does not judge them.
        latencies_ms = by_item.values().map(|walls| median(walls) * 1e3).collect();
        let rows = by_item
            .iter()
            .map(|(tag, walls)| (*tag, Json::Num(median(walls))));
        extra.push(("median_s_by_pair", Json::obj(rows)));
    }
    let timed_s: f64 = pass_walls.iter().sum();
    let metrics = vec![
        ("setup_s", median(&setup_times)),
        ("verdict_s", median(&pass_walls)),
        ("jobs_per_s", completed as f64 / timed_s),
        ("latency_p50_ms", percentile(&latencies_ms, 50.0)),
        ("latency_p99_ms", percentile(&latencies_ms, 99.0)),
        ("cpu_s", cpu_s / passes),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let mut detail = vec![
        ("passes", Json::Num(passes)),
        ("operations", Json::Num((attempted - warmed) as f64)),
        ("setup_s", spread(&setup_times)),
        ("verdict_s", spread(&pass_walls)),
        ("latency_ms", spread(&latencies_ms)),
    ];
    detail.extend(extra);
    Ok(Report {
        attempted,
        failures,
        metrics,
        detail: Json::obj(detail),
    })
}
