//! The `salloc` command-line tool: generate, inspect, and solve allocation
//! instances from the shell.
//!
//! ```text
//! salloc gen forests --nl 1000 --nr 800 --k 4 --cap 2 --out g.txt
//! salloc analyze g.txt
//! salloc solve g.txt --eps 0.1 [--lambda 4] [--paper-stages] [--assign m.txt]
//! salloc opt g.txt
//! ```
//!
//! All subcommands work on the plain-text instance format of
//! [`sparse_alloc_graph::io`]. The logic lives in library functions
//! returning the printable report, so it is unit-testable; `bin/salloc.rs`
//! is a thin wrapper.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use sparse_alloc_core::guessing::run_with_guessing;
use sparse_alloc_core::loadbalance::{
    approx_min_makespan, exact_min_makespan, greedy_least_loaded, ApproxBalanceConfig,
};
use sparse_alloc_core::params::Schedule;
use sparse_alloc_core::pipeline::{solve, Booster, PipelineConfig, Rounder};
use sparse_alloc_dynamic::adapter::{churn_stream, ChurnMix};
use sparse_alloc_dynamic::distributed::{BatchReport, ShardedEpochReport};
use sparse_alloc_dynamic::{
    snapshot, wal, DynamicConfig, Engine, EpochReport, NetEpochReport, NetServeLoop, ServeLoop,
    ShardedConfig, ShardedServeLoop, SupervisorConfig, TransportKind, Update, WalRecord, WalWriter,
};
use sparse_alloc_flow::opt::opt_value;
use sparse_alloc_graph::generators::{
    escape_blocks, power_law, random_bipartite, star, union_of_spanning_trees, Generated,
    PowerLawParams,
};
use sparse_alloc_graph::sparsity::arboricity_bracket;
use sparse_alloc_graph::{io, Assignment, Bipartite};
use sparse_alloc_mpc::transport::Fault;
use sparse_alloc_obs::{read_trace, Phase, TraceEvent, Tracer};
use sparse_alloc_online::arrival;
use sparse_alloc_online::balance::Balance;
use sparse_alloc_online::driver::{run_online, OnlineAllocator};
use sparse_alloc_online::greedy::{FirstFit, RandomFit};
use sparse_alloc_online::proportional_serve::{ProportionalServe, ServeMode};
use sparse_alloc_online::ranking::Ranking;

/// CLI failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parsed `--key value` flags plus positional arguments.
struct Flags {
    positional: Vec<String>,
    named: HashMap<String, String>,
    switches: Vec<String>,
}

fn parse_flags(args: &[String], switch_names: &[&str]) -> Result<Flags, CliError> {
    let mut f = Flags {
        positional: Vec::new(),
        named: HashMap::new(),
        switches: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if switch_names.contains(&name) {
                f.switches.push(name.to_string());
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| err(format!("flag --{name} needs a value")))?;
                f.named.insert(name.to_string(), value.clone());
            }
        } else {
            f.positional.push(a.clone());
        }
    }
    Ok(f)
}

impl Flags {
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.named.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{name}: cannot parse '{v}'"))),
        }
    }
    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn load(path: &str) -> Result<Bipartite, CliError> {
    let file = std::fs::File::open(path).map_err(|e| err(format!("{path}: {e}")))?;
    let mut reader = std::io::BufReader::new(file);
    io::read_text(&mut reader).map_err(|e| err(format!("{path}: {e}")))
}

fn save(g: &Bipartite, path: &str) -> Result<(), CliError> {
    let file = std::fs::File::create(path).map_err(|e| err(format!("{path}: {e}")))?;
    let mut writer = std::io::BufWriter::new(file);
    io::write_text(g, &mut writer).map_err(|e| err(format!("{path}: {e}")))
}

/// Top-level dispatch; returns the report to print.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(err(USAGE));
    };
    match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "analyze" => cmd_analyze(rest),
        "solve" => cmd_solve(rest),
        "opt" => cmd_opt(rest),
        "balance" => cmd_balance(rest),
        "online" => cmd_online(rest),
        "dynamic" => cmd_dynamic(rest),
        "report" => cmd_report(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(err(format!("unknown command '{other}'\n{USAGE}"))),
    }
}

const USAGE: &str = "usage: salloc <command>
  gen <forests|star|random|power-law|escape> [--nl N] [--nr N] [--k K]
      [--cap C] [--seed S] --out FILE     generate an instance
  analyze FILE                            size, degrees, arboricity bracket
  solve FILE [--eps E] [--lambda L] [--paper-stages] [--assign OUT]
                                          run the (1+ε) pipeline
  opt FILE                                exact optimum (Dinic max-flow)
  balance FILE [--eps E] [--exact]        minimize makespan (jobs = left,
                                          servers = right; allocation-driven)
  online FILE [--algo A] [--order O] [--seed S]
                                          serve arrivals online; A ∈
                                          first-fit|random-fit|balance|ranking|
                                          prop-serve, O ∈ natural|reversed|random
  dynamic FILE [--epochs N] [--events K] [--eps E] [--seed S] [--no-full]
               [--shards P] [--net] [--p2p] [--eager-budget B] [--footprint-cap N]
               [--waves] [--checkpoint SNAP] [--checkpoint-every N]
               [--restore SNAP] [--wal LOG] [--max-respawns N]
               [--retry-budget N] [--assign OUT] [--trace OUT.jsonl]
                                          serve a churn stream incrementally
                                          (K events/epoch), comparing against
                                          per-epoch full recomputes; with
                                          --shards P, serve sharded across a
                                          P-machine MPC cluster (ledger-
                                          accounted rounds and space).
                                          --eager-budget caps the eager walk
                                          depth (both modes; small values keep
                                          conflict footprints tight),
                                          --footprint-cap sets the global-
                                          escalation threshold, --waves adds a
                                          wave-occupancy report line.
                                          --checkpoint writes a warm-restart
                                          snapshot after the run (and, with
                                          --checkpoint-every N, atomically
                                          after every N epochs); --restore
                                          resumes from one instead of solving
                                          from scratch — pass the SAME FILE,
                                          --epochs, --events, and --seed as
                                          the original run to replay the
                                          identical stream tail (the engine
                                          config comes from the snapshot;
                                          --shards P re-shards onto P
                                          machines). --assign dumps the final
                                          matching, one \"u v\" pair per line.
                                          --net (requires --shards) runs the
                                          shards as real worker threads
                                          exchanging checksummed frames over
                                          TCP; the final matching is gathered
                                          from the worker slices over the
                                          wire, and the report adds measured
                                          wire bytes per epoch. --p2p
                                          (requires --net) additionally runs
                                          the repair waves *on* the workers:
                                          bounded walks execute against the
                                          owning shard's slice and cross-
                                          shard walk state moves directly
                                          over worker↔worker links, metered
                                          in the report's handoff line. --wal LOG
                                          appends every update batch and
                                          epoch boundary to a write-ahead
                                          log (fsynced, checksummed) before
                                          acting on it, and every checkpoint
                                          (a full snapshot) marks the log as
                                          a base. With --restore, the snapshot
                                          must be the log's last base and the
                                          log tail past it is replayed first:
                                          crash recovery is last base + log
                                          tail, at most N epochs under
                                          --checkpoint-every N. With --net,
                                          --max-respawns N / --retry-budget N
                                          let the coordinator retry transient
                                          faults and rebuild a faulted mesh
                                          (re-initialized over the wire)
                                          before quarantining read-only. --trace
                                          writes every engine phase as a
                                          checksummed JSONL span (measured
                                          nanoseconds + simulated words) plus
                                          final counters; summarize it with
                                          `salloc report`
  report TRACE.jsonl                      checksum-verify a --trace file and
                                          print per-phase p50/p95/p99 latency,
                                          the wave-width histogram, counters,
                                          and per-peer wire bytes";

fn cmd_gen(args: &[String]) -> Result<String, CliError> {
    let f = parse_flags(args, &[])?;
    let family = f
        .positional
        .first()
        .ok_or_else(|| err("gen: missing family"))?
        .clone();
    let nl: usize = f.get("nl", 1000)?;
    let nr: usize = f.get("nr", 800)?;
    let k: u32 = f.get("k", 3)?;
    let cap: u64 = f.get("cap", 2)?;
    let seed: u64 = f.get("seed", 1)?;
    let out = f
        .named
        .get("out")
        .ok_or_else(|| err("gen: missing --out FILE"))?;

    let gen: Generated = match family.as_str() {
        "forests" => union_of_spanning_trees(nl, nr, k, cap, seed),
        "star" => star(nl, cap),
        "random" => {
            let m: usize = f.get("m", 4 * nl)?;
            random_bipartite(nl, nr, m, cap, seed)
        }
        "power-law" => power_law(
            &PowerLawParams {
                n_left: nl,
                n_right: nr,
                exponent: f.get("exponent", 1.3)?,
                min_degree: f.get("min-degree", 2)?,
                max_degree: f.get("max-degree", 128)?,
                cap,
            },
            seed,
        ),
        "escape" => escape_blocks(k, f.get("blocks", 4)?),
        other => return Err(err(format!("gen: unknown family '{other}'"))),
    };
    save(&gen.graph, out)?;
    Ok(format!(
        "wrote {} — {} (n = {}, m = {}, certified λ ≤ {})",
        out,
        gen.family,
        gen.graph.n(),
        gen.graph.m(),
        gen.lambda_upper
    ))
}

fn cmd_analyze(args: &[String]) -> Result<String, CliError> {
    let f = parse_flags(args, &[])?;
    let path = f
        .positional
        .first()
        .ok_or_else(|| err("analyze: missing FILE"))?;
    let g = load(path)?;
    let b = arboricity_bracket(&g);
    let s = sparse_alloc_graph::stats::graph_stats(&g);
    let mut out = String::new();
    let _ = writeln!(out, "{path}:");
    let _ = writeln!(out, "  left × right    : {} × {}", g.n_left(), g.n_right());
    let _ = writeln!(out, "  edges           : {}", g.m());
    let _ = writeln!(out, "  total capacity  : {}", g.total_capacity());
    let _ = writeln!(out, "  arboricity λ    : [{}, {}]", b.lower, b.upper);
    let fmt_dist = |d: &sparse_alloc_graph::stats::Distribution| {
        format!(
            "min {} / med {} / p90 {} / max {} (mean {:.2})",
            d.min, d.median, d.p90, d.max, d.mean
        )
    };
    let _ = writeln!(out, "  left degrees    : {}", fmt_dist(&s.left_degrees));
    let _ = writeln!(out, "  right degrees   : {}", fmt_dist(&s.right_degrees));
    let _ = writeln!(out, "  capacities      : {}", fmt_dist(&s.capacities));
    let _ = writeln!(out, "  demand / supply : {:.3}", s.demand_supply_ratio);
    let _ = writeln!(out, "  isolated clients: {}", s.isolated_left);
    Ok(out)
}

fn cmd_solve(args: &[String]) -> Result<String, CliError> {
    let f = parse_flags(args, &["paper-stages"])?;
    let path = f
        .positional
        .first()
        .ok_or_else(|| err("solve: missing FILE"))?;
    let g = load(path)?;
    let eps: f64 = f.get("eps", 0.1)?;
    if !(eps > 0.0 && eps <= 1.0) {
        return Err(err("--eps must be in (0, 1]"));
    }
    let schedule = match f.named.get("lambda") {
        Some(l) => Some(Schedule::KnownLambda(
            l.parse().map_err(|_| err("--lambda: not a number"))?,
        )),
        None => None, // λ-oblivious guessing, the paper's headline mode
    };
    let config = if f.has("paper-stages") {
        PipelineConfig {
            eps,
            schedule,
            rounder: Rounder::BestOfSampling {
                repetitions: (g.n().max(2) as f64).log2().ceil() as usize,
            },
            booster: Booster::Layered {
                k: (1.0 / eps).ceil().min(6.0) as usize,
                iterations: 300,
            },
            seed: f.get("seed", 1)?,
        }
    } else {
        PipelineConfig {
            eps,
            schedule,
            rounder: Rounder::Greedy,
            booster: Booster::Hk {
                k: (1.0 / eps).ceil() as usize,
            },
            seed: f.get("seed", 1)?,
        }
    };

    let result = solve(&g, &config);
    result
        .assignment
        .validate(&g)
        .map_err(|e| err(format!("internal: infeasible output: {e}")))?;

    write_assignment(f.named.get("assign"), &result.assignment)?;

    let fills =
        sparse_alloc_graph::stats::fill_report(&g, &result.assignment.right_loads(g.n_right()));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "matched          : {} of {}",
        result.assignment.size(),
        g.n_left()
    );
    let _ = writeln!(out, "fractional weight: {:.1}", result.fractional_weight);
    let _ = writeln!(out, "rounded size     : {}", result.rounded_size);
    let _ = writeln!(out, "LOCAL rounds     : {}", result.fractional_rounds);
    let _ = writeln!(
        out,
        "server fill      : Jain {:.3}, {} saturated, {} idle",
        fills.jain_index, fills.saturated, fills.starved
    );
    Ok(out)
}

fn cmd_opt(args: &[String]) -> Result<String, CliError> {
    let f = parse_flags(args, &[])?;
    let path = f
        .positional
        .first()
        .ok_or_else(|| err("opt: missing FILE"))?;
    let g = load(path)?;
    let opt = opt_value(&g);
    let trivial = sparse_alloc_flow::opt::trivial_upper_bound(&g);
    Ok(format!("OPT = {opt} (trivial upper bound {trivial})\n"))
}

fn cmd_balance(args: &[String]) -> Result<String, CliError> {
    let f = parse_flags(args, &["exact"])?;
    let path = f
        .positional
        .first()
        .ok_or_else(|| err("balance: missing FILE"))?;
    let g = load(path)?;
    let eps: f64 = f.get("eps", 0.1)?;
    let result = if f.has("exact") {
        exact_min_makespan(&g)
    } else {
        approx_min_makespan(
            &g,
            &ApproxBalanceConfig {
                eps,
                ..ApproxBalanceConfig::default()
            },
        )
    }
    .map_err(|e| err(format!("balance: {e}")))?;
    let (_, greedy_makespan) = greedy_least_loaded(&g);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "makespan         : {} ({} search)",
        result.makespan,
        if f.has("exact") {
            "exact"
        } else {
            "allocation-driven"
        }
    );
    let _ = writeln!(out, "volume lower bnd : {}", result.volume_lower_bound);
    let _ = writeln!(out, "feasibility probes: {}", result.probes.len());
    let _ = writeln!(out, "greedy baseline  : {greedy_makespan}");
    Ok(out)
}

fn cmd_online(args: &[String]) -> Result<String, CliError> {
    let f = parse_flags(args, &[])?;
    let path = f
        .positional
        .first()
        .ok_or_else(|| err("online: missing FILE"))?;
    let g = load(path)?;
    let seed: u64 = f.get("seed", 1)?;
    let order = match f.get::<String>("order", "natural".into())?.as_str() {
        "natural" => arrival::natural(&g),
        "reversed" => arrival::reversed(&g),
        "random" => arrival::random(&g, seed),
        other => return Err(err(format!("online: unknown order '{other}'"))),
    };
    let algo_name: String = f.get("algo", "balance".into())?;
    let mut algo: Box<dyn OnlineAllocator> = match algo_name.as_str() {
        "first-fit" => Box::new(FirstFit::new()),
        "random-fit" => Box::new(RandomFit::new(seed)),
        "balance" => Box::new(Balance::new()),
        "ranking" => Box::new(Ranking::new(seed)),
        "prop-serve" => {
            // Serve from the paper algorithm's offline fractional solution.
            let x = run_with_guessing(&g, 0.1).result.fractional.x;
            Box::new(ProportionalServe::new(x, ServeMode::Sample, seed))
        }
        other => return Err(err(format!("online: unknown algorithm '{other}'"))),
    };
    let a = run_online(&g, &order, algo.as_mut());
    a.validate(&g)
        .map_err(|e| err(format!("internal: infeasible output: {e}")))?;
    let opt = opt_value(&g);
    Ok(format!(
        "{}: matched {} of {} arrivals (OPT {}, ratio {:.4})\n",
        algo.name(),
        a.size(),
        g.n_left(),
        opt,
        a.size() as f64 / opt.max(1) as f64
    ))
}

/// `--assign OUT`: dump `assignment` to `path`, one "u v" pair per line.
fn write_assignment(path: Option<&String>, assignment: &Assignment) -> Result<(), CliError> {
    let Some(path) = path else {
        return Ok(());
    };
    let mut text = String::new();
    for (u, v) in assignment.pairs() {
        let _ = writeln!(text, "{u} {v}");
    }
    std::fs::write(path, text).map_err(|e| err(format!("{path}: {e}")))
}

/// Everything `salloc dynamic` needs besides its engine: the stream and
/// the persistence, durability, supervision and trace flags.
struct Run {
    epochs: usize,
    events: usize,
    /// The churn stream, regenerated identically by every run with the
    /// same FILE, `--epochs`, `--events` and `--seed`.
    updates: Vec<Update>,
    checkpoint: Option<String>,
    every: usize,
    restore: Option<String>,
    assign: Option<String>,
    /// `--wal LOG`: append every batch and epoch boundary to a
    /// write-ahead log before acting on it; with `--restore`, replay the
    /// log tail past the snapshot first.
    wal: Option<String>,
    /// `--max-respawns N` (`--net` only): mesh rebuilds (each respawns
    /// every worker) the coordinator may spend before quarantining.
    max_respawns: u64,
    /// `--retry-budget N` (`--net` only): transient-fault receive
    /// retries per exchange.
    retry_budget: u32,
    /// Hidden `--chaos KIND@EPOCH` test hook (`--net` only): inject a
    /// transport fault just before the given 1-based epoch. KIND ∈
    /// drop|truncate|flip|reorder|every:N. Used by the ci.sh chaos
    /// smoke; deliberately absent from USAGE.
    chaos: Option<(Fault, usize)>,
    tracer: Tracer,
    trace: Option<String>,
}

impl Run {
    fn parse(f: &Flags, g: &Bipartite) -> Result<Run, CliError> {
        let (epochs, events) = (f.get("epochs", 4)?, f.get("events", 200)?);
        let trace = f.named.get("trace").cloned();
        let run = Run {
            epochs,
            events,
            updates: churn_stream(g, epochs * events, &ChurnMix::default(), f.get("seed", 1)?),
            checkpoint: f.named.get("checkpoint").cloned(),
            every: f.get("checkpoint-every", 0)?,
            restore: f.named.get("restore").cloned(),
            assign: f.named.get("assign").cloned(),
            wal: f.named.get("wal").cloned(),
            max_respawns: f.get("max-respawns", 0)?,
            retry_budget: f.get("retry-budget", 0)?,
            chaos: match f.named.get("chaos") {
                Some(spec) => Some(parse_chaos(spec)?),
                None => None,
            },
            tracer: match &trace {
                Some(p) => Tracer::to_file(p).map_err(|e| err(format!("{p}: {e}")))?,
                None => Tracer::disabled(),
            },
            trace,
        };
        if run.every > 0 && run.checkpoint.is_none() {
            return Err(err("--checkpoint-every requires --checkpoint"));
        }
        if run.restore.is_some() {
            // The engine configuration travels inside the snapshot;
            // accepting config flags here would silently misreport what
            // actually runs.
            for flag in ["eps", "eager-budget", "footprint-cap"] {
                if f.named.contains_key(flag) {
                    return Err(err(format!(
                        "--{flag} conflicts with --restore (the engine \
                         configuration comes from the snapshot)"
                    )));
                }
            }
        }
        Ok(run)
    }
}

fn parse_chaos(spec: &str) -> Result<(Fault, usize), CliError> {
    let (kind, at) = spec
        .split_once('@')
        .ok_or_else(|| err("--chaos wants KIND@EPOCH (e.g. flip@2)"))?;
    let epoch: usize = at
        .parse()
        .map_err(|_| err(format!("--chaos: cannot parse epoch '{at}'")))?;
    if epoch == 0 {
        return Err(err("--chaos: EPOCH is 1-based"));
    }
    let fault = match kind {
        "drop" => Fault::Drop,
        "truncate" => Fault::Truncate,
        "flip" => Fault::FlipBit { bit: 127 },
        "reorder" => Fault::Reorder,
        other => match other.strip_prefix("every:") {
            Some(n) => Fault::Every {
                n: n.parse()
                    .map_err(|_| err(format!("--chaos: cannot parse period '{n}'")))?,
                fault: Box::new(Fault::FlipBit { bit: 127 }),
            },
            None => return Err(err(format!("--chaos: unknown fault kind '{kind}'"))),
        },
    };
    Ok((fault, epoch))
}

fn cmd_dynamic(args: &[String]) -> Result<String, CliError> {
    let f = parse_flags(args, &["no-full", "waves", "net", "p2p"])?;
    let path = f
        .positional
        .first()
        .ok_or_else(|| err("dynamic: missing FILE"))?;
    let g = load(path)?;
    let eps: f64 = f.get("eps", 0.1)?;
    if !(eps > 0.0 && eps <= 1.0) {
        return Err(err("--eps must be in (0, 1]"));
    }
    let shards: usize = f.get("shards", 0)?;
    let (sharded, net) = (shards > 0, f.has("net"));
    // Supervision only exists where there are real workers to supervise,
    // and scheduling knobs only in sharded mode; accepting these flags
    // elsewhere would silently misreport what actually ran.
    let named = |flag: &str| f.named.contains_key(flag);
    let requires = [
        ("p2p", f.has("p2p"), net, "net"),
        ("max-respawns", named("max-respawns"), sharded && net, "net"),
        ("retry-budget", named("retry-budget"), sharded && net, "net"),
        ("chaos", named("chaos"), sharded && net, "net"),
        ("net", net, sharded, "shards"),
        ("waves", f.has("waves"), sharded, "shards"),
        ("footprint-cap", named("footprint-cap"), sharded, "shards"),
    ];
    if let Some((flag, .., needs)) = requires.iter().find(|(_, given, ok, _)| *given && !ok) {
        return Err(err(format!("--{flag} requires --{needs}")));
    }
    if net && f.has("waves") {
        return Err(err("--waves is a simulator report; drop it with --net"));
    }
    let run = Run::parse(&f, &g)?;
    // Both modes run the same engine config, so a serial run stays the
    // reference for a sharded run under identical flags. 0 = the serial
    // default (the full walk budget).
    let eager_budget: usize = f.get("eager-budget", 0)?;
    let mut cfg = DynamicConfig::for_eps(eps);
    if eager_budget > 0 {
        cfg.eager_walk_budget = eager_budget;
    }
    if !sharded {
        let serve = match &run.restore {
            Some(snap) => snapshot::load_serial(snap).map_err(|e| err(format!("{snap}: {e}")))?,
            None => ServeLoop::new(g, cfg),
        };
        let report = SerialReport {
            compare_full: !f.has("no-full"),
            ..SerialReport::default()
        };
        return drive(serve, report, &run);
    }
    let footprint_cap: usize =
        f.get("footprint-cap", sparse_alloc_dynamic::batch::FOOTPRINT_CAP)?;
    if footprint_cap == 0 {
        return Err(err("--footprint-cap must be ≥ 1"));
    }
    let mut scfg = ShardedConfig::for_eps(eps, shards);
    scfg.dynamic = cfg;
    scfg.footprint_cap = footprint_cap;
    let mut inner = match &run.restore {
        Some(snap) => {
            snapshot::load_sharded(snap, Some(shards)).map_err(|e| err(format!("{snap}: {e}")))?
        }
        None => ShardedServeLoop::new(g, scfg)
            .map_err(|e| err(format!("sharded serving left the MPC regime: {e}")))?,
    };
    if !net {
        let report = ShardedReport {
            waves: f.has("waves"),
            ..ShardedReport::default()
        };
        return drive(inner, report, &run);
    }
    // The tracer goes onto the *inner* sharded engine before the mesh
    // comes up, so the scatter-init span on construction is captured too.
    inner.set_tracer(run.tracer.clone());
    let p2p = f.has("p2p");
    let mut serve = if p2p {
        NetServeLoop::from_inner_p2p(inner, TransportKind::Tcp)
    } else {
        NetServeLoop::from_inner(inner, TransportKind::Tcp)
    }
    .map_err(|e| err(format!("networked serving failed to start: {e}")))?;
    if run.max_respawns > 0 || run.retry_budget > 0 {
        serve.set_supervisor(SupervisorConfig {
            max_respawns: run.max_respawns,
            retry_budget: run.retry_budget,
            ..SupervisorConfig::default()
        });
    }
    let report = NetReport {
        p2p,
        ..NetReport::default()
    };
    drive(serve, report, &run)
}

/// What one engine adds to the shared [`drive`] loop: its report header,
/// per-epoch columns and footer lines.
trait Report<E: Engine> {
    /// Names and widths of the columns after `epoch events matched`.
    const COLUMNS: &'static [(&'static str, usize)];
    /// How the served-allocation line names the allocation.
    const SERVED: &'static str = "maintained";

    /// The lines before the restore note, from the post-replay engine.
    fn title(&mut self, serve: &E, run: &Run) -> String;

    /// Runs before 1-based epoch `epoch`.
    fn before_epoch(&mut self, _serve: &mut E, _run: &Run, _epoch: usize) {}

    /// One epoch's cells under [`Report::COLUMNS`]; `ms` is the epoch's
    /// apply + close wall time.
    fn cells(&mut self, serve: &E, batch: &E::Batch, report: &E::Report, ms: f64) -> Vec<String>;

    /// The lines after the served-allocation line.
    fn footer(&mut self, serve: &E, run: &Run, out: &mut String);
}

/// One labelled report line, the label padded to the colon column.
fn field(out: &mut String, label: &str, value: impl std::fmt::Display) {
    let _ = writeln!(out, "{label:<19}: {value}");
}

/// One table row: `cells` right-aligned to the widths of `columns`, two
/// spaces apart.
fn row(out: &mut String, columns: &[(&str, usize)], cells: impl Iterator<Item = String>) {
    let cells: Vec<String> = columns
        .iter()
        .zip(cells)
        .map(|(&(_, w), c)| format!("{c:>w$}"))
        .collect();
    let _ = writeln!(out, "{}", cells.join("  "));
}

/// The one `salloc dynamic` loop, generic over the engine: WAL open and
/// replay, the epoch loop with its periodic checkpoints, validation, the
/// OPT ratio line, the trace and the `--assign` dump.
///
/// Every checkpoint, periodic or final, is a full base with a log marker,
/// so crash recovery replays at most `--checkpoint-every` epochs.
fn drive<E: Engine, R: Report<E>>(mut serve: E, mut rep: R, run: &Run) -> Result<String, CliError> {
    serve.set_tracer(run.tracer.clone());
    let restored_at = serve.serial().stats().epochs;
    // Crash recovery: a restored engine first replays the WAL tail past
    // its snapshot, then resumes the (identically regenerated) stream
    // from wherever base + tail left off.
    let (mut walw, wal_note) = open_wal(&mut serve, run)?.unzip();
    let checkpoint = |serve: &mut E, cp: &str, wal: Option<&mut WalWriter<std::fs::File>>| {
        serve
            .checkpoint(cp.as_ref(), wal)
            .map_err(|me| err(format!("{cp}: {me}")))
    };
    // A restored engine resumes where the snapshot (plus any replayed
    // log tail) left off: its epoch counter says how much of the stream
    // was already consumed.
    let done = serve.serial().stats().epochs;

    let mut out = rep.title(&serve, run);
    if let Some(snap) = &run.restore {
        field(
            &mut out,
            "restored",
            format!("{snap} (resuming after epoch {restored_at})"),
        );
    }
    if let Some(note) = wal_note {
        field(&mut out, "wal", note);
    }
    let head = [("epoch", 5), ("events", 7), ("matched", 7)];
    let columns: Vec<(&str, usize)> = head.iter().chain(R::COLUMNS).copied().collect();
    row(&mut out, &columns, columns.iter().map(|c| c.0.to_string()));
    // The epoch the last checkpoint was cut at.
    let mut cut_at = None;
    let batches = run.updates.chunks(run.events.max(1)).take(run.epochs);
    for (e, chunk) in batches.enumerate().skip(done) {
        rep.before_epoch(&mut serve, run, e + 1);
        let t0 = std::time::Instant::now();
        let (batch, report) = serve
            .run_epoch(chunk, walw.as_mut())
            .map_err(|me| err(format!("epoch {}: {me}", e + 1)))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(cp) = &run.checkpoint {
            if run.every > 0 && (e + 1) % run.every == 0 {
                checkpoint(&mut serve, cp, walw.as_mut())?;
                cut_at = Some(serve.serial().stats().epochs);
            }
        }
        let head = [e + 1, chunk.len(), serve.serial().match_size()].map(|c| c.to_string());
        let cells = rep.cells(&serve, &batch, &report, ms);
        row(&mut out, &columns, head.into_iter().chain(cells));
    }
    serve
        .validate()
        .map_err(|e| err(format!("internal: inconsistent serve state: {e}")))?;

    let served = serve
        .served()
        .map_err(|e| err(format!("gathering the allocation failed: {e}")))?;
    let live = serve.serial().snapshot();
    let what = R::SERVED;
    served
        .validate(&live)
        .map_err(|e| err(format!("internal: infeasible {what} allocation: {e}")))?;
    let (size, opt) = (served.size(), opt_value(&live));
    let ratio = size as f64 / opt.max(1) as f64;
    let line = format!(
        "{size} of {} live clients (OPT {opt}, ratio {ratio:.4})",
        live.n_left()
    );
    field(&mut out, &format!("{what} matched"), line);
    rep.footer(&serve, run, &mut out);
    if let Some(cp) = &run.checkpoint {
        // The final snapshot — unless the last epoch's periodic write
        // already produced these exact bytes (a repeat would also charge
        // a sharded engine a second CHECKPOINT ledger phase).
        let epochs = serve.serial().stats().epochs;
        if cut_at != Some(epochs) {
            checkpoint(&mut serve, cp, walw.as_mut())?;
        }
        field(
            &mut out,
            "checkpoint",
            format!("wrote {cp} (after epoch {epochs})"),
        );
    }
    if let Some(w) = &walw {
        let (bytes, records) = (w.bytes_appended(), w.seq());
        field(
            &mut out,
            "wal",
            format!("{bytes} bytes appended ({records} records)"),
        );
    }
    // Finish the `--trace` stream: the final metrics registry, then flush.
    if let Some(p) = &run.trace {
        run.tracer.emit_registry(serve.obs());
        run.tracer.flush();
        field(
            &mut out,
            "trace",
            format!("wrote {p} ({} events)", run.tracer.events()),
        );
    }
    write_assignment(run.assign.as_ref(), &served)?;
    Ok(out)
}

/// Open (or create) the `--wal` log. On a `--restore` run the log is
/// opened in place (torn tail repaired), the restored snapshot is checked
/// against the log's last base marker, and the records past that marker
/// are replayed onto `serve` — crash recovery's `base + log tail`. A
/// fresh run truncates the log and starts over. Returns the log and a
/// note on what was done.
fn open_wal<E: Engine>(
    serve: &mut E,
    run: &Run,
) -> Result<Option<(WalWriter<std::fs::File>, String)>, CliError> {
    let Some(wp) = &run.wal else {
        return Ok(None);
    };
    let p = std::path::Path::new(wp);
    let opened = if let Some(snap) = &run.restore {
        let (log, w) = WalWriter::open(p).map_err(|e| err(format!("{wp}: {e}")))?;
        if let Some(WalRecord::Base { epoch, checksum }) = log.records[..log.tail_start()].last() {
            let bytes = std::fs::read(snap).map_err(|e| err(format!("{snap}: {e}")))?;
            if io::fnv1a64(&bytes) != *checksum {
                return Err(err(format!(
                    "{snap} is not the base {wp} was last cut at (epoch {epoch}, \
                     checksum {checksum:#018x})"
                )));
            }
        }
        let stats = wal::replay(serve, &log.records[log.tail_start()..])
            .map_err(|e| err(format!("{wp}: replay: {e}")))?;
        let note = format!(
            "replayed {} batches / {} updates over {} epochs from {wp}{}",
            stats.batches,
            stats.updates,
            stats.epochs,
            if log.torn {
                " (torn tail repaired)"
            } else {
                ""
            }
        );
        (w, note)
    } else {
        let w = WalWriter::create(p).map_err(|e| err(format!("{wp}: {e}")))?;
        (w, format!("logging to {wp}"))
    };
    Ok(Some(opened))
}

/// The serial engine's report: sweep and repair columns, timed against
/// an optional per-epoch full recompute.
#[derive(Default)]
struct SerialReport {
    /// Time a from-scratch pipeline run after every epoch (not `--no-full`).
    compare_full: bool,
    incr_ms: f64,
    full_ms: f64,
}

impl Report<ServeLoop> for SerialReport {
    const COLUMNS: &'static [(&'static str, usize)] = &[
        ("swept", 5),
        ("ball", 4),
        ("folded", 6),
        ("incr-ms", 8),
        ("full-ms", 8),
    ];

    fn title(&mut self, serve: &ServeLoop, run: &Run) -> String {
        format!(
            "dynamic serving: {} epochs × ~{} events (ε {}, walk budget k = {})\n",
            run.epochs,
            run.events,
            serve.config().eps,
            serve.config().walk_budget
        )
    }

    fn cells(&mut self, serve: &ServeLoop, _: &(), report: &EpochReport, ms: f64) -> Vec<String> {
        self.incr_ms += ms;
        let full_ms = if self.compare_full {
            let snapshot = serve.snapshot();
            let t1 = std::time::Instant::now();
            let scratch = solve(&snapshot, &PipelineConfig::default());
            let ms = t1.elapsed().as_secs_f64() * 1e3;
            debug_assert!(scratch.assignment.size() <= snapshot.n_left());
            self.full_ms += ms;
            format!("{ms:.2}")
        } else {
            "-".into()
        };
        vec![
            report.sweep_augmentations.to_string(),
            report.ball_rights.to_string(),
            if report.compacted { "yes" } else { "no" }.into(),
            format!("{ms:.2}"),
            full_ms,
        ]
    }

    fn footer(&mut self, serve: &ServeLoop, _: &Run, out: &mut String) {
        let s = serve.stats();
        let repairs = format!(
            "{} augmentations, {} evictions, {} folds ({} re-solved the levels)",
            s.augmentations, s.evictions, s.compactions, s.rebuilds
        );
        field(out, "repairs", repairs);
        let (incr, full) = (self.incr_ms, self.full_ms);
        let total = if self.compare_full {
            let speedup = full / incr.max(1e-9);
            format!("{incr:.2} ms vs full recompute {full:.2} ms ({speedup:.1}×)")
        } else {
            format!("{incr:.2} ms")
        };
        field(out, "incremental total", total);
    }
}

/// The footer line the sharded and networked reports share.
fn mpc_rounds(out: &mut String, ledger: &sparse_alloc_mpc::Ledger) {
    let rounds = format!(
        "{} total ({} words moved, peak machine storage {} words)",
        ledger.rounds, ledger.words_total, ledger.peak_storage
    );
    field(out, "MPC rounds", rounds);
}

/// The MPC-simulated engine's report: waves, handoffs, ledger rounds and
/// per-machine space.
#[derive(Default)]
struct ShardedReport {
    /// `--waves`: add the wave-occupancy line.
    waves: bool,
    /// The ledger's rounds before the current epoch.
    rounds: usize,
}

impl Report<ShardedServeLoop> for ShardedReport {
    const COLUMNS: &'static [(&'static str, usize)] = &[
        ("waves", 5),
        ("handoff", 7),
        ("rounds", 7),
        ("peak-wds", 9),
        ("budget", 9),
    ];

    fn title(&mut self, serve: &ShardedServeLoop, run: &Run) -> String {
        self.rounds = serve.ledger().rounds;
        let c = serve.serial().config();
        format!(
            "sharded serving: {} epochs × ~{} events on {} machines \
             (ε {}, walk budget k = {}, eager budget {})\n",
            run.epochs,
            run.events,
            serve.shards(),
            c.eps,
            c.walk_budget,
            c.eager_budget()
        )
    }

    fn cells(
        &mut self,
        serve: &ShardedServeLoop,
        batch: &BatchReport,
        report: &ShardedEpochReport,
        _: f64,
    ) -> Vec<String> {
        let before = std::mem::replace(&mut self.rounds, serve.ledger().rounds);
        vec![
            batch.waves.to_string(),
            batch.handoff_words.to_string(),
            (self.rounds - before).to_string(),
            report.peak_shard_words.to_string(),
            report.budget.to_string(),
        ]
    }

    fn footer(&mut self, serve: &ShardedServeLoop, _: &Run, out: &mut String) {
        mpc_rounds(out, serve.ledger());
        let s = serve.stats();
        let sharding = format!(
            "{} batches, {} waves, {} updates routed, {} migrations",
            s.batches, s.waves, s.routed_updates, s.migrations
        );
        field(out, "sharding", sharding);
        if self.waves {
            let mean = s.routed_updates as f64 / s.waves.max(1) as f64;
            let waves = format!(
                "{:.1} per epoch, width max {} mean {mean:.1}, {} delayed, {} global escalations",
                s.waves as f64 / s.batches.max(1) as f64,
                s.widest_wave,
                s.delayed,
                s.escalations
            );
            field(out, "waves", waves);
        }
    }
}

/// The networked engine's report: wire bytes and frames, supervision and
/// p2p repair traffic.
#[derive(Default)]
struct NetReport {
    p2p: bool,
    /// The ledger's rounds before the current epoch.
    rounds: usize,
    /// What `--chaos` injected, once it has.
    chaos: Option<String>,
}

impl Report<NetServeLoop> for NetReport {
    const COLUMNS: &'static [(&'static str, usize)] = &[
        ("waves", 5),
        ("rounds", 7),
        ("wire-bytes", 10),
        ("frames", 7),
    ];
    const SERVED: &'static str = "gathered";

    fn title(&mut self, serve: &NetServeLoop, run: &Run) -> String {
        self.rounds = serve.ledger().rounds;
        let c = serve.serial().config();
        let mut out = format!(
            "networked serving: {} epochs × ~{} events on {} TCP workers{} \
             (ε {}, walk budget k = {})\n",
            run.epochs,
            run.events,
            serve.shards(),
            if self.p2p { ", p2p repair waves" } else { "" },
            c.eps,
            c.walk_budget
        );
        if run.max_respawns > 0 || run.retry_budget > 0 {
            let supervision = format!(
                "up to {} respawns, {} transient retries per exchange",
                run.max_respawns, run.retry_budget
            );
            field(&mut out, "supervision", supervision);
        }
        out
    }

    fn before_epoch(&mut self, serve: &mut NetServeLoop, run: &Run, epoch: usize) {
        if let Some((fault, at)) = &run.chaos {
            if epoch == *at {
                let target = 1.min(serve.shards().saturating_sub(1));
                serve.inject_fault(target, fault.clone());
                self.chaos = Some(format!(
                    "injected {fault:?} on the channel to worker {target} before epoch {epoch}"
                ));
            }
        }
    }

    fn cells(
        &mut self,
        serve: &NetServeLoop,
        batch: &BatchReport,
        report: &NetEpochReport,
        _: f64,
    ) -> Vec<String> {
        let before = std::mem::replace(&mut self.rounds, serve.ledger().rounds);
        vec![
            batch.waves.to_string(),
            (self.rounds - before).to_string(),
            report.wire_bytes.to_string(),
            report.wire_frames.to_string(),
        ]
    }

    fn footer(&mut self, serve: &NetServeLoop, run: &Run, out: &mut String) {
        mpc_rounds(out, serve.ledger());
        let s = serve.net_stats();
        let wire = format!(
            "{} bytes in {} frames (route {} / commit {} / census {} / init {})",
            s.bytes_sent + s.bytes_received,
            s.frames_sent + s.frames_received,
            s.route_bytes,
            s.commit_bytes,
            s.census_bytes,
            s.init_bytes,
        );
        field(out, "wire traffic", wire);
        if self.p2p {
            let traffic = format!(
                "{} wave bytes over the spokes, {} handoff bytes in {} \
                 worker↔worker frames (deepest fetch ping-pong {} rounds)",
                s.wave_bytes, s.handoff_bytes, s.handoff_frames, s.max_handoff_rounds,
            );
            field(out, "p2p repair traffic", traffic);
            let cache = format!(
                "{} rows shipped, {} words resident on the workers",
                s.topology_rows_shipped, s.topology_cache_words,
            );
            field(out, "p2p topology cache", cache);
        }
        if let Some(note) = &self.chaos {
            field(out, "chaos", note);
        }
        if s.retries + s.respawns > 0 {
            let recovery = format!(
                "{} transient retries, {} respawns, {} bytes re-scattered, {:.2} ms",
                s.retries,
                s.respawns,
                s.replayed_bytes,
                s.recovery_ns as f64 / 1e6,
            );
            field(out, "recovery", recovery);
        }
        if run.tracer.enabled() {
            run.tracer.emit_snapshot(&serve.metrics_snapshot());
        }
    }
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Count, min, max, and `(lo, hi, n)` buckets of the wave-width histogram.
type WaveSummary = (u64, u64, u64, Vec<(u64, u64, u64)>);

/// `salloc report TRACE.jsonl` — checksum-verify a `--trace` file and
/// summarize it: per-phase latency percentiles alongside the simulated
/// word totals, the wave-width histogram, final counters, and per-peer
/// wire traffic.
fn cmd_report(rest: &[String]) -> Result<String, CliError> {
    let f = parse_flags(rest, &[])?;
    let [path] = f.positional.as_slice() else {
        return Err(err("usage: salloc report TRACE.jsonl"));
    };
    let text = std::fs::read_to_string(path).map_err(|e| err(format!("{path}: {e}")))?;
    let events = read_trace(&text).map_err(|e| err(format!("{path}: {e}")))?;

    // Aggregate spans per phase. Labels outside the ledger vocabulary
    // mean the file is not one of our traces — refuse, don't guess.
    let mut spans: BTreeMap<usize, (&str, Vec<u64>, u64)> = BTreeMap::new();
    let mut wave: Option<WaveSummary> = None;
    let mut counters: Vec<(&str, u64)> = Vec::new();
    let mut peers: Vec<(u64, u64, u64, u64, u64)> = Vec::new();
    for ev in &events {
        match ev {
            TraceEvent::Span {
                phase,
                dur_ns,
                words,
                ..
            } => {
                let p = Phase::from_label(phase).ok_or_else(|| {
                    err(format!(
                        "{path}: span phase '{phase}' is not in the ledger vocabulary"
                    ))
                })?;
                let slot = spans
                    .entry(p as usize)
                    .or_insert((p.label(), Vec::new(), 0));
                slot.1.push(*dur_ns);
                slot.2 += *words;
            }
            TraceEvent::Hist {
                name,
                count,
                min,
                max,
                buckets,
                ..
            } if name == "wave_width" => {
                wave = Some((*count, *min, *max, buckets.clone()));
            }
            TraceEvent::Counter { name, value } => counters.push((name, *value)),
            TraceEvent::Peer {
                peer,
                bytes_sent,
                bytes_received,
                frames_sent,
                frames_received,
            } => peers.push((
                *peer,
                *bytes_sent,
                *bytes_received,
                *frames_sent,
                *frames_received,
            )),
            _ => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace report: {path} — {} events verified",
        events.len()
    );

    if !spans.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<16}  {:>6}  {:>10}  {:>10}  {:>10}  {:>12}",
            "phase", "spans", "p50 µs", "p95 µs", "p99 µs", "sim words"
        );
        for (_, (label, durs, words)) in spans.iter_mut() {
            durs.sort_unstable();
            let _ = writeln!(
                out,
                "{:<16}  {:>6}  {:>10.1}  {:>10.1}  {:>10.1}  {:>12}",
                label,
                durs.len(),
                percentile(durs, 0.50) as f64 / 1e3,
                percentile(durs, 0.95) as f64 / 1e3,
                percentile(durs, 0.99) as f64 / 1e3,
                words
            );
        }
    }

    if let Some((count, min, max, buckets)) = wave {
        let _ = writeln!(out);
        let _ = writeln!(out, "wave width: {count} waves, min {min}, max {max}");
        for (lo, hi, n) in buckets {
            if n > 0 {
                let _ = writeln!(out, "  [{lo:>6}, {hi:>6}]  {n}");
            }
        }
    }

    if !counters.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "counters:");
        for (name, value) in &counters {
            let _ = writeln!(out, "  {name:<18} {value:>12}");
        }
    }

    if !peers.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "wire bytes per peer:");
        let _ = writeln!(
            out,
            "{:>6}  {:>12}  {:>12}  {:>8}  {:>8}",
            "peer", "sent", "received", "fr-out", "fr-in"
        );
        for (peer, bs, br, fs, fr) in &peers {
            let _ = writeln!(out, "{peer:>6}  {bs:>12}  {br:>12}  {fs:>8}  {fr:>8}");
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn temp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("salloc-test-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn gen_analyze_solve_opt_roundtrip() {
        let file = temp("g.txt");
        let report = run(&args(&format!(
            "gen forests --nl 200 --nr 160 --k 3 --cap 2 --seed 5 --out {file}"
        )))
        .unwrap();
        assert!(report.contains("certified λ ≤ 3"), "{report}");

        let report = run(&args(&format!("analyze {file}"))).unwrap();
        assert!(report.contains("200 × 160"), "{report}");
        assert!(report.contains("arboricity"), "{report}");

        let assign = temp("m.txt");
        let report = run(&args(&format!("solve {file} --eps 0.1 --assign {assign}"))).unwrap();
        assert!(report.contains("matched"), "{report}");
        let pairs = std::fs::read_to_string(&assign).unwrap();
        assert!(pairs.lines().count() > 100, "assignment too small");

        let report = run(&args(&format!("opt {file}"))).unwrap();
        assert!(report.starts_with("OPT = "), "{report}");

        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_file(&assign);
    }

    #[test]
    fn solve_paper_stages_mode() {
        let file = temp("p.txt");
        run(&args(&format!("gen escape --k 3 --blocks 2 --out {file}"))).unwrap();
        let report = run(&args(&format!(
            "solve {file} --eps 0.2 --lambda 6 --paper-stages"
        )))
        .unwrap();
        assert!(report.contains("LOCAL rounds"), "{report}");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn errors_are_user_facing() {
        assert!(run(&[]).is_err());
        assert!(run(&args("frobnicate"))
            .unwrap_err()
            .0
            .contains("unknown command"));
        assert!(run(&args("gen forests")).unwrap_err().0.contains("--out"));
        assert!(run(&args("solve /nonexistent-file-xyz")).is_err());
        assert!(run(&args("gen unknown-family --out /tmp/x"))
            .unwrap_err()
            .0
            .contains("unknown family"));
        assert!(run(&args("solve")).unwrap_err().0.contains("missing FILE"));
    }

    #[test]
    fn help_prints_usage() {
        let report = run(&args("help")).unwrap();
        assert!(report.contains("usage: salloc"));
        assert!(report.contains("balance FILE"));
        assert!(report.contains("online FILE"));
        assert!(report.contains("dynamic FILE"));
    }

    #[test]
    fn dynamic_subcommand_serves_churn() {
        let file = temp("dyn.txt");
        run(&args(&format!(
            "gen forests --nl 150 --nr 120 --k 3 --cap 2 --seed 6 --out {file}"
        )))
        .unwrap();
        let report = run(&args(&format!(
            "dynamic {file} --epochs 2 --events 60 --eps 0.25 --seed 3"
        )))
        .unwrap();
        assert!(report.contains("dynamic serving"), "{report}");
        assert!(report.contains("maintained matched"), "{report}");
        assert!(report.contains("incremental total"), "{report}");
        // Without the full-recompute comparison, the column is dashed.
        let report = run(&args(&format!(
            "dynamic {file} --epochs 1 --events 40 --no-full"
        )))
        .unwrap();
        assert!(!report.contains("vs full recompute"), "{report}");
        assert!(run(&args("dynamic"))
            .unwrap_err()
            .0
            .contains("missing FILE"));
        assert!(run(&args(&format!("dynamic {file} --eps 2.0")))
            .unwrap_err()
            .0
            .contains("--eps"));
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn dynamic_sharded_matches_serial_and_reports_the_ledger() {
        let file = temp("dynsh.txt");
        run(&args(&format!(
            "gen forests --nl 120 --nr 90 --k 3 --cap 2 --seed 8 --out {file}"
        )))
        .unwrap();
        let sharded = run(&args(&format!(
            "dynamic {file} --epochs 2 --events 40 --eps 0.25 --seed 5 --shards 4"
        )))
        .unwrap();
        assert!(sharded.contains("sharded serving"), "{sharded}");
        assert!(sharded.contains("MPC rounds"), "{sharded}");
        assert!(sharded.contains("4 machines"), "{sharded}");
        // The maintained allocation must be the serial engine's, verbatim.
        let serial = run(&args(&format!(
            "dynamic {file} --epochs 2 --events 40 --eps 0.25 --seed 5 --no-full"
        )))
        .unwrap();
        let matched = |report: &str| {
            report
                .lines()
                .find(|l| l.starts_with("maintained matched"))
                .unwrap()
                .to_string()
        };
        assert_eq!(matched(&sharded), matched(&serial));
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn dynamic_trace_and_report_roundtrip() {
        let file = temp("dyntr.txt");
        run(&args(&format!(
            "gen forests --nl 120 --nr 90 --k 3 --cap 2 --seed 8 --out {file}"
        )))
        .unwrap();

        // Sharded: every simulator phase lands in the trace.
        let trace = temp("dyntr.jsonl");
        let report = run(&args(&format!(
            "dynamic {file} --epochs 2 --events 40 --eps 0.25 --seed 5 --shards 4 \
             --trace {trace}"
        )))
        .unwrap();
        assert!(report.contains("trace              : wrote"), "{report}");
        let summary = run(&args(&format!("report {trace}"))).unwrap();
        assert!(summary.contains("events verified"), "{summary}");
        assert!(summary.contains("route_updates"), "{summary}");
        assert!(summary.contains("repair_wave"), "{summary}");
        assert!(summary.contains("wave width"), "{summary}");

        // Networked: net phases plus per-peer wire totals.
        let net_trace = temp("dyntr-net.jsonl");
        run(&args(&format!(
            "dynamic {file} --epochs 1 --events 40 --eps 0.25 --seed 5 --shards 2 --net \
             --trace {net_trace}"
        )))
        .unwrap();
        let summary = run(&args(&format!("report {net_trace}"))).unwrap();
        assert!(summary.contains("net_route"), "{summary}");
        assert!(summary.contains("wire bytes per peer"), "{summary}");

        // Serial: the epoch-close phases are spanned by the inner engine.
        let serial_trace = temp("dyntr-serial.jsonl");
        run(&args(&format!(
            "dynamic {file} --epochs 1 --events 40 --eps 0.25 --seed 5 --no-full \
             --trace {serial_trace}"
        )))
        .unwrap();
        let summary = run(&args(&format!("report {serial_trace}"))).unwrap();
        for phase in ["cert_sweep", "level_repair"] {
            assert!(summary.contains(phase), "{summary}");
        }

        // Any flipped byte fails the checksum verification, loudly.
        let mut bytes = std::fs::read(&trace).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&trace, &bytes).unwrap();
        assert!(run(&args(&format!("report {trace}"))).is_err());

        for f in [&file, &trace, &net_trace, &serial_trace] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn dynamic_net_matches_serial_and_reports_wire_bytes() {
        let file = temp("dynnet.txt");
        run(&args(&format!(
            "gen forests --nl 120 --nr 90 --k 3 --cap 2 --seed 8 --out {file}"
        )))
        .unwrap();
        let net_assign = temp("dynnet-net.txt");
        let net = run(&args(&format!(
            "dynamic {file} --epochs 2 --events 40 --eps 0.25 --seed 5 --shards 3 --net \
             --assign {net_assign}"
        )))
        .unwrap();
        assert!(net.contains("networked serving"), "{net}");
        assert!(net.contains("3 TCP workers"), "{net}");
        assert!(net.contains("wire traffic"), "{net}");
        assert!(net.contains("gathered matched"), "{net}");
        // The wire-gathered allocation must equal the serial engine's.
        let serial_assign = temp("dynnet-serial.txt");
        run(&args(&format!(
            "dynamic {file} --epochs 2 --events 40 --eps 0.25 --seed 5 --no-full \
             --assign {serial_assign}"
        )))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&net_assign).unwrap(),
            std::fs::read_to_string(&serial_assign).unwrap(),
            "networked allocation diverged from serial"
        );
        // p2p mode: repair waves run on the workers, cross-shard walk
        // state moves worker↔worker — and the gathered allocation is
        // still byte-identical to serial.
        let p2p_assign = temp("dynnet-p2p.txt");
        let p2p = run(&args(&format!(
            "dynamic {file} --epochs 2 --events 40 --eps 0.25 --seed 5 --shards 3 --net \
             --p2p --assign {p2p_assign}"
        )))
        .unwrap();
        assert!(p2p.contains("p2p repair waves"), "{p2p}");
        assert!(p2p.contains("p2p repair traffic"), "{p2p}");
        assert!(p2p.contains("p2p topology cache"), "{p2p}");
        assert_eq!(
            std::fs::read_to_string(&p2p_assign).unwrap(),
            std::fs::read_to_string(&serial_assign).unwrap(),
            "p2p allocation diverged from serial"
        );
        // --net needs --shards; --p2p needs --net; --waves is
        // simulator-only.
        assert!(run(&args(&format!("dynamic {file} --net")))
            .unwrap_err()
            .0
            .contains("--net requires --shards"));
        assert!(run(&args(&format!("dynamic {file} --p2p")))
            .unwrap_err()
            .0
            .contains("--p2p requires --net"));
        assert!(run(&args(&format!("dynamic {file} --shards 2 --net --waves"))).is_err());
        for f in [&file, &net_assign, &serial_assign, &p2p_assign] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn dynamic_sharded_waves_and_footprint_cap_flags() {
        let file = temp("dynwv.txt");
        run(&args(&format!(
            "gen forests --nl 120 --nr 90 --k 3 --cap 2 --seed 8 --out {file}"
        )))
        .unwrap();
        let report = run(&args(&format!(
            "dynamic {file} --epochs 2 --events 40 --eps 0.25 --seed 5 --shards 3 \
             --eager-budget 1 --waves"
        )))
        .unwrap();
        assert!(report.contains("eager budget 1"), "{report}");
        assert!(report.contains("waves              :"), "{report}");
        assert!(report.contains("global escalations"), "{report}");
        // A tiny footprint cap escalates everything: max wave width 1.
        let tight = run(&args(&format!(
            "dynamic {file} --epochs 2 --events 40 --eps 0.25 --seed 5 --shards 3 \
             --footprint-cap 1 --waves"
        )))
        .unwrap();
        assert!(tight.contains("width max 1"), "{tight}");
        assert!(run(&args(&format!(
            "dynamic {file} --shards 2 --footprint-cap 0"
        )))
        .is_err());
        // Scheduling knobs are sharded-only: reject rather than ignore.
        assert!(run(&args(&format!("dynamic {file} --waves"))).is_err());
        assert!(run(&args(&format!("dynamic {file} --footprint-cap 8"))).is_err());
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn dynamic_checkpoint_restore_resumes_identically() {
        let file = temp("dynck.txt");
        run(&args(&format!(
            "gen forests --nl 120 --nr 90 --k 3 --cap 2 --seed 8 --out {file}"
        )))
        .unwrap();
        let base = format!("dynamic {file} --events 40 --eps 0.25 --seed 5 --no-full");
        // Uninterrupted 3-epoch run.
        let full_assign = temp("dynck-full.txt");
        run(&args(&format!("{base} --epochs 3 --assign {full_assign}"))).unwrap();
        // 2 epochs + checkpoint, then restore and run the third.
        let snap = temp("dynck.snap");
        let report = run(&args(&format!("{base} --epochs 2 --checkpoint {snap}"))).unwrap();
        assert!(report.contains("checkpoint         : wrote"), "{report}");
        let resumed_assign = temp("dynck-resumed.txt");
        let report = run(&args(&format!(
            "dynamic {file} --events 40 --seed 5 --no-full --epochs 3 \
             --restore {snap} --assign {resumed_assign}"
        )))
        .unwrap();
        assert!(report.contains("resuming after epoch 2"), "{report}");
        let full = std::fs::read_to_string(&full_assign).unwrap();
        let resumed = std::fs::read_to_string(&resumed_assign).unwrap();
        assert_eq!(full, resumed, "warm restart diverged from uninterrupted");

        // Flag hygiene: config flags travel in the snapshot.
        assert!(
            run(&args(&format!("dynamic {file} --restore {snap} --eps 0.5")))
                .unwrap_err()
                .0
                .contains("conflicts with --restore")
        );
        assert!(run(&args(&format!("dynamic {file} --checkpoint-every 2")))
            .unwrap_err()
            .0
            .contains("requires --checkpoint"));
        // A corrupt snapshot is a typed, user-facing error.
        std::fs::write(&snap, b"not a snapshot").unwrap();
        assert!(run(&args(&format!("dynamic {file} --restore {snap}")))
            .unwrap_err()
            .0
            .contains("snapshot"));
        for f in [&file, &full_assign, &snap, &resumed_assign] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn dynamic_sharded_checkpoint_restores_onto_a_different_shard_count() {
        let file = temp("dynshck.txt");
        run(&args(&format!(
            "gen forests --nl 120 --nr 90 --k 3 --cap 2 --seed 8 --out {file}"
        )))
        .unwrap();
        let base = format!("dynamic {file} --events 40 --eps 0.25 --seed 5");
        let full_assign = temp("dynshck-full.txt");
        run(&args(&format!(
            "{base} --epochs 3 --shards 2 --assign {full_assign}"
        )))
        .unwrap();
        // Checkpoint every epoch: the last periodic write is the resume
        // point.
        let snap = temp("dynshck.snap");
        run(&args(&format!(
            "{base} --epochs 2 --shards 2 --checkpoint {snap} --checkpoint-every 1"
        )))
        .unwrap();
        // Restore onto 4 machines; the maintained allocation must still
        // equal the uninterrupted 2-shard run's (sharded ≡ serial for
        // every shard count).
        let resumed_assign = temp("dynshck-resumed.txt");
        let report = run(&args(&format!(
            "dynamic {file} --events 40 --seed 5 --epochs 3 --shards 4 \
             --restore {snap} --assign {resumed_assign}"
        )))
        .unwrap();
        assert!(report.contains("4 machines"), "{report}");
        assert_eq!(
            std::fs::read_to_string(&full_assign).unwrap(),
            std::fs::read_to_string(&resumed_assign).unwrap(),
            "re-sharded warm restart diverged"
        );
        // A serial restore of a sharded snapshot is a typed kind error.
        assert!(run(&args(&format!("dynamic {file} --restore {snap}")))
            .unwrap_err()
            .0
            .contains("sharded"));
        for f in [&file, &full_assign, &snap, &resumed_assign] {
            let _ = std::fs::remove_file(f);
        }
    }

    /// Every periodic checkpoint is a full base with a log marker: no
    /// delta file, and the log's last base is always the snapshot on disk.
    #[test]
    fn dynamic_periodic_checkpoints_are_full_bases_marked_in_the_log() {
        let file = temp("dynbase.txt");
        run(&args(&format!(
            "gen forests --nl 120 --nr 90 --k 3 --cap 2 --seed 8 --out {file}"
        )))
        .unwrap();
        let [snap, log] = ["ck.snap", "wal.log"].map(|f| temp(&format!("dynbase-{f}")));
        let report = run(&args(&format!(
            "dynamic {file} --events 40 --eps 0.25 --seed 5 --no-full --epochs 3 \
             --checkpoint {snap} --checkpoint-every 1 --wal {log}"
        )))
        .unwrap();
        assert!(report.contains("wrote"), "{report}");
        assert!(!std::path::Path::new(&format!("{snap}.delta")).exists());
        let records = wal::read_wal_file(log.as_ref()).unwrap().records;
        let bases: Vec<(u64, u64)> = (records.iter())
            .filter_map(|r| match r {
                WalRecord::Base { epoch, checksum } => Some((*epoch, *checksum)),
                _ => None,
            })
            .collect();
        let epochs: Vec<u64> = bases.iter().map(|b| b.0).collect();
        assert_eq!(epochs, [1, 2, 3], "one base marker per checkpoint");
        let on_disk = io::fnv1a64(&std::fs::read(&snap).unwrap());
        assert_eq!(bases.last().unwrap().1, on_disk);
        for f in [&file, &snap, &log] {
            let _ = std::fs::remove_file(f);
        }
    }

    /// A restore pairs its snapshot with the log's last base marker: a
    /// snapshot from another run is refused before anything replays.
    #[test]
    fn dynamic_restore_refuses_a_snapshot_the_log_was_not_cut_at() {
        let file = temp("dynpair.txt");
        run(&args(&format!(
            "gen forests --nl 120 --nr 90 --k 3 --cap 2 --seed 8 --out {file}"
        )))
        .unwrap();
        let [mine, other, log] =
            ["mine.snap", "other.snap", "wal.log"].map(|f| temp(&format!("dynpair-{f}")));
        let base = format!("dynamic {file} --events 40 --no-full");
        run(&args(&format!(
            "{base} --eps 0.25 --seed 5 --epochs 2 --checkpoint {mine} --wal {log}"
        )))
        .unwrap();
        run(&args(&format!(
            "{base} --eps 0.25 --seed 6 --epochs 2 --checkpoint {other}"
        )))
        .unwrap();
        let logged = std::fs::read(&log).unwrap();
        let e = run(&args(&format!(
            "{base} --seed 5 --epochs 3 --restore {other} --wal {log}"
        )))
        .unwrap_err();
        assert!(e.0.contains(&other) && e.0.contains(&log), "{e}");
        assert!(e.0.contains("not the base"), "{e}");
        assert_eq!(std::fs::read(&log).unwrap(), logged, "log untouched");
        // The snapshot the log was cut at restores.
        run(&args(&format!(
            "{base} --seed 5 --epochs 3 --restore {mine} --wal {log}"
        )))
        .unwrap();
        for f in [&file, &mine, &other, &log] {
            let _ = std::fs::remove_file(f);
        }
    }

    /// Two recoveries from one snapshot share one log: the second run
    /// replays the first run's epochs from the log, then serves on, and
    /// ends where an uninterrupted run does — on every engine.
    #[test]
    fn dynamic_chained_recovery_replays_the_log_on_every_engine() {
        let file = temp("dynch.txt");
        run(&args(&format!(
            "gen forests --nl 120 --nr 90 --k 3 --cap 2 --seed 8 --out {file}"
        )))
        .unwrap();
        let base = format!("dynamic {file} --events 40 --seed 5 --no-full");
        let legs = [
            ("serial", ""),
            ("sharded", "--shards 2"),
            ("p2p", "--shards 2 --net --p2p"),
        ];
        for (leg, mode) in legs {
            let [full, snap, log, resumed] = ["full.txt", "ck.snap", "wal.log", "resumed.txt"]
                .map(|f| temp(&format!("dynch-{leg}-{f}")));
            run(&args(&format!(
                "{base} --eps 0.25 {mode} --epochs 4 --assign {full}"
            )))
            .unwrap();
            run(&args(&format!(
                "{base} --eps 0.25 {mode} --epochs 1 --checkpoint {snap}"
            )))
            .unwrap();
            let _ = std::fs::remove_file(&log);
            let first = format!("{base} {mode} --restore {snap} --wal {log}");
            run(&args(&format!("{first} --epochs 3"))).unwrap();
            let report = run(&args(&format!("{first} --epochs 4 --assign {resumed}")))
                .unwrap_or_else(|e| panic!("{leg}: {e}"));
            assert!(report.contains("replayed 2 batches"), "{leg}: {report}");
            assert_eq!(
                std::fs::read_to_string(&full).unwrap(),
                std::fs::read_to_string(&resumed).unwrap(),
                "{leg}: chained recovery diverged from the uninterrupted run"
            );
            for f in [&full, &snap, &log, &resumed] {
                let _ = std::fs::remove_file(f);
            }
        }
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn balance_subcommand_reports_makespan() {
        let file = temp("lb.txt");
        run(&args(&format!(
            "gen random --nl 60 --nr 6 --m 360 --cap 60 --seed 2 --out {file}"
        )))
        .unwrap();
        // `random` can isolate a job; both searches must then error cleanly.
        let approx = run(&args(&format!("balance {file}")));
        let exact = run(&args(&format!("balance {file} --exact")));
        match (approx, exact) {
            (Ok(a), Ok(e)) => {
                assert!(a.contains("makespan"), "{a}");
                assert!(e.contains("exact search"), "{e}");
            }
            (Err(a), Err(e)) => {
                assert!(a.0.contains("no feasible server"), "{a}");
                assert!(e.0.contains("no feasible server"), "{e}");
            }
            (a, e) => panic!("approx and exact disagree on feasibility: {a:?} vs {e:?}"),
        }
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn online_subcommand_all_algorithms() {
        let file = temp("on.txt");
        run(&args(&format!(
            "gen forests --nl 120 --nr 90 --k 3 --cap 2 --seed 4 --out {file}"
        )))
        .unwrap();
        for algo in [
            "first-fit",
            "random-fit",
            "balance",
            "ranking",
            "prop-serve",
        ] {
            let report = run(&args(&format!(
                "online {file} --algo {algo} --order random --seed 3"
            )))
            .unwrap();
            assert!(report.contains("ratio"), "{algo}: {report}");
        }
        assert!(run(&args(&format!("online {file} --algo nope")))
            .unwrap_err()
            .0
            .contains("unknown algorithm"));
        assert!(run(&args(&format!("online {file} --order nope")))
            .unwrap_err()
            .0
            .contains("unknown order"));
        let _ = std::fs::remove_file(&file);
    }
}
