//! `servebench` — the serving benchmark.
//!
//! Drives a dynamic allocation engine through a closed loop, one process
//! driving: each epoch applies one churn batch, closes the epoch with
//! `end_epoch` (a certified `k/(k+1)` allocation), then performs the
//! operator reads. The next batch goes in only after those reads finish.
//! Every engine is reached through its public API only; layers are timed
//! from the outside, around the calls into them, and their counters are
//! read from the reports those calls already return.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <serial-plentiful|serial-scarce|p2p-loopback|all> \
//!     [--seed 29] [--seconds 10] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object: the correctness
//! verdict, epochs attempted and failed, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Every run also
//! writes a result file with its provenance under `servebench/results/`.
//! The exit code is nonzero when the correctness gate fails. See
//! `servebench/README.md` for the workloads and the metrics.

mod gate;
mod metrics;
mod provenance;
mod spans;
mod workload;

use std::process::ExitCode;

use workload::Workload;

const USAGE: &str =
    "usage: servebench --workload <serial-plentiful|serial-scarce|p2p-loopback|all> \
                     [--seed <u64>] [--seconds <1..=3600>] [--trace <0|1>]";

/// Command-line arguments, checked where they enter.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
                })
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Keep freed memory in the process heap instead of handing it back to
/// the kernel. The VM the benchmark was defined on reports free guest
/// pages to its host, so every re-growth of a trimmed heap paid
/// host-level page faults whose cost followed the host's load: ~174k
/// minor faults per 100 serial-plentiful epochs, ~15 % of the epoch time.
/// With the heap held the run takes ~25k. Every build under comparison
/// runs with the same setting.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn hold_heap() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` takes two plain integers and only changes glibc
    // allocator parameters; it runs before any other thread exists, and
    // both values are within the ranges glibc documents (the mmap
    // threshold's maximum is 32 MiB on 64-bit targets).
    unsafe {
        mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn hold_heap() {}

fn main() -> ExitCode {
    hold_heap();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for &w in &args.workloads {
        let run = workload::run(w, args.seed, args.seconds, args.trace);
        let mut report = metrics::Report::new(&run, args.trace);
        let written = provenance::record(&run, &mut report);
        if let Err(e) = &written {
            report.correct = false;
            report
                .failures
                .push(format!("could not write the result: {e}"));
        }
        report.print_human(&run);
        if let Ok(path) = written {
            println!("  result written to {}", path.display());
        }
        all_correct &= report.correct;
        println!("{}", report.json_line());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
