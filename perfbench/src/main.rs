//! The repository's benchmark: one command runs a workload against a
//! file-backed `SvrEngine` served over TCP, checks every answer against
//! the reference model, and prints every metric by name with its unit.
//! The last line of standard output is a JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the
//! same seeded op stream at every entry depth and reports the per-layer
//! metrics. `--plant-wrong` drops the best row of one probe answer before
//! it is checked: the run must then fail the correctness gate. Data lives
//! under `.perfbench/` in the working directory and is removed at exit;
//! traced runs leave their span file there.

mod exec;
mod gate;
mod inputs;
mod layers;
mod report;
mod run;

use std::path::PathBuf;

use inputs::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    plant: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut plant) = (None, 1, 10, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name}; expected one of serve-mixed, query-cold, \
                     ingest-restart"
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--plant-wrong" => plant = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        plant,
    })
}

/// Removes the run's data directory however the run ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let data = DataDir(PathBuf::from(".perfbench").join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&data.0) {
        eprintln!("perfbench: create {:?}: {e}", data.0);
        std::process::exit(2);
    }
    let result = if args.trace {
        run::traced(args.workload, args.seed, &data.0)
    } else {
        run::measure(args.workload, args.seed, args.seconds, &data.0, args.plant)
    };
    drop(data);
    match result {
        Ok(report) => {
            report.print(args.trace);
            if !report.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
